package protocol_test

import (
	"math"
	"testing"

	"rmcast/internal/experiment"
	"rmcast/internal/protocol"
	"rmcast/internal/protocol/coop"
	"rmcast/internal/protocol/rma"
	"rmcast/internal/protocol/rpproto"
	"rmcast/internal/protocol/srm"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// TestDefaultRouterOnTreeMatchesDijkstra: on a tree-only topology a session
// given no router routes on the multicast tree (route.Default), not on
// per-host Dijkstra tables. Hop counts and next hops are identical and
// delays differ only by float rounding, so every engine must recover the
// same losses over the same hops, with mean latency equal to within 1e-9
// relative. The sharded run of the default-router session must also hash
// identically to its serial twin.
func TestDefaultRouterOnTreeMatchesDijkstra(t *testing.T) {
	topo, err := topology.GenerateTree(topology.DefaultTreeConfig(200), rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name   string
		engine func() protocol.Engine
		shards bool
	}{
		{"RP", func() protocol.Engine { return rpproto.New(rpproto.DefaultOptions()) }, true},
		{"SRM", func() protocol.Engine { return srm.New(srm.DefaultOptions()) }, false},
		{"RMA", func() protocol.Engine { return rma.New(rma.DefaultOptions()) }, true},
		{"COOP", func() protocol.Engine { return coop.New(coop.DefaultOptions()) }, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run := func(workers int, routes route.Router) *protocol.Result {
				t.Helper()
				cfg := protocol.Config{Packets: 20, Interval: 50, SimWorkers: workers}
				s, err := protocol.NewSessionWithRouter(topo, row.engine(), cfg, 7, routes)
				if err != nil {
					t.Fatal(err)
				}
				res := s.Run()
				if !res.Complete || res.Stats.Unrecovered > 0 || len(res.Violations) > 0 {
					t.Fatalf("bad run: complete=%v unrecovered=%d violations=%v",
						res.Complete, res.Stats.Unrecovered, res.Violations)
				}
				return res
			}
			tree, dij := run(1, nil), run(1, route.Build(topo))
			if tree.Stats.Recoveries == 0 {
				t.Fatal("no recoveries: the comparison is vacuous")
			}
			a, b := tree.Stats, dij.Stats
			if a.Recoveries != b.Recoveries || a.Delivered != b.Delivered || a.Duplicates != b.Duplicates {
				t.Errorf("stats: tree rec=%d del=%d dup=%d, dijkstra rec=%d del=%d dup=%d",
					a.Recoveries, a.Delivered, a.Duplicates, b.Recoveries, b.Delivered, b.Duplicates)
			}
			if tree.Hops != dij.Hops {
				t.Errorf("hops: tree %+v, dijkstra %+v", tree.Hops, dij.Hops)
			}
			if ma, mb := a.Latency.Mean(), b.Latency.Mean(); math.Abs(ma-mb) > 1e-9*math.Abs(mb) {
				t.Errorf("mean latency: tree %v, dijkstra %v", ma, mb)
			}
			if !row.shards {
				return
			}
			sharded := run(2, nil)
			if !sharded.Sharded {
				t.Fatalf("w=2 run fell back to serial: %s", sharded.SerialReason)
			}
			if got, want := experiment.ResultDigest(sharded), experiment.ResultDigest(tree); got != want {
				t.Errorf("sharded digest %s, serial %s", got, want)
			}
		})
	}
}
