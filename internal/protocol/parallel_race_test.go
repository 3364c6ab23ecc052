package protocol_test

// Race hammer for the conservative parallel runner: a moderately sized
// tree-topology run of every shardable engine across 4 workers, with crash
// and link-outage
// windows so host-transition events, deferred detections, and cross-shard
// repair traffic all exercise the outbox/ingest machinery. The test lives in
// an external package so it can attach real engines (they import protocol,
// so an internal test file cannot).
//
// Under `go test -race` this is the gate that the shard pool, the window
// barriers, and the shared read-only state (routes, fault state, oracle sent
// rows) are free of data races. Without -race it doubles as a field-level
// serial/parallel parity check on a topology much larger than the golden
// cell.

import (
	"reflect"
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/protocol"
	"rmcast/internal/protocol/coop"
	"rmcast/internal/protocol/rma"
	"rmcast/internal/protocol/rpproto"
	"rmcast/internal/protocol/srcrec"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

func raceTopo(t *testing.T) *topology.Network {
	t.Helper()
	cfg := topology.DefaultTreeConfig(320)
	net, err := topology.GenerateTree(cfg, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func raceRun(t *testing.T, topo *topology.Network, engine protocol.Engine, workers int) *protocol.Result {
	t.Helper()
	sched := &fault.Schedule{}
	sched.CrashWindow(topo.Clients[7], 100, 500)
	sched.CrashWindow(topo.Clients[150], 250, 800)
	sched.CrashWindow(topo.Clients[311], 600, 1200)
	sched.LinkDownWindow(topo.TreeEdges[3], 150, 400)
	sched.LinkDownWindow(topo.TreeEdges[40], 450, 700)
	cfg := protocol.Config{Packets: 25, Interval: 40, Fault: sched, SimWorkers: workers}
	s, err := protocol.NewSession(topo, engine, cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	if workers >= 2 && !s.ParallelEligible() {
		t.Fatal("run unexpectedly ineligible for sharding — the hammer would not cross shards")
	}
	res := s.Run()
	if !res.Complete {
		t.Fatal("incomplete run")
	}
	if len(res.Violations) > 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
	return res
}

// TestParallelRaceHammer runs the sharded path of every ShardCloner engine
// with 4 workers on a 320-client tree (K = 8 shards) and asserts each result
// is field-identical to the serial run — the field-level guard on the one
// finish path both modes share, COOP's coded counters included. Run under
// -race, it hammers every cross-shard synchronization point; the CI
// test-race job picks it up automatically.
func TestParallelRaceHammer(t *testing.T) {
	topo := raceTopo(t)
	rows := []struct {
		name   string
		engine func() protocol.Engine
	}{
		{"RP", func() protocol.Engine { return rpproto.New(rpproto.DefaultOptions()) }},
		{"RMA", func() protocol.Engine { return rma.New(rma.DefaultOptions()) }},
		{"COOP", func() protocol.Engine { return coop.New(coop.DefaultOptions()) }},
		{"SRC", func() protocol.Engine { return srcrec.New(srcrec.DefaultOptions()) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			serial := raceRun(t, topo, row.engine(), 0)
			parallel := raceRun(t, topo, row.engine(), 4)
			// The execution-mode fields legitimately differ (the parallel
			// run reports Sharded); parity is about the simulation outcome.
			if !parallel.Sharded {
				t.Fatal("parallel run did not shard")
			}
			parallel.Sharded, parallel.SerialReason = serial.Sharded, serial.SerialReason
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("parallel result diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
		})
	}
}
