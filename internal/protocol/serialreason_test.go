package protocol_test

// Tests for the serial-fallback bookkeeping: when a run requests sharding
// (SimWorkers >= 2) the result must say whether it actually sharded, and if
// not, why — the reason rmsim surfaces to the user.

import (
	"strings"
	"testing"

	"rmcast/internal/protocol"
	"rmcast/internal/protocol/rpproto"
	"rmcast/internal/protocol/srm"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

func reasonTopo(t *testing.T, clients int) *topology.Network {
	t.Helper()
	cfg := topology.DefaultTreeConfig(clients)
	net, err := topology.GenerateTree(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestSerialReasonReported walks every path planParallel decides: each
// fallback must report ParallelEligible() == false, run serial, and name
// its cause; each eligible configuration must shard with no reason.
func TestSerialReasonReported(t *testing.T) {
	rpFailover := rpproto.DefaultOptions()
	rpFailover.Failover = rpproto.DefaultFailover()
	rows := []struct {
		name    string
		clients int
		engine  protocol.Engine
		mod     func(*protocol.Config)
		reason  string // "" = the run must shard
	}{
		{"no CloneForShard", 64, srm.New(srm.DefaultOptions()), nil,
			"engine SRM cannot be sharded"},
		{"nil clone", 64, rpproto.New(rpFailover), nil,
			"cannot shard under its current options"},
		{"gap detection", 64, rpproto.New(rpproto.DefaultOptions()),
			func(c *protocol.Config) { c.Detection = protocol.DetectGap },
			"non-ideal loss detection"},
		{"small group", 12, rpproto.New(rpproto.DefaultOptions()), nil,
			"group too small to shard (12 clients < 16)"},
		{"single domain", 64, rpproto.New(rpproto.DefaultOptions()),
			func(c *protocol.Config) { c.DomainClients = 1000 },
			"domain mode: degenerate tree partition"},
		{"eligible", 64, rpproto.New(rpproto.DefaultOptions()), nil, ""},
		{"eligible domains", 64, rpproto.New(rpproto.DefaultOptions()),
			func(c *protocol.Config) { c.DomainClients = 16 }, ""},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := protocol.Config{Packets: 10, Interval: 20, SimWorkers: 4}
			if row.mod != nil {
				row.mod(&cfg)
			}
			s, err := protocol.NewSession(reasonTopo(t, row.clients), row.engine, cfg, 9)
			if err != nil {
				t.Fatal(err)
			}
			want := row.reason == ""
			if got := s.ParallelEligible(); got != want {
				t.Fatalf("ParallelEligible() = %v, want %v", got, want)
			}
			res := s.Run()
			if !res.Complete {
				t.Fatal("incomplete run")
			}
			if res.Sharded != want {
				t.Fatalf("Sharded = %v, want %v (reason %q)", res.Sharded, want, res.SerialReason)
			}
			if want && res.SerialReason != "" {
				t.Fatalf("sharded run carries a fallback reason: %q", res.SerialReason)
			}
			if !strings.Contains(res.SerialReason, row.reason) {
				t.Fatalf("fallback reason %q does not contain %q", res.SerialReason, row.reason)
			}
		})
	}

	// A run that never requested sharding reports neither.
	s, err := protocol.NewSession(reasonTopo(t, 64), srm.New(srm.DefaultOptions()),
		protocol.Config{Packets: 10, Interval: 20}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run(); res.Sharded || res.SerialReason != "" {
		t.Fatalf("serial-by-default run got parallel bookkeeping: sharded=%v reason=%q",
			res.Sharded, res.SerialReason)
	}
}
