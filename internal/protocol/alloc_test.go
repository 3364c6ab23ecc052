package protocol_test

import (
	"runtime"
	"testing"

	"rmcast/internal/protocol"
	"rmcast/internal/protocol/ack"
	"rmcast/internal/protocol/coop"
	"rmcast/internal/protocol/fec"
	"rmcast/internal/protocol/rma"
	"rmcast/internal/protocol/rpproto"
	"rmcast/internal/protocol/srcrec"
	"rmcast/internal/protocol/srm"
	"rmcast/internal/topology"
)

// TestAllocsPerEvent is the engine allocation table: every engine runs the
// golden cell (the Figure-5 n=50 topology, 40 packets, seed 1), and the
// mallocs of Session.Run per processed event must stay at or below the
// row's bound. Run includes the fixed cost of scheduling the program and
// building the Result, so the bounds sit above the steady-state rate. Each
// bound is about 1.25× the rate measured when the engines moved to
// closure-free timers; a change that puts a closure or a heap object back
// on a per-event path overshoots it. What remains is mostly per-loss state
// (maps, attempt records) and packet payloads boxed into Packet.Payload.
func TestAllocsPerEvent(t *testing.T) {
	resilient := rpproto.DefaultOptions()
	resilient.Resilience = rpproto.DefaultResilience()
	failover := rpproto.DefaultOptions()
	failover.Failover = rpproto.DefaultFailover()
	for _, row := range []struct {
		name  string
		eng   func() protocol.Engine
		bound float64
	}{
		{"SRM", func() protocol.Engine { return srm.New(srm.DefaultOptions()) }, 0.015},
		{"RMA", func() protocol.Engine { return rma.New(rma.DefaultOptions()) }, 0.27},
		{"RP", func() protocol.Engine { return rpproto.New(rpproto.DefaultOptions()) }, 0.17},
		{"RP-RESILIENT", func() protocol.Engine { return rpproto.New(resilient) }, 0.17},
		{"RP-FAILOVER", func() protocol.Engine { return rpproto.New(failover) }, 0.31},
		{"SRC", func() protocol.Engine { return srcrec.New(srcrec.DefaultOptions()) }, 0.04},
		{"FEC", func() protocol.Engine { return fec.New(fec.DefaultOptions()) }, 0.045},
		{"ACK", func() protocol.Engine { return ack.New(ack.DefaultOptions()) }, 0.015},
		{"COOP", func() protocol.Engine { return coop.New(coop.DefaultOptions()) }, 0.45},
	} {
		t.Run(row.name, func(t *testing.T) {
			topo, err := topology.Standard(50, 0.05, 2053)
			if err != nil {
				t.Fatal(err)
			}
			s, err := protocol.NewSession(topo, row.eng(), protocol.Config{Packets: 40, Interval: 50}, 1)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := s.Run()
			runtime.ReadMemStats(&after)
			perEvent := float64(after.Mallocs-before.Mallocs) / float64(res.Events)
			t.Logf("%s: %d mallocs over %d events = %.4f per event", row.name, after.Mallocs-before.Mallocs, res.Events, perEvent)
			if perEvent > row.bound {
				t.Errorf("%s allocates %.4f per event, bound %v", row.name, perEvent, row.bound)
			}
		})
	}
}
