package protocol_test

import (
	"testing"

	"rmcast/internal/fault"
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

// TestRandomLossFullRecovery is the engine conformance table: every
// recovery engine, on its own topology and seeds, must finish a stochastic
// multi-packet run with every loss recovered, no invariant violation, and
// no recovery state left behind in engines that track it. The -control rows
// also subject the recovery traffic itself to link loss, so request retries
// and source fallback must cover lost requests and repairs.
func TestRandomLossFullRecovery(t *testing.T) {
	type pendingRecoveries interface{ PendingRecoveries() int }
	type pendingRequests interface{ PendingRequests() int }
	rows := []struct {
		name              string
		engine            func() protocol.Engine
		routers           int
		topoSeed, simSeed uint64
		losses            []float64
		cfg               protocol.Config
	}{
		{"ACK", func() protocol.Engine { return ack.New(ack.DefaultOptions()) },
			40, 71, 73, []float64{0.05, 0.2}, protocol.Config{Packets: 40, Interval: 40}},
		{"COOP", func() protocol.Engine { return coop.New(coop.DefaultOptions()) },
			50, 41, 43, []float64{0.05, 0.2}, protocol.Config{Packets: 64, Interval: 20}},
		{"FEC", func() protocol.Engine { return fec.New(fec.DefaultOptions()) },
			50, 41, 43, []float64{0.05, 0.2}, protocol.Config{Packets: 64, Interval: 20}},
		{"RMA", func() protocol.Engine { return rma.New(rma.DefaultOptions()) },
			40, 23, 29, []float64{0.05, 0.2}, protocol.Config{Packets: 40, Interval: 60}},
		{"RP", func() protocol.Engine { return rpproto.New(rpproto.DefaultOptions()) },
			60, 11, 13, []float64{0.05, 0.2}, protocol.Config{Packets: 80, Interval: 30}},
		{"SRC", func() protocol.Engine { return srcrec.New(srcrec.DefaultOptions()) },
			40, 31, 37, []float64{0.2}, protocol.Config{Packets: 60, Interval: 30}},
		{"SRM", func() protocol.Engine { return srm.New(srm.DefaultOptions()) },
			40, 17, 19, []float64{0.05, 0.2}, protocol.Config{Packets: 40, Interval: 60}},
		{"RMA-control", func() protocol.Engine { return rma.New(rma.DefaultOptions()) },
			50, 31, 37, []float64{0.15}, protocol.Config{Packets: 50, Interval: 50, LossyRecovery: true}},
		{"SRM-control", func() protocol.Engine { return srm.New(srm.DefaultOptions()) },
			50, 23, 29, []float64{0.15}, protocol.Config{Packets: 50, Interval: 50, LossyRecovery: true}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, p := range row.losses {
				topo, err := topology.Standard(row.routers, p, row.topoSeed)
				if err != nil {
					t.Fatal(err)
				}
				e := row.engine()
				s, err := protocol.NewSession(topo, e, row.cfg, row.simSeed)
				if err != nil {
					t.Fatal(err)
				}
				res := s.Run()
				if !res.Complete || res.Stats.Losses == 0 || res.Stats.Unrecovered != 0 {
					t.Fatalf("p=%v: %+v complete=%v", p, res.Stats, res.Complete)
				}
				if len(res.Violations) != 0 {
					t.Fatalf("p=%v: invariant violations: %v", p, res.Violations)
				}
				if e, ok := e.(pendingRecoveries); ok && e.PendingRecoveries() != 0 {
					t.Fatalf("p=%v: %d pending recoveries left behind", p, e.PendingRecoveries())
				}
				if e, ok := e.(pendingRequests); ok && e.PendingRequests() != 0 {
					t.Fatalf("p=%v: %d pending requests left behind", p, e.PendingRequests())
				}
			}
		})
	}
}

// TestDuplicateRepairIdempotent drives every recovery engine through a lossy
// run whose message plane duplicates every control packet (requests and
// repairs, up to the cap) with jitter. Safety: every loss recovers exactly
// once — the extra copies are booked as duplicates, never as second
// recoveries (the strict invariant oracle enforces the accounting event by
// event). Liveness: full delivery despite the noise, with no recovery state
// left behind in engines that track it.
func TestDuplicateRepairIdempotent(t *testing.T) {
	type pending interface{ PendingRecoveries() int }
	rows := []struct {
		name   string
		engine func() protocol.Engine
	}{
		{"RMA", func() protocol.Engine { return rma.New(rma.DefaultOptions()) }},
		{"RP", func() protocol.Engine { return rpproto.New(rpproto.DefaultOptions()) }},
		{"SRC", func() protocol.Engine { return srcrec.New(srcrec.DefaultOptions()) }},
		{"SRM", func() protocol.Engine { return srm.New(srm.DefaultOptions()) }},
		{"COOP", func() protocol.Engine { return coop.New(coop.DefaultOptions()) }},
		{"FEC", func() protocol.Engine { return fec.New(fec.DefaultOptions()) }},
		{"ACK", func() protocol.Engine { return ack.New(ack.DefaultOptions()) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			topo, err := topology.Standard(40, 0.08, 7)
			if err != nil {
				t.Fatal(err)
			}
			cfg := protocol.Config{Packets: 40, Interval: 20}
			cfg.Fault = (&fault.Schedule{}).SetMutation(&fault.MutationConfig{
				Request: fault.MutationParams{DupProb: 1, MaxDup: 8, MaxDelay: 5},
				Repair:  fault.MutationParams{DupProb: 1, MaxDup: 8, MaxDelay: 5},
			})
			e := row.engine()
			s, err := protocol.NewSession(topo, e, cfg, 11)
			if err != nil {
				t.Fatal(err)
			}
			res := s.Run()
			if !res.Complete {
				t.Fatal("run hit the event cap")
			}
			if res.Stats.Losses == 0 {
				t.Fatal("no losses — the run exercised nothing")
			}
			if res.Stats.Duplicates == 0 {
				t.Fatal("no duplicates observed — the mutator did not bite")
			}
			if res.DeliveryRatio() != 1 || res.Stats.Unrecovered != 0 {
				t.Fatalf("delivery %v with %d unrecovered under duplication",
					res.DeliveryRatio(), res.Stats.Unrecovered)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("invariant violations: %v", res.Violations)
			}
			if p, ok := e.(pending); ok && p.PendingRecoveries() != 0 {
				t.Fatal("pending recoveries left behind")
			}
			if p, ok := e.(*srm.Engine); ok && p.PendingRequests() != 0 {
				t.Fatal("pending requests left behind")
			}
		})
	}
}

// crashEngines are the recovery engines the crash tables run, each built
// with its default options.
var crashEngines = []struct {
	name   string
	engine func() protocol.Engine
}{
	{"ACK", func() protocol.Engine { return ack.New(ack.DefaultOptions()) }},
	{"COOP", func() protocol.Engine { return coop.New(coop.DefaultOptions()) }},
	{"FEC", func() protocol.Engine { return fec.New(fec.DefaultOptions()) }},
	{"RMA", func() protocol.Engine { return rma.New(rma.DefaultOptions()) }},
	{"RP", func() protocol.Engine { return rpproto.New(rpproto.DefaultOptions()) }},
	{"RP-RESILIENT", func() protocol.Engine {
		opt := rpproto.DefaultOptions()
		opt.Resilience = rpproto.DefaultResilience()
		return rpproto.New(opt)
	}},
	{"SRC", func() protocol.Engine { return srcrec.New(srcrec.DefaultOptions()) }},
	{"SRM", func() protocol.Engine { return srm.New(srm.DefaultOptions()) }},
}

// crashRun runs one engine over the crash tables' fixed lossy backbone
// with the given crash schedule.
func crashRun(t *testing.T, e protocol.Engine, sched func(topo *topology.Network) *fault.Schedule) *protocol.Result {
	t.Helper()
	topo, err := topology.Standard(50, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.Config{Packets: 48, Interval: 20, Fault: sched(topo)}
	s, err := protocol.NewSession(topo, e, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatalf("run hit the event cap: %d events", res.Events)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
	return res
}

// TestCrashParkAndResume: clients that crash mid-recovery must park their
// recovery work and resume it deterministically on recovery, finishing the
// stream with no recovery state left behind.
func TestCrashParkAndResume(t *testing.T) {
	type pendingRecoveries interface{ PendingRecoveries() int }
	type pendingRequests interface{ PendingRequests() int }
	for _, row := range crashEngines {
		t.Run(row.name, func(t *testing.T) {
			e := row.engine()
			res := crashRun(t, e, func(topo *topology.Network) *fault.Schedule {
				sched := &fault.Schedule{}
				sched.CrashWindow(topo.Clients[0], 100, 500)
				sched.CrashWindow(topo.Clients[1], 200, 700)
				return sched
			})
			if res.Stats.Unrecovered != 0 || res.Stats.UnrecoveredCrashed != 0 {
				t.Fatalf("transient crashes left gaps: %+v", res.Stats)
			}
			if e, ok := e.(pendingRecoveries); ok && e.PendingRecoveries() != 0 {
				t.Fatalf("%d pending recoveries left after resume", e.PendingRecoveries())
			}
			if e, ok := e.(pendingRequests); ok && e.PendingRequests() != 0 {
				t.Fatalf("%d pending requests left after resume", e.PendingRequests())
			}
		})
	}
}

// TestPermanentCrashDoesNotWedge: a client that crashes forever must not
// keep the event loop alive with re-arming timers; its gaps must be
// classified UnrecoveredCrashed, never Unrecovered.
func TestPermanentCrashDoesNotWedge(t *testing.T) {
	for _, row := range crashEngines {
		t.Run(row.name, func(t *testing.T) {
			res := crashRun(t, row.engine(), func(topo *topology.Network) *fault.Schedule {
				sched := &fault.Schedule{}
				sched.CrashHost(300, topo.Clients[0])
				return sched
			})
			if res.Stats.Unrecovered != 0 {
				t.Fatalf("dead client's gaps misclassified: %+v", res.Stats)
			}
			if res.Stats.UnrecoveredCrashed == 0 {
				t.Fatalf("crash at t=300 mid-stream lost nothing? %+v", res.Stats)
			}
		})
	}
}
