package coop

import (
	"reflect"
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

// TestBurstWithinREnvelopeNoSourceFallback is the PR's burst-immunity
// acceptance invariant: a per-block loss burst of exactly R consecutive
// packets at one client, with every peer holding the full block, must be
// recovered entirely from peer-relayed coded symbols — one decode, zero
// source fallbacks, zero unrecovered.
func TestBurstWithinREnvelopeNoSourceFallback(t *testing.T) {
	topo, err := topology.Star(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	e := New(Options{K: 8, R: 4, Fanout: 2, RetryFactor: 3, Slack: 5})
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 16, Interval: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Packets sent at t = 10·i cross the access link at ~10·i+2; the
	// window [15, 55] kills exactly the burst 2, 3, 4, 5 — R = 4 losses
	// in block 0 — at client 0 only.
	s.Eng.Schedule(15, func() { topo.Loss[link] = 1 })
	s.Eng.Schedule(55, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Losses != 4 || res.Stats.Recoveries != 4 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if e.SourceFallbacks() != 0 {
		t.Fatalf("burst ≤ R fell back to the source %d times", e.SourceFallbacks())
	}
	if res.Stats.CodedSymbols == 0 {
		t.Fatal("recovery without any coded symbols — decode path not exercised")
	}
	if e.PendingRecoveries() != 0 {
		t.Fatal("dangling block recoveries")
	}
	if len(res.Violations) > 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
}

// TestBurstBeyondRUsesSourceAsLastResort: a burst larger than R exhausts
// what peers can add (every peer re-encodes the same R-symbol space), so
// the engine must escalate to the source — and still recover everything.
func TestBurstBeyondRUsesSourceAsLastResort(t *testing.T) {
	topo, err := topology.Star(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	e := New(Options{K: 8, R: 4, Fanout: 2, RetryFactor: 3, Slack: 5})
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 16, Interval: 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Kill packets 1…5 — five losses against a coded budget of four.
	s.Eng.Schedule(5, func() { topo.Loss[link] = 1 })
	s.Eng.Schedule(55, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Losses != 5 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if e.SourceFallbacks() == 0 {
		t.Fatal("burst > R recovered without the source — impossible")
	}
	if e.PendingRecoveries() != 0 {
		t.Fatal("dangling block recoveries")
	}
	_ = c
}

// coopRun executes one 50-router run with the given fault schedule.
func coopRun(t *testing.T, sched *fault.Schedule) *protocol.Result {
	t.Helper()
	topo, err := topology.Standard(50, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.Config{Packets: 48, Interval: 20, Fault: sched}
	s, err := protocol.NewSession(topo, New(DefaultOptions()), cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

// TestDuplicationConvergesToCleanResult: symbol- and solicitation-plane
// duplication with zero added delay must leave every observable except the
// duplicate counters and the event count bit-identical to the clean run —
// the bitmask set semantics and the relay dedup window absorb every copy.
func TestDuplicationConvergesToCleanResult(t *testing.T) {
	clean := coopRun(t, nil)
	dup := coopRun(t, &fault.Schedule{Mutation: &fault.MutationConfig{
		Symbol:  fault.MutationParams{DupProb: 0.7, MaxDup: 4},
		Request: fault.MutationParams{DupProb: 0.7, MaxDup: 4},
	}})
	if dup.Stats.Duplicates == 0 && dup.Stats.CodedDuplicates == 0 {
		t.Fatal("mutation injected no duplicates — test is vacuous")
	}
	scrub := func(r *protocol.Result) protocol.Result {
		c := *r
		c.Events = 0
		c.Stats.Duplicates = 0
		c.Stats.CodedDuplicates = 0
		c.Events = 0
		return c
	}
	a, b := scrub(clean), scrub(dup)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("duplication changed observables:\nclean: %+v\ndup:   %+v", a.Stats, b.Stats)
	}
}

// TestReorderingStillDeliversEverything: reorder jitter shifts timing (so
// latency may move) but delivery, recovery completeness and the oracle's
// books must hold.
func TestReorderingStillDeliversEverything(t *testing.T) {
	clean := coopRun(t, nil)
	re := coopRun(t, &fault.Schedule{Mutation: &fault.MutationConfig{
		Symbol:  fault.MutationParams{ReorderProb: 0.5, MaxDelay: 40},
		Request: fault.MutationParams{ReorderProb: 0.5, MaxDelay: 40},
	}})
	if re.Stats.Delivered != clean.Stats.Delivered {
		t.Fatalf("delivered %d under reorder, %d clean", re.Stats.Delivered, clean.Stats.Delivered)
	}
	if re.Stats.Unrecovered != 0 || len(re.Violations) > 0 {
		t.Fatalf("reorder broke recovery: %+v %v", re.Stats, re.Violations)
	}
}

// TestCorruptedSymbolsRejected: symbol corruption (flipped index, truncated
// payload) must land in Malformed, never in the recovery books, and never
// block full delivery.
func TestCorruptedSymbolsRejected(t *testing.T) {
	res := coopRun(t, &fault.Schedule{Mutation: &fault.MutationConfig{
		Symbol: fault.MutationParams{CorruptProb: 0.3},
	}})
	if res.Stats.Malformed == 0 {
		t.Fatal("no malformed count — corruption not exercised")
	}
	if res.Stats.Unrecovered != 0 || len(res.Violations) > 0 {
		t.Fatalf("corruption broke recovery: %+v %v", res.Stats, res.Violations)
	}
}

// TestCrashParkAndResume: a client that crashes mid-recovery must park its
// block solicitations and resume them deterministically on recovery,
// finishing the stream.
func TestCrashParkAndResume(t *testing.T) {
	topo, err := topology.Standard(50, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	sched := &fault.Schedule{}
	sched.CrashWindow(topo.Clients[0], 100, 500)
	sched.CrashWindow(topo.Clients[1], 200, 700)
	cfg := protocol.Config{Packets: 48, Interval: 20, Fault: sched}
	e := New(DefaultOptions())
	s, err := protocol.NewSession(topo, e, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatalf("run hit the event cap: %d events", res.Events)
	}
	if res.Stats.Unrecovered != 0 || res.Stats.UnrecoveredCrashed != 0 {
		t.Fatalf("transient crashes left gaps: %+v", res.Stats)
	}
	if e.PendingRecoveries() != 0 {
		t.Fatal("dangling block recoveries after resume")
	}
	if len(res.Violations) > 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
}

// TestPermanentCrashDoesNotWedge: a client that crashes forever must not
// keep the event loop alive with re-arming timers; its gaps must be
// classified UnrecoveredCrashed, never Unrecovered.
func TestPermanentCrashDoesNotWedge(t *testing.T) {
	topo, err := topology.Standard(50, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	sched := &fault.Schedule{}
	sched.CrashHost(300, topo.Clients[0])
	cfg := protocol.Config{Packets: 48, Interval: 20, Fault: sched}
	e := New(DefaultOptions())
	s, err := protocol.NewSession(topo, e, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete {
		t.Fatalf("permanent crash wedged the run: %d events", res.Events)
	}
	if res.Stats.Unrecovered != 0 {
		t.Fatalf("dead client's gaps misclassified: %+v", res.Stats)
	}
	if res.Stats.UnrecoveredCrashed == 0 {
		t.Fatalf("crash at t=300 mid-stream lost nothing? %+v", res.Stats)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
}

// TestDeterminism: same seeds, identical results — including under faults
// and mutation.
func TestDeterminism(t *testing.T) {
	mk := func() *protocol.Result {
		sched := &fault.Schedule{Mutation: &fault.MutationConfig{
			Symbol: fault.MutationParams{DupProb: 0.3, ReorderProb: 0.2, MaxDelay: 20, CorruptProb: 0.1},
		}}
		return coopRun(t, sched)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic run:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestName(t *testing.T) {
	if New(DefaultOptions()).Name() != "COOP" {
		t.Fatal("name")
	}
}
