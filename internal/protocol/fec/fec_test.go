package fec

import (
	"testing"

	"rmcast/internal/fault"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

func TestSingleLossDecodedFromParity(t *testing.T) {
	// One client loses exactly one packet of a block; a single parity
	// symbol must decode it with zero recovery traffic.
	topo, err := topology.Chain(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1
	e := New(Options{K: 4, R: 1, RetryFactor: 3, Slack: 5})
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 4, Interval: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Lose only packet 0: heal before packet 1 (t=10).
	s.Eng.Schedule(5, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Losses != 1 || res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// Local decode: no request or repair traffic at all.
	if res.Hops.Recovery() != 0 {
		t.Fatalf("FEC decode generated recovery traffic: %+v", res.Hops)
	}
	// Parity multicast happened: data hops exceed 4 packets × 3 links.
	if res.Hops.Data <= 4*3 {
		t.Fatalf("no parity traffic visible in data hops: %d", res.Hops.Data)
	}
	// Latency: loss detected at ~3 ms (would-arrive), parity sent at
	// t=30+ε arrives ~33; recovery ≈ 30 ms after detection.
	if res.AvgLatency() < 25 || res.AvgLatency() > 35 {
		t.Fatalf("decode latency %v outside expected ~30 ms", res.AvgLatency())
	}
	if e.PendingRecoveries() != 0 {
		t.Fatal("dangling fallback timers")
	}
}

func TestLossBeyondParityFallsBackToSource(t *testing.T) {
	// Lose 2 packets of a K=4,R=1 block: one decode is impossible, the
	// fallback must fetch from the source.
	topo, err := topology.Chain(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1
	e := New(Options{K: 4, R: 1, RetryFactor: 3, Slack: 5})
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 4, Interval: 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Packets 0 (t=0) and 1 (t=10) lost; heal at t=15.
	s.Eng.Schedule(15, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Losses != 2 || res.Stats.Recoveries != 2 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// With 2 losses and 1 parity: decode covers one missing packet only
	// after the other is fetched; at least one unicast round trip happened.
	if res.Hops.Recovery() == 0 {
		t.Fatal("no fallback traffic despite undecodable block")
	}
}

func TestParityLossHandled(t *testing.T) {
	// The parity itself can be lost; the fallback must still recover.
	topo, err := topology.Chain(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1
	e := New(Options{K: 2, R: 1, RetryFactor: 3, Slack: 5})
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 2, Interval: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Packet 0 (t=0) lost. Heal so packet 1 (t=10) survives, break again
	// in the 1 ms gap before the parity send (t=10.001) so the parity is
	// lost, then heal for the fallback.
	s.Eng.Schedule(5, func() { topo.Loss[link] = 0 })
	s.Eng.Schedule(10.0005, func() { topo.Loss[link] = 1 })
	s.Eng.Schedule(10.5, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if res.Hops.Recovery() == 0 {
		t.Fatal("expected source fallback after parity loss")
	}
}

// TestParityDecodeKeepsRecoveryCheap checks that at 5% loss with R/K=2/8
// most blocks decode locally: recovery traffic per recovery must be far
// below a source round trip for every loss.
func TestParityDecodeKeepsRecoveryCheap(t *testing.T) {
	topo, err := topology.Standard(50, 0.05, 41)
	if err != nil {
		t.Fatal(err)
	}
	s, err := protocol.NewSession(topo, New(DefaultOptions()), protocol.Config{Packets: 64, Interval: 20}, 43)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Stats.Recoveries == 0 {
		t.Fatalf("no recoveries: %+v", res.Stats)
	}
	perRec := float64(res.Hops.Recovery()) / float64(res.Stats.Recoveries)
	if perRec > 10 {
		t.Fatalf("recovery traffic %v hops/recovery — decode not working?", perRec)
	}
}

func TestTailBlockShorterThanK(t *testing.T) {
	// 10 packets with K=4: tail block has 2 data packets; its parity must
	// still decode single losses.
	topo, err := topology.Chain(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	e := New(Options{K: 4, R: 1, RetryFactor: 3, Slack: 5})
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 10, Interval: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Lose only packet 9 (the last, in the tail block, sent at t=90):
	// lossy from t=89, healed in the 1 ms gap before the parity send.
	s.Eng.Schedule(89, func() { topo.Loss[link] = 1 })
	s.Eng.Schedule(90.0005, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Losses != 1 || res.Stats.Recoveries != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if res.Hops.Recovery() != 0 {
		t.Fatalf("tail-block decode used the network: %+v", res.Hops)
	}
}

// TestPermanentCrashMidBlockDoesNotWedge is the FaultAware regression: a
// client that crashes mid-block with fallbacks in flight used to re-arm
// its retry timer forever (the unicast suppressed, the timer not), keeping
// the event loop alive to the cap. The crash must park the fallbacks and
// classify the dead client's gaps as UnrecoveredCrashed.
func TestPermanentCrashMidBlockDoesNotWedge(t *testing.T) {
	topo, err := topology.Standard(50, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	sched := &fault.Schedule{}
	// Crash mid-stream, inside a block, after losses have been detected.
	sched.CrashHost(300, topo.Clients[0])
	e := New(DefaultOptions())
	cfg := protocol.Config{Packets: 48, Interval: 20, Fault: sched}
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

// TestCrashAndResumeFinishesStream: a transient crash parks the client's
// fallbacks and resumes them on recovery; the stream must still complete
// for every client.
func TestCrashAndResumeFinishesStream(t *testing.T) {
	topo, err := topology.Standard(50, 0.1, 41)
	if err != nil {
		t.Fatal(err)
	}
	sched := &fault.Schedule{}
	sched.CrashWindow(topo.Clients[0], 100, 500)
	sched.CrashWindow(topo.Clients[1], 200, 700)
	e := New(DefaultOptions())
	cfg := protocol.Config{Packets: 48, Interval: 20, Fault: sched}
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
		t.Fatal("dangling fallback timers after resume")
	}
	if len(res.Violations) > 0 {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
}

func TestName(t *testing.T) {
	if New(Options{K: 8, R: 2}).Name() != "FEC(8,2)" {
		t.Fatal("name format")
	}
	var _ graph.NodeID // keep import balanced if assertions change
}
