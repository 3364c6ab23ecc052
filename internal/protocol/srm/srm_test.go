package srm

import (
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

func oneLossSession(t *testing.T, topo *topology.Network, lossLink graph.EdgeID, e protocol.Engine) *protocol.Session {
	t.Helper()
	topo.Loss[lossLink] = 1
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 1, Interval: 10}, 42)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Schedule(0.5, func() { topo.Loss[lossLink] = 0 })
	return s
}

func TestSingleLossRecoveredByFlood(t *testing.T) {
	topo, err := topology.Chain(3, 1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	tail := topo.Clients[0]
	e := New(DefaultOptions())
	s := oneLossSession(t, topo, tree.ParentLink[tail], e)
	res := s.Run()
	if res.Stats.Losses != 1 || res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// One NACK flood + one repair flood: both traverse every tree edge.
	edges := int64(tree.NumTreeEdges())
	if res.Hops.Request < edges || res.Hops.Repair < edges {
		t.Fatalf("floods did not cover the tree: %+v (edges %d)", res.Hops, edges)
	}
	// SRM latency includes the request suppression timer: strictly more
	// than the raw source RTT.
	srcRTT := 2 * s.Routes.OneWayDelay(tail, topo.Source)
	if res.Stats.Latency.Mean() <= srcRTT {
		t.Fatalf("latency %v suspiciously below timer floor %v",
			res.Stats.Latency.Mean(), srcRTT)
	}
	if e.PendingRequests() != 0 {
		t.Fatal("dangling request state")
	}
}

func TestRepairFloodHealsAllLosers(t *testing.T) {
	// Loss above a 6-client star subtree: one repair flood must heal all;
	// suppression must keep the NACK count well below the loser count.
	b := topology.NewBuilder()
	src := b.Source()
	r1, hub := b.Router(), b.Router()
	b.TreeLink(src, r1, 5)
	shared := b.TreeLink(r1, hub, 2)
	for i := 0; i < 6; i++ {
		b.TreeLink(hub, b.Client(), 1)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	e := New(DefaultOptions())
	s := oneLossSession(t, topo, shared, e)
	res := s.Run()
	healed := res.Stats.Recoveries + res.Stats.PreDetection
	if healed != 6 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// Count NACK floods via hop totals: lossless recovery phase means
	// every flood costs exactly NumTreeEdges hops.
	edges := int64(tree.NumTreeEdges())
	nacks := res.Hops.Request / edges
	if nacks >= 6 {
		t.Fatalf("no request suppression: ~%d NACK floods for 6 losers", nacks)
	}
	if nacks < 1 {
		t.Fatal("no NACK at all?")
	}
}

func TestRepairSuppressionLimitsDuplicates(t *testing.T) {
	// Many holders hear the NACK; suppression should keep repair floods
	// below the holder count. In a symmetric star every holder is
	// equidistant, so the timer window must exceed the inter-holder
	// propagation delay for suppression to have room to act — hence the
	// widened D2 (with the canonical D2=1 the window equals the
	// propagation delay and SRM genuinely duplicates almost every
	// repair, which is one of the paper's criticisms of it).
	topo, err := topology.Star(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	victim := topo.Clients[0]
	opt := DefaultOptions()
	opt.D2 = 4
	e := New(opt)
	s := oneLossSession(t, topo, tree.ParentLink[victim], e)
	res := s.Run()
	if res.Stats.Recoveries != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
	edges := int64(tree.NumTreeEdges())
	repairs := res.Hops.Repair / edges
	if repairs >= 7 {
		t.Fatalf("no repair suppression: ~%d repair floods", repairs)
	}
	if repairs < 1 {
		t.Fatal("no repair at all?")
	}
}

func TestLostRepairEventuallyRerequests(t *testing.T) {
	// Keep the victim's access link fully lossy well past the first
	// NACK/repair exchange; the exponential re-request must recover once
	// the link heals.
	b := topology.NewBuilder()
	src := b.Source()
	r := b.Router()
	b.TreeLink(src, r, 2)
	c := b.Client()
	link := b.TreeLink(r, c, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo.Loss[link] = 1
	e := New(DefaultOptions())
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 1, Interval: 10, LossyRecovery: true}, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Schedule(200, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if res.Stats.Latency.Mean() < 200-10 {
		t.Fatalf("latency %v below healing time — impossible", res.Stats.Latency.Mean())
	}
}

func TestDuplicateRepairsCounted(t *testing.T) {
	// Whole-tree repair floods necessarily hit clients that already have
	// the packet; the session must count them as duplicates.
	topo, err := topology.Star(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	victim := topo.Clients[0]
	e := New(DefaultOptions())
	s := oneLossSession(t, topo, tree.ParentLink[victim], e)
	res := s.Run()
	if res.Stats.Duplicates == 0 {
		t.Fatal("flooded repair produced no duplicate deliveries")
	}
}

func TestAdaptiveTimersReduceDuplicateFloods(t *testing.T) {
	// Honest SRM (no idealised suppression) on a duplicate-prone star
	// topology, many packets: the adaptive variant must emit fewer repair
	// floods than the fixed-timer variant.
	run := func(adaptive bool) *protocol.Result {
		topo, err := topology.Standard(60, 0.1, 51)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.GlobalSuppression = false
		opt.Adaptive = adaptive
		s, err := protocol.NewSession(topo, New(opt), protocol.Config{Packets: 60, Interval: 50}, 53)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	fixed := run(false)
	adaptive := run(true)
	if fixed.Stats.Unrecovered != 0 || adaptive.Stats.Unrecovered != 0 {
		t.Fatal("incomplete recovery")
	}
	if adaptive.Hops.Repair >= fixed.Hops.Repair {
		t.Fatalf("adaptive repair hops %d not below fixed %d",
			adaptive.Hops.Repair, fixed.Hops.Repair)
	}
}

func TestAdaptiveScaleBounded(t *testing.T) {
	opt := DefaultOptions()
	opt.Adaptive = true
	opt.MaxAdapt = 4
	e := New(opt)
	var host graph.NodeID = 3
	for i := 0; i < 50; i++ {
		e.adapt(e.repScale, host, 5) // duplicates every round
	}
	if s := e.scaleOf(e.repScale, host); s > 4 {
		t.Fatalf("scale %v exceeds bound", s)
	}
	for i := 0; i < 500; i++ {
		e.adapt(e.repScale, host, 0) // clean rounds shrink it back
	}
	if s := e.scaleOf(e.repScale, host); s != 1 {
		t.Fatalf("scale %v did not return to 1", s)
	}
	// Non-adaptive engines always report 1.
	plain := New(DefaultOptions())
	plain.adapt(plain.repScale, host, 9)
	if plain.scaleOf(plain.repScale, host) != 1 {
		t.Fatal("non-adaptive engine scaled")
	}
}
