package rma

import (
	"math"
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

func TestNearestUpstreamRepairs(t *testing.T) {
	// Chain with side clients: tail loses on its access link; the nearest
	// upstream receiver (deepest meet) is asked first and repairs via
	// subtree multicast.
	topo, err := topology.Chain(3, 1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	tail := topo.Clients[0]
	c2 := topo.Clients[2] // at r2: nearest upstream receiver of tail
	e := New(DefaultOptions())
	s := oneLossSession(t, topo, tree.ParentLink[tail], e)
	res := s.Run()
	if res.Stats.Losses != 1 || res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// Expected latency: unicast tail→c2 (3 hops, 3 ms), then repair
	// travels c2→meet(r2) 1 ms, multicast down r2's subtree to tail 2 ms:
	// total 6 ms.
	if math.Abs(res.Stats.Latency.Mean()-6) > 1e-6 {
		t.Fatalf("latency %v, want 6 (walk via %d)", res.Stats.Latency.Mean(), c2)
	}
	// The chain must have asked c2 first (descending DS).
	chain := e.chain[tail]
	if len(chain) != 2 || chain[0].Peer != c2 {
		t.Fatalf("upstream chain %v, want nearest-first starting at %d", chain, c2)
	}
	if e.PendingRecoveries() != 0 {
		t.Fatal("dangling walk state")
	}
}

func TestWalkForwardsWhenFirstPeerMisses(t *testing.T) {
	// Loss above both tail and the near peer: the walk visits the near
	// peer (miss), forwards to the far peer (hit), which repairs a
	// subtree covering both losers.
	b := topology.NewBuilder()
	src := b.Source()
	r1, r2, r3 := b.Router(), b.Router(), b.Router()
	b.TreeLink(src, r1, 2)
	shared := b.TreeLink(r1, r2, 1)
	b.TreeLink(r2, r3, 1)
	tail := b.Client()
	b.TreeLink(r3, tail, 1)
	near := b.Client()
	b.TreeLink(r3, near, 1) // same subtree as tail: also loses
	far := b.Client()
	b.TreeLink(r1, far, 1) // above the loss: has the packet
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(DefaultOptions())
	s := oneLossSession(t, topo, shared, e)
	res := s.Run()
	healed := res.Stats.Recoveries + res.Stats.PreDetection
	if healed != 2 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// The repair from far multicasts the subtree under meet(tail, far) =
	// r1 — covering both tail and near with one transmission.
	if res.Stats.Duplicates != 0 {
		// far itself is above; the subtree flood reaches only losers here.
		t.Logf("note: %d duplicate deliveries", res.Stats.Duplicates)
	}
}

func TestSourceFallbackRepairsSubtree(t *testing.T) {
	// Every client loses: all walks end at the source, whose multicast
	// covers the shallowest visited meet's subtree.
	b := topology.NewBuilder()
	src := b.Source()
	r1 := b.Router()
	shared := b.TreeLink(src, r1, 2)
	c1 := b.Client()
	b.TreeLink(r1, c1, 1)
	c2 := b.Client()
	b.TreeLink(r1, c2, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New(DefaultOptions())
	s := oneLossSession(t, topo, shared, e)
	res := s.Run()
	healed := res.Stats.Recoveries + res.Stats.PreDetection
	if healed != 2 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

func TestLostRequestRetries(t *testing.T) {
	// Fully lossy access link kills both the data packet and the first
	// walk; the retry timer must relaunch after healing.
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
	s.Eng.Schedule(100, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if res.Stats.Latency.Mean() < 90 {
		t.Fatalf("latency %v below healing time", res.Stats.Latency.Mean())
	}
}

func TestRepairSuppressionReducesBandwidth(t *testing.T) {
	run := func(suppress bool) *protocol.Result {
		topo, err := topology.Standard(60, 0.1, 61)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.RepairSuppression = suppress
		s, err := protocol.NewSession(topo, New(opt), protocol.Config{Packets: 50, Interval: 50}, 63)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	with := run(true)
	without := run(false)
	if with.Stats.Unrecovered != 0 || without.Stats.Unrecovered != 0 {
		t.Fatal("incomplete recovery")
	}
	if with.Hops.Repair >= without.Hops.Repair {
		t.Fatalf("suppression did not cut repair hops: %d vs %d",
			with.Hops.Repair, without.Hops.Repair)
	}
}
