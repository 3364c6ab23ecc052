package srcrec

import (
	"math"
	"testing"

	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

func TestSingleLossRecoveredFromSource(t *testing.T) {
	topo, err := topology.Chain(3, 2, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	tail := topo.Clients[0]
	link := tree.ParentLink[tail]
	topo.Loss[link] = 1
	e := New(DefaultOptions())
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 1, Interval: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Schedule(0.5, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Recoveries != 1 || res.Stats.Unrecovered != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	// Latency is exactly the source RTT (4 links · 2 ms each way).
	if math.Abs(res.Stats.Latency.Mean()-16) > 1e-6 {
		t.Fatalf("latency %v, want 16", res.Stats.Latency.Mean())
	}
	// Bandwidth: request up (4) + repair down (4).
	if res.Hops.Recovery() != 8 {
		t.Fatalf("recovery hops %d, want 8", res.Hops.Recovery())
	}
	if e.PendingRecoveries() != 0 {
		t.Fatal("dangling state")
	}
}

func TestRetryAfterLostRepair(t *testing.T) {
	topo, err := topology.Chain(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(topo)
	c := topo.Clients[0]
	link := tree.ParentLink[c]
	topo.Loss[link] = 1
	e := New(DefaultOptions())
	s, err := protocol.NewSession(topo, e, protocol.Config{Packets: 1, Interval: 10, LossyRecovery: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Schedule(60, func() { topo.Loss[link] = 0 })
	res := s.Run()
	if res.Stats.Recoveries != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
	if res.Stats.Latency.Mean() < 50 {
		t.Fatalf("latency %v below healing time", res.Stats.Latency.Mean())
	}
}
