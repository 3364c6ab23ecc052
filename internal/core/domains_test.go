package core

import (
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// TestDomainAggregatorsMatchElectorate pins the aggregator election rule:
// each domain's aggregator is exactly what an Electorate answers after every
// client outside the domain withdraws — the same (DelayFromRoot, NodeID)
// Algorithm-1 ranking, restricted to domain membership.
func TestDomainAggregatorsMatchElectorate(t *testing.T) {
	for _, n := range []int{24, 100, 513} {
		net, err := topology.GenerateTree(topology.DefaultTreeConfig(n), rng.New(uint64(400+n)))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := mtree.Build(net)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []int{4, 16, 64} {
			part := mtree.PartitionTree(tree, (len(tree.Clients)+target-1)/target)
			agg := DomainAggregators(tree, part)
			if len(agg) != part.K {
				t.Fatalf("n=%d target=%d: %d aggregators for %d domains", n, target, len(agg), part.K)
			}
			for d := 0; d < part.K; d++ {
				e := NewElectorate(tree)
				members := 0
				for _, c := range tree.Clients {
					if int(part.ShardOf[c]) != d {
						e.Leave(c)
					} else {
						members++
					}
				}
				want := e.Best()
				if members == 0 {
					want = graph.None
				}
				if agg[d] != want {
					t.Fatalf("n=%d target=%d domain %d: aggregator %d, electorate says %d",
						n, target, d, agg[d], want)
				}
				// The aggregator must be a member of its own domain.
				if agg[d] != graph.None && int(part.ShardOf[agg[d]]) != d {
					t.Fatalf("n=%d target=%d: aggregator %d not in domain %d", n, target, agg[d], d)
				}
			}
		}
	}
}

// TestDomainAggregatorsLiteTree checks the election runs identically on a
// BuildLite tree — the million-client path never builds the full LCA index.
func TestDomainAggregatorsLiteTree(t *testing.T) {
	net, err := topology.GenerateTree(topology.DefaultTreeConfig(200), rng.New(88))
	if err != nil {
		t.Fatal(err)
	}
	full, err := mtree.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	lite, err := mtree.BuildLite(net)
	if err != nil {
		t.Fatal(err)
	}
	k := (len(full.Clients) + 15) / 16
	pf := mtree.PartitionTree(full, k)
	pl := mtree.PartitionTree(lite, k)
	af, al := DomainAggregators(full, pf), DomainAggregators(lite, pl)
	if len(af) != len(al) {
		t.Fatalf("domain counts diverge: %d vs %d", len(af), len(al))
	}
	for d := range af {
		if af[d] != al[d] {
			t.Fatalf("domain %d: full-tree aggregator %d, lite-tree %d", d, af[d], al[d])
		}
	}
}

// TestPlanAllDenseMatchesPlanAll pins the dense batch path: the slice entry
// for Tree.Clients[i] must equal the map entry for that client, field for
// field, on both a full and a lite tree (the latter exercising the
// RTTVia/meetRTT LCA-free planning path end to end).
func TestPlanAllDenseMatchesPlanAll(t *testing.T) {
	for _, lite := range []bool{false, true} {
		net, err := topology.GenerateTree(topology.DefaultTreeConfig(120), rng.New(19))
		if err != nil {
			t.Fatal(err)
		}
		build := mtree.Build
		if lite {
			build = mtree.BuildLite
		}
		tree, err := build(net)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPlanner(tree, route.NewTreeTables(tree))
		want := p.PlanAll()
		got := p.PlanAllDense()
		if len(got) != len(tree.Clients) {
			t.Fatalf("lite=%v: dense length %d, want %d", lite, len(got), len(tree.Clients))
		}
		for i, u := range tree.Clients {
			w := want[u]
			g := got[i]
			if g == nil || w == nil {
				t.Fatalf("lite=%v: nil strategy for client %d", lite, u)
			}
			if g.Client != w.Client || g.ExpectedDelay != w.ExpectedDelay ||
				g.SourceRTT != w.SourceRTT || g.SourceTimeout != w.SourceTimeout ||
				len(g.Peers) != len(w.Peers) {
				t.Fatalf("lite=%v client %d: dense strategy diverges: %v vs %v", lite, u, g, w)
			}
			for j := range g.Peers {
				if g.Peers[j] != w.Peers[j] {
					t.Fatalf("lite=%v client %d peer %d: %v vs %v", lite, u, j, g.Peers[j], w.Peers[j])
				}
			}
		}
		// The in-place variant updates the same backing objects.
		prev := append([]*Strategy(nil), got...)
		again := p.PlanAllDenseInto(got)
		for i := range again {
			if again[i] != prev[i] {
				t.Fatalf("lite=%v: PlanAllDenseInto reallocated entry %d", lite, i)
			}
		}
	}
}
