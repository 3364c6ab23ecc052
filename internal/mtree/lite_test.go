package mtree

import (
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

// TestLiteMatchesFull pins BuildLite's contract: every exported field and
// every query except the LCA implementation detail is identical to Build —
// including LCA answers themselves, which fall back to binary lifting.
func TestLiteMatchesFull(t *testing.T) {
	for _, n := range []int{2, 7, 64, 513} {
		net, err := topology.GenerateTree(topology.DefaultTreeConfig(n), rng.New(uint64(900+n)))
		if err != nil {
			t.Fatal(err)
		}
		full, err := Build(net)
		if err != nil {
			t.Fatal(err)
		}
		lite, err := BuildLite(net)
		if err != nil {
			t.Fatal(err)
		}
		if lite.sparse != nil || lite.euler != nil {
			t.Fatalf("n=%d: lite tree carries the Euler/sparse index", n)
		}
		for i := range full.Parent {
			if full.Parent[i] != lite.Parent[i] || full.Depth[i] != lite.Depth[i] ||
				full.DelayFromRoot[i] != lite.DelayFromRoot[i] ||
				full.tin[i] != lite.tin[i] || full.tout[i] != lite.tout[i] {
				t.Fatalf("n=%d: node %d structure diverges", n, i)
			}
			if len(full.Children[i]) != len(lite.Children[i]) {
				t.Fatalf("n=%d: node %d child count diverges", n, i)
			}
			for j := range full.Children[i] {
				if full.Children[i][j] != lite.Children[i][j] ||
					full.ChildLink[i][j] != lite.ChildLink[i][j] {
					t.Fatalf("n=%d: node %d child %d diverges", n, i, j)
				}
			}
		}
		for i := range full.Order {
			if full.Order[i] != lite.Order[i] {
				t.Fatalf("n=%d: preorder diverges at %d", n, i)
			}
		}
		// LCA agreement over every client pair: O(1) Euler RMQ vs O(log n)
		// binary lifting must answer identically.
		cs := full.Clients
		for i := 0; i < len(cs); i++ {
			for j := i; j < len(cs); j++ {
				if got, want := lite.LCA(cs[i], cs[j]), full.LCA(cs[i], cs[j]); got != want {
					t.Fatalf("n=%d: LCA(%d,%d) lite=%d full=%d", n, cs[i], cs[j], got, want)
				}
			}
		}
		// ChildToward agreement on proper ancestor pairs.
		for _, c := range cs {
			for a := full.Parent[c]; a != graph.None; a = full.Parent[a] {
				if got, want := lite.ChildToward(a, c), full.ChildToward(a, c); got != want {
					t.Fatalf("n=%d: ChildToward(%d,%d) lite=%d full=%d", n, a, c, got, want)
				}
			}
		}
	}
}

// TestPartitionDomains checks PartitionTree at recovery-domain sizes: with
// K = ⌈clients/target⌉ (clamped by PartitionTree) every client lands in
// exactly one domain, and — the worker-invariance anchor — the layout is a
// pure function of (tree, K), so repeated calls agree element for element.
func TestPartitionDomains(t *testing.T) {
	tr := partitionFixture(t, 300, 77)
	total := len(tr.Clients)
	for _, target := range []int{1, 7, 32, 64, 150, 299, 300, 1000} {
		k := (total + target - 1) / target
		p := PartitionTree(tr, k)
		if p.K != k {
			t.Fatalf("target=%d: K=%d, want %d", target, p.K, k)
		}
		counts := make([]int, p.K)
		for _, c := range tr.Clients {
			d := p.ShardOf[c]
			if d < 0 || int(d) >= p.K {
				t.Fatalf("target=%d: client %d in out-of-range domain %d", target, c, d)
			}
			counts[d]++
		}
		sum := 0
		for i, got := range counts {
			if got != p.Weights[i] {
				t.Fatalf("target=%d domain %d: weight %d, counted %d", target, i, p.Weights[i], got)
			}
			sum += got
		}
		if sum != total {
			t.Fatalf("target=%d: clients counted %d, want %d", target, sum, total)
		}
		q := PartitionTree(tr, k)
		if q.K != p.K || q.Lookahead != p.Lookahead {
			t.Fatalf("target=%d: repeated partition disagrees", target)
		}
		for i := range p.ShardOf {
			if p.ShardOf[i] != q.ShardOf[i] {
				t.Fatalf("target=%d: repeated partition maps node %d to %d then %d",
					target, i, p.ShardOf[i], q.ShardOf[i])
			}
		}
	}
	if p := PartitionTree(tr, 2*total); p.K != total {
		t.Fatalf("K above the group size should clamp to one-client domains: K=%d", p.K)
	}
}
