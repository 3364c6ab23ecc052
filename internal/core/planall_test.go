package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// planners returns a planner per configuration the batch path must cover:
// the paper default, the restricted graph, a fixed timeout policy, and the
// loss-aware model.
func plannersUnderTest(t *testing.T, size int, seed uint64) []*Planner {
	t.Helper()
	net := topology.MustGenerate(topology.DefaultConfig(size), rng.New(seed))
	tree := mtree.MustBuild(net)
	rt := route.Build(net)
	def := NewPlanner(tree, rt)
	restricted := NewPlanner(tree, rt)
	restricted.AllowDirectSource = false
	fixed := NewPlanner(tree, rt)
	fixed.Timeout = FixedTimeout(120)
	aware := NewPlanner(tree, rt)
	aware.LossProb = 0.1
	return []*Planner{def, restricted, fixed, aware}
}

// TestPlanAllMatchesStrategyFor asserts the batch pass is field-for-field
// identical to the per-client path on every configuration.
func TestPlanAllMatchesStrategyFor(t *testing.T) {
	for _, seed := range []uint64{1, 2003} {
		for pi, p := range plannersUnderTest(t, 150, seed) {
			batch := p.PlanAll()
			if len(batch) != len(p.Tree.Clients) {
				t.Fatalf("planner %d: PlanAll returned %d strategies, want %d",
					pi, len(batch), len(p.Tree.Clients))
			}
			for _, u := range p.Tree.Clients {
				want := p.StrategyFor(u)
				if !reflect.DeepEqual(batch[u], want) {
					t.Fatalf("planner %d seed %d: PlanAll[%d] = %v, StrategyFor = %v",
						pi, seed, u, batch[u], want)
				}
			}
		}
	}
}

// TestPlanAllRepeatable asserts two batch passes over the same planner give
// identical results (the scratch reuse must not leak state across calls).
func TestPlanAllRepeatable(t *testing.T) {
	for _, p := range plannersUnderTest(t, 120, 7) {
		a, b := p.PlanAll(), p.PlanAll()
		if !reflect.DeepEqual(a, b) {
			t.Fatal("PlanAll not repeatable")
		}
	}
}

// TestPlanAllEpochWrap asserts the scan's class table survives its epoch
// stamp wrapping to zero, which a long-lived roster can reach: a wrapped
// stamp must not match marks it never wrote.
func TestPlanAllEpochWrap(t *testing.T) {
	ps := plannersUnderTest(t, 80, 3)
	want := ps[0].PlanAll()
	p := NewPlanner(ps[0].Tree, ps[0].Routes)
	p.batchState()
	p.sc.epoch = math.MaxUint32
	if !reflect.DeepEqual(p.PlanAll(), want) {
		t.Fatal("PlanAll changed across the epoch wrap")
	}
}

// BenchmarkPlanAll measures batch planning. The chords cell is the historic
// benchmark (default chorded topology, which falls back to the peer scan);
// the scan/tree pair at n=5000 clients is the acceptance comparison for the
// tree-aggregated path: identical topology and router, only the path
// differs.
func BenchmarkPlanAll(b *testing.B) {
	b.Run("chords/n=300", func(b *testing.B) {
		net := topology.MustGenerate(topology.DefaultConfig(300), rng.New(1))
		tree := mtree.MustBuild(net)
		p := NewPlanner(tree, route.Build(net))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = p.PlanAll()
		}
	})
	for _, mode := range []string{"scan", "tree"} {
		b.Run(mode+"/n=5000", func(b *testing.B) {
			net := topology.MustGenerateTree(topology.DefaultTreeConfig(5000), rng.New(1))
			tree := mtree.MustBuild(net)
			p := NewPlanner(tree, route.NewTreeTables(tree))
			p.DisableFastPath = mode == "scan"
			out := p.PlanAll() // warm scratch and result map
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PlanAllInto(out)
			}
		})
	}
}

// BenchmarkPlanAllLarge is the scaling tier's micro counterpart: steady-
// state full replans on the fast path at the sweep's client counts.
func BenchmarkPlanAllLarge(b *testing.B) {
	for _, n := range []int{1000, 5000, 20000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := topology.MustGenerateTree(topology.DefaultTreeConfig(n), rng.New(1))
			tree := mtree.MustBuild(net)
			p := NewPlanner(tree, route.NewTreeTables(tree))
			if !p.UsesFastPath() {
				b.Fatal("expected fast path")
			}
			out := p.PlanAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PlanAllInto(out)
			}
		})
	}
}
