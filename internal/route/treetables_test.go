package route

import (
	"math"
	"testing"

	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

// TestTreeTablesMatchesDijkstraOnTreeOnly: on a topology whose only links
// are tree links, the shortest-path metric IS the tree metric. Over every
// host pair of a 300-client tree (and every node's next hop toward every
// host), TreeTables must give the Dijkstra tables' exact next hops and hop
// counts, and their delays up to float rounding (within 1e-9 ms).
func TestTreeTablesMatchesDijkstraOnTreeOnly(t *testing.T) {
	net, err := topology.GenerateTree(topology.DefaultTreeConfig(300), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(net)
	tt := NewTreeTables(tree)
	dij := Build(net)
	if tt.Tree() != tree {
		t.Fatal("Tree() accessor broken")
	}
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9 }
	ends := append([]graph.NodeID{net.Source}, net.Clients...)
	for _, b := range ends {
		for v := 0; v < net.NumNodes(); v++ {
			cur := graph.NodeID(v)
			n1, e1 := tt.NextHop(cur, b)
			n2, e2 := dij.NextHop(cur, b)
			if n1 != n2 || e1 != e2 {
				t.Fatalf("NextHop(%d,%d): tree (%d,%d) dijkstra (%d,%d)", cur, b, n1, e1, n2, e2)
			}
		}
		for _, a := range ends {
			if h1, h2 := tt.Hops(a, b), dij.Hops(a, b); h1 != h2 {
				t.Fatalf("Hops(%d,%d): tree %d dijkstra %d", a, b, h1, h2)
			}
			if d1, d2 := tt.OneWayDelay(a, b), dij.OneWayDelay(a, b); !near(d1, d2) {
				t.Fatalf("OneWayDelay(%d,%d): tree %v dijkstra %v", a, b, d1, d2)
			}
			if r1, r2 := tt.RTT(a, b), dij.RTT(a, b); !near(r1, r2) {
				t.Fatalf("RTT(%d,%d): tree %v dijkstra %v", a, b, r1, r2)
			}
		}
	}
}

// TestDefaultPicksTreeTablesOnTreeOnly: Default routes on the tree exactly
// when every link is a tree link; one off-tree link brings back Dijkstra.
func TestDefaultPicksTreeTablesOnTreeOnly(t *testing.T) {
	gen, err := topology.GenerateTree(topology.DefaultTreeConfig(40), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	genTree := mtree.MustBuild(gen)
	r := Default(gen, genTree)
	if tt, ok := r.(*TreeTables); !ok || tt.Tree() != genTree {
		t.Fatalf("GenerateTree network: Default = %T, want *TreeTables over its tree", r)
	}
	build := func(shortcut bool) *topology.Network {
		b := topology.NewBuilder()
		s := b.Source()
		r1, r2 := b.Router(), b.Router()
		c1, c2 := b.Client(), b.Client()
		b.TreeLink(s, r1, 1)
		b.TreeLink(r1, r2, 2)
		b.TreeLink(r1, c1, 1)
		b.TreeLink(r2, c2, 1)
		if shortcut {
			b.Link(c1, c2, 10)
		}
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	tree := build(false)
	if _, ok := Default(tree, mtree.MustBuild(tree)).(*TreeTables); !ok {
		t.Fatal("tree-only Builder network: Default did not pick *TreeTables")
	}
	chorded := build(true)
	if tab, ok := Default(chorded, mtree.MustBuild(chorded)).(*Tables); !ok || tab.Network() != chorded {
		t.Fatal("network with an off-tree link: Default did not pick *Tables over it")
	}
}

// TestTreeTablesForwarding walks NextHop from a client to the source and to
// a peer, checking each step is a real tree link and the walk terminates
// with the right hop count.
func TestTreeTablesForwarding(t *testing.T) {
	net, err := topology.GenerateTree(topology.DefaultTreeConfig(60), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(net)
	tt := NewTreeTables(tree)
	walk := func(from, to graph.NodeID) int {
		hops := 0
		for cur := from; cur != to; {
			next, link := tt.NextHop(cur, to)
			if next == graph.None || link == graph.NoEdge {
				t.Fatalf("walk %d→%d stuck at %d", from, to, cur)
			}
			e := net.G.Edge(link)
			if e.Other(cur) != next {
				t.Fatalf("NextHop link %d does not join %d and %d", link, cur, next)
			}
			cur = next
			if hops++; hops > net.NumNodes() {
				t.Fatalf("walk %d→%d does not terminate", from, to)
			}
		}
		return hops
	}
	u, v := net.Clients[0], net.Clients[len(net.Clients)-1]
	if got, want := walk(u, net.Source), tt.Hops(u, net.Source); got != want {
		t.Fatalf("walk to source took %d hops, Hops says %d", got, want)
	}
	if got, want := walk(u, v), tt.Hops(u, v); got != want {
		t.Fatalf("walk to peer took %d hops, Hops says %d", got, want)
	}
	// Path endpoints and degenerate cases.
	p := tt.Path(u, v)
	if len(p) == 0 || p[0] != u || p[len(p)-1] != v {
		t.Fatalf("Path(%d,%d) = %v", u, v, p)
	}
	if n, e := tt.NextHop(u, u); n != graph.None || e != graph.NoEdge {
		t.Fatal("NextHop(u,u) not (None,NoEdge)")
	}
}

// TestTreeTablesOffTree covers hand-built networks with off-tree routers:
// queries involving them must degrade the same way unreachable destinations
// do, not panic (except the delay estimates, which mirror Tables' panic).
func TestTreeTablesOffTree(t *testing.T) {
	b := topology.NewBuilder()
	s := b.Source()
	r1 := b.Router()
	off := b.Router() // connected but not a tree member
	c := b.Client()
	b.TreeLink(s, r1, 1)
	b.TreeLink(r1, c, 1)
	b.Link(r1, off, 5)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree := mtree.MustBuild(net)
	tt := NewTreeTables(tree)
	if n, e := tt.NextHop(c, off); n != graph.None || e != graph.NoEdge {
		t.Fatal("NextHop to off-tree node should be (None,NoEdge)")
	}
	if p := tt.Path(c, off); p != nil {
		t.Fatalf("Path to off-tree node = %v, want nil", p)
	}
	if h := tt.Hops(c, off); h != -1 {
		t.Fatalf("Hops to off-tree node = %d, want -1", h)
	}
}
