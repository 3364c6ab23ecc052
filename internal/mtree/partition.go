package mtree

import (
	"math"

	"rmcast/internal/graph"
)

// Partition splits a multicast tree into K shards for conservative parallel
// simulation (Chandy–Misra–Bryant style): each shard is a contiguous run of
// the preorder over the tree's routers, so a shard owns a band of recovery
// subtrees and cross-shard traffic only flows where the bands meet. Hosts
// are never separated from their access router — every host lives on its
// tree parent's shard — so access links are never cut and the lookahead is
// set by backbone delays.
type Partition struct {
	// K is the shard count.
	K int
	// ShardOf maps every node (host or router) to its shard. The tree root
	// — the source host — is always on shard 0. Off-tree nodes are parked
	// on shard 0; they carry no traffic in tree runs.
	ShardOf []int32
	// Lookahead is the minimum realised delay over every network link
	// (tree links and chords alike) whose endpoints lie on different
	// shards. Any packet observed by a remote shard crossed at least one
	// such link, so its arrival lies at least Lookahead past its send time
	// — the safe-time window width of the parallel runner. +Inf when no
	// link is cut (K == 1, or a degenerate partition).
	Lookahead float64
	// Weights counts the clients per shard, for balance diagnostics.
	Weights []int
}

// PartitionTree builds a K-shard partition of t. Routers are assigned by
// cumulative client weight along the preorder — router r goes to shard
// ⌊(clients preceding r)·K/total⌋ — which keeps shard indices nondecreasing
// along the preorder (contiguous bands) and client weights balanced to
// within one router's attachment count. Hosts inherit their tree parent's
// shard; the root (the source host itself) takes shard 0, and so does its
// only child, the backbone root router.
func PartitionTree(t *Tree, k int) *Partition {
	n := len(t.Parent)
	total := len(t.Clients)
	if k < 1 {
		k = 1
	}
	if k > total && total > 0 {
		k = total
	}
	p := &Partition{
		K:         k,
		ShardOf:   make([]int32, n),
		Lookahead: math.Inf(1),
		Weights:   make([]int, k),
	}
	if k == 1 {
		p.Weights[0] = total
		return p
	}

	cum := 0
	for _, u := range t.Order {
		if t.Net.IsClient(u) || u == t.Net.Source {
			// A host rides with its access router (the source, at the tree
			// root, has no parent and anchors shard 0). Its weight counts
			// only after assignment, so the band boundaries stay router
			// boundaries.
			if par := t.Parent[u]; par != graph.None {
				p.ShardOf[u] = p.ShardOf[par]
			}
			if t.Net.IsClient(u) {
				p.Weights[p.ShardOf[u]]++
				cum++
			}
			continue
		}
		sh := int32(cum * k / total)
		if sh > int32(k-1) {
			sh = int32(k - 1)
		}
		p.ShardOf[u] = sh
	}

	// Lookahead: scan every link — chords included, since unicast repairs
	// route over the full graph — for the cheapest cut crossing.
	for id := 0; id < t.Net.G.NumEdges(); id++ {
		e := t.Net.G.Edge(graph.EdgeID(id))
		if p.ShardOf[e.A] != p.ShardOf[e.B] && t.Net.Delay[id] < p.Lookahead {
			p.Lookahead = t.Net.Delay[id]
		}
	}
	return p
}
