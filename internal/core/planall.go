package core

import "rmcast/internal/graph"

// This file is the single planning pass behind PlanAll and core.Roster.
// Per client it computes the competitive-class winners (Lemma 4), puts them
// in descending-DS order (Lemma 5), then runs Algorithm 1 or the loss-aware
// DP; per client the result is identical to StrategyFor. classWinners has
// two ways to find the winners, chosen once per planner or roster:
//
//   - Tree aggregate (computeFastMode != fastOff): every candidate class of
//     u is keyed by a meet router on u's root path, and the class winner is
//     an O(1) lookup in the index of treeagg.go, so one client plans in
//     O(depth) and the whole batch in O(N·depth) instead of O(N²). The
//     candidate list falls out already in descending-DS order (ancestors
//     have strictly decreasing depth). Tests fuzz this against the scan
//     across configurations and topologies.
//   - Peer scan (every other configuration, or DisableFastPath): each
//     active peer is tested against the winner of its class, held in a
//     dense epoch-stamped table indexed by meet router; LCA queries hit the
//     O(1) Euler-tour table.
//
// Both build candidates through candidateOf, so RTT/Timeout fields match
// field for field, and finishPlan is the one strategy-graph and solver
// tail. The batch shares all scratch state across clients; a roster owns
// its own scratch and always asks finishPlan for a fresh Strategy, so the
// strategies it publishes are never written again.
//
// Exactness caveat: the aggregate ranks by DelayFromRoot while the scan
// compares summed float costs. With integer (or any dyadic) link delays the
// two are exactly equivalent; with continuous random delays a divergence
// requires two distinct real delays to collapse to the same float sum,
// which has probability zero. Only adversarial non-dyadic delay sets can
// tell the paths apart, and then only by swapping equal-cost winners.
//
// The harness plans every client of every topology of every sweep cell, so
// this path is what BenchmarkPlannerAll measures and what the RP engines
// call at session construction.

// planScratch holds the buffers one planner's batch (or one roster) shares
// across clients.
type planScratch struct {
	// mark/classIdx form the epoch-stamped class-winner table: classIdx[r]
	// is the index in cands of the current winner of meet router r, valid
	// only when mark[r] == epoch.
	mark     []uint32
	classIdx []int32
	epoch    uint32
	// cands is the reused candidate buffer.
	cands []Candidate
	// dist/parent/rev back algorithm1; W/choice back optimalDP.
	dist   []float64
	parent []int
	rev    []int
	W      []float64
	choice []int
}

func newPlanScratch(nodes int) *planScratch {
	return &planScratch{
		mark:     make([]uint32, nodes),
		classIdx: make([]int32, nodes),
	}
}

// batchState lazily builds the planner's shared batch machinery: the
// scratch buffers, the fast-path eligibility decision, and (when eligible)
// the tree aggregate over the full client set. The decision is made once —
// Tree/Routes/Timeout/LossProb must not change after the first batch call.
func (p *Planner) batchState() {
	if p.sc == nil {
		p.sc = newPlanScratch(len(p.Tree.Depth))
	}
	if !p.modeSet {
		p.mode = p.computeFastMode()
		p.modeSet = true
		if p.mode != fastOff {
			p.agg = newTreeAgg(p.Tree)
		}
	}
}

// UsesFastPath reports whether batch planning uses the tree-aggregated
// near-linear path (as opposed to the O(N²) peer scan). Diagnostic; the
// result is fixed at the first batch planning call.
func (p *Planner) UsesFastPath() bool {
	p.batchState()
	return p.mode != fastOff
}

// PlanAll computes strategies for every client in one batch pass. The
// result is identical (field for field) to calling StrategyFor per client;
// tests assert this across planner configurations.
func (p *Planner) PlanAll() map[graph.NodeID]*Strategy {
	return p.PlanAllInto(nil)
}

// PlanAllInto is PlanAll writing into a caller-retained result map: map
// entries and their Strategy values (including Peers backing arrays) are
// updated in place, so steady-state replanning — the RP session attach
// path, sweep cells over the same topology — allocates nothing. A nil map
// behaves like PlanAll. The returned map is the input map.
func (p *Planner) PlanAllInto(out map[graph.NodeID]*Strategy) map[graph.NodeID]*Strategy {
	if out == nil {
		out = make(map[graph.NodeID]*Strategy, len(p.Tree.Clients))
	}
	p.batchState()
	for _, u := range p.Tree.Clients {
		p.classWinners(u, nil, p.agg, p.mode, p.sc)
		out[u] = p.finishPlan(u, p.sc, out[u])
	}
	return out
}

// PlanAllDense is PlanAll into a dense slice indexed by client position in
// Tree.Clients: no map, no per-lookup hashing. The million-client tier uses
// it — at n=1,000,000 a strategy map costs hundreds of MB of buckets and its
// iteration order forces a sort anywhere determinism matters, while the
// dense form is one flat allocation in the tree's canonical client order.
func (p *Planner) PlanAllDense() []*Strategy { return p.PlanAllDenseInto(nil) }

// PlanAllDenseInto is PlanAllDense writing into a caller-retained slice
// (len ≥ len(Tree.Clients)); entries are updated in place like PlanAllInto.
// A nil slice behaves like PlanAllDense.
func (p *Planner) PlanAllDenseInto(out []*Strategy) []*Strategy {
	if out == nil {
		out = make([]*Strategy, len(p.Tree.Clients))
	}
	p.batchState()
	for i, u := range p.Tree.Clients {
		p.classWinners(u, nil, p.agg, p.mode, p.sc)
		out[i] = p.finishPlan(u, p.sc, out[i])
	}
	return out
}

// candidateOf materialises the class-winner candidate for client u at meet
// router meet. Every candidate classWinners builds comes through here, so
// both of its branches carry bit-identical RTT/Timeout fields. meet is
// always LCA(u, v) at every call site — the scan computes it, the aggregate
// read takes it off the root path — so meetRTT may shortcut the route query.
func (p *Planner) candidateOf(u, meet, v graph.NodeID, pol TimeoutPolicy) Candidate {
	rtt := p.meetRTT(u, v, meet)
	return Candidate{
		Peer:    v,
		Meet:    meet,
		DS:      p.Tree.Depth[meet],
		RTT:     rtt,
		Timeout: pol.Timeout(rtt),
		Priv:    p.Tree.Depth[v] - p.Tree.Depth[meet],
	}
}

// beats reports whether class member cand, with expected attempt cost cc,
// displaces the class's current winner cur, of cost pc: cheapest cost, ties
// by lower peer ID (Lemma 4 admits one winner per class).
func beats(cc, pc float64, cand, cur graph.NodeID) bool {
	return cc < pc || (cc == pc && cand < cur)
}

// classWinners fills sc.cands with client u's competitive-class winners
// among the active clients (active == nil: every client), unsorted.
//
// With a tree aggregate (agg != nil, built for mode) the meet routers of u
// are exactly the nodes of its root path (u itself when peers sit below
// it), and each winner is an O(1) lookup excluding the branch u hangs
// under; the aggregate tracks membership, so active is not consulted.
// Otherwise every active peer is scanned into the epoch-stamped class
// table, each class keeping its winner under beats.
func (p *Planner) classWinners(u graph.NodeID, active []bool, agg *treeAgg, mode fastMode, sc *planScratch) {
	pol := p.timeout()
	t := p.Tree
	sc.cands = sc.cands[:0]
	if agg != nil {
		// Descendant class first (meet == u): peers strictly below u. Its
		// conditional loss probability is 1, so under constant-cost policies
		// (fastKeyPeerSelf) the scan's tie-break degenerates to min peer ID.
		self := &agg.byKey[u]
		if mode == fastKeyPeerSelf {
			self = &agg.byPeer[u]
		}
		if e := bestExcluding(self, aggSelf); e.peer != graph.None {
			sc.cands = append(sc.cands, p.candidateOf(u, u, e.peer, pol))
		}
		// Ancestor classes, deepest first: exclude the branch leading to u.
		for x := u; t.Parent[x] != graph.None; x = t.Parent[x] {
			r := t.Parent[x]
			if e := bestExcluding(&agg.byKey[r], agg.childPos[x]); e.peer != graph.None {
				sc.cands = append(sc.cands, p.candidateOf(u, r, e.peer, pol))
			}
		}
		return
	}
	// A wrapped epoch would match stale marks; a long-lived roster can get
	// there, so start the table over.
	if sc.epoch++; sc.epoch == 0 {
		clear(sc.mark)
		sc.epoch = 1
	}
	for _, v := range t.Clients {
		if v == u || (active != nil && !active[v]) {
			continue
		}
		meet := t.LCA(u, v)
		cand := p.candidateOf(u, meet, v, pol)
		if sc.mark[meet] != sc.epoch {
			sc.mark[meet] = sc.epoch
			sc.classIdx[meet] = int32(len(sc.cands))
			sc.cands = append(sc.cands, cand)
			continue
		}
		cur := &sc.cands[sc.classIdx[meet]]
		if beats(p.attemptCost(u, cand), p.attemptCost(u, *cur), v, cur.Peer) {
			*cur = cand
		}
	}
}

// finishPlan turns the class winners in sc.cands into u's strategy:
// candidate order (sc.cands is left sorted), strategy graph, and the
// shortest-path solver over the shared scratch. into, when non-nil, is
// updated in place; nil allocates a fresh Strategy.
func (p *Planner) finishPlan(u graph.NodeID, sc *planScratch, into *Strategy) *Strategy {
	pol := p.timeout()
	sortCandidates(sc.cands)
	srcRTT := p.Routes.RTT(u, p.Tree.Root)
	sg := &StrategyGraph{
		Client:            u,
		ClientDepth:       p.Tree.Depth[u],
		Candidates:        sc.cands,
		SourceRTT:         srcRTT,
		SourceTimeout:     pol.Timeout(srcRTT),
		AllowDirectSource: p.AllowDirectSource,
	}
	// Grow the shortest-path scratch once; the solvers reslice it.
	if need := len(sc.cands) + 2; cap(sc.dist) < need {
		sc.dist = make([]float64, need)
		sc.parent = make([]int, need)
		sc.rev = make([]int, need)
		sc.W = make([]float64, need)
		sc.choice = make([]int, need)
	}
	if p.LossProb > 0 {
		return sg.optimalDP(1-p.LossProb, sc.W, sc.choice, into)
	}
	return sg.algorithm1(sc.dist, sc.parent, sc.rev, into)
}
