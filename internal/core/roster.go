package core

import (
	"fmt"

	"rmcast/internal/graph"
)

// Roster maintains recovery strategies for a multicast group under
// membership churn. The paper computes strategies once for a static group;
// in a deployment, members come and go, and recomputing every client's
// strategy graph on every change replans all k members. The roster keeps,
// per client, the peers that currently win its competitive classes, so that
//
//   - a LEAVING member invalidates only the clients whose lists contain it
//     as a class winner (it can never affect anyone else: Lemma 4 admits
//     only class winners into optimal lists), and
//   - a JOINING member invalidates only the clients for which it beats (or
//     creates) the winner of its own class.
//
// Every other client's strategy is provably unchanged, so churn replans
// only the affected clients. A replan is the planner's own single pass
// (classWinners then finishPlan, see planall.go) restricted to the active
// members. Tests verify the incremental results equal full recomputation
// after arbitrary churn.
type Roster struct {
	p *Planner
	// active is the dense membership set, indexed by NodeID (the roster's
	// churn unit is a tree client, so node-indexed beats a hash map: O(1)
	// with no hashing, and iteration rides Tree.Clients in canonical order).
	active      []bool
	activeCount int
	// strategies holds the current plan per active client.
	strategies map[graph.NodeID]*Strategy
	// winners[u] lists u's current class winners in descending-DS order,
	// empty for inactive nodes. A client's classes are keyed by distinct
	// routers on its root path, so each meet appears at most once, and
	// Leave/Join find the affected clients by walking node IDs in order.
	winners [][]Candidate
	// recomputes counts strategy recomputations (observability/testing).
	recomputes int
	// epoch counts successfully applied membership changes since
	// construction. It is the roster's logical clock: two rosters that
	// applied the same churn sequence agree on it, and snapshot publishers
	// stamp it next to their own version so service output is correlatable
	// with plan state.
	epoch uint64
	// agg, when non-nil, is a membership-tracking tree aggregate (see
	// treeagg.go): each replan then reads its candidates off the client's
	// root path in O(depth) instead of scanning every active member, and a
	// join/leave repairs only the O(depth) aggregate nodes above the
	// churned client. nil when the planner configuration requires the scan
	// (see computeFastMode); both paths produce identical strategies.
	agg  *treeAgg
	mode fastMode
	// sc is the roster's own planning scratch, separate from the planner's
	// batch scratch.
	sc *planScratch
}

// NewRoster creates a roster over the planner's full client set, all
// initially active.
func NewRoster(p *Planner) *Roster {
	return NewRosterActive(p, p.Tree.Clients)
}

// NewRosterActive creates a roster whose initial membership is the given
// client subset. NewRosterActive(p, p.Tree.Clients) ≡ NewRoster(p); a
// fresh roster over a membership is the ground truth the incremental churn
// path must match. Construction is O(k·depth) on fast-mode planners (one
// aggregate build plus one replan per member), not O(k·depth) per
// *excluded* member: the aggregate is built directly from the subset
// rather than by leaving members one at a time.
func NewRosterActive(p *Planner, members []graph.NodeID) *Roster {
	n := len(p.Tree.Parent)
	r := &Roster{
		p:          p,
		active:     make([]bool, n),
		strategies: make(map[graph.NodeID]*Strategy),
		winners:    make([][]Candidate, n),
		sc:         newPlanScratch(n),
	}
	for _, c := range members {
		if !p.Tree.Net.IsClient(c) {
			panic(fmt.Sprintf("core: roster member %d is not a client", c))
		}
		if r.active[c] {
			continue
		}
		r.active[c] = true
		r.activeCount++
	}
	if r.mode = p.computeFastMode(); r.mode != fastOff {
		r.agg = newTreeAggActive(p.Tree, r.active)
	}
	for _, c := range p.Tree.Clients {
		if r.active[c] {
			r.replan(c)
		}
	}
	return r
}

// Active reports whether a client is currently a group member.
func (r *Roster) Active(c graph.NodeID) bool {
	return int(c) >= 0 && int(c) < len(r.active) && r.active[c]
}

// Strategy returns the current strategy of an active client (nil for
// inactive or unknown nodes).
func (r *Roster) Strategy(c graph.NodeID) *Strategy { return r.strategies[c] }

// Recomputes returns the number of per-client strategy recomputations
// performed since construction (including the initial k).
func (r *Roster) Recomputes() int { return r.recomputes }

// replan recomputes one client's strategy over the active members and
// records its class winners. The Strategy is always a fresh one, so
// strategies already handed out stay frozen.
func (r *Roster) replan(u graph.NodeID) {
	r.p.classWinners(u, r.active, r.agg, r.mode, r.sc)
	r.strategies[u] = r.p.finishPlan(u, r.sc, nil)
	r.winners[u] = append(r.winners[u][:0], r.sc.cands...)
	r.recomputes++
}

// Leave removes a member and incrementally repairs the affected strategies.
// It returns the clients whose strategies were recomputed, in ascending
// node order.
func (r *Roster) Leave(v graph.NodeID) ([]graph.NodeID, error) {
	if !r.Active(v) {
		return nil, fmt.Errorf("core: %d is not an active member", v)
	}
	r.active[v] = false
	r.activeCount--
	r.epoch++
	delete(r.strategies, v)
	r.winners[v] = r.winners[v][:0]
	if r.agg != nil {
		r.agg.setActive(v, false)
	}
	var affected []graph.NodeID
	for u, classes := range r.winners {
		for _, w := range classes {
			if w.Peer == v {
				affected = append(affected, graph.NodeID(u))
				break
			}
		}
	}
	for _, u := range affected {
		r.replan(u)
	}
	return affected, nil
}

// Join (re-)activates a member and incrementally repairs the affected
// strategies: clients for which v beats or creates its class winner, plus
// v itself. It returns the clients whose strategies were recomputed
// (excluding v), in ascending node order.
func (r *Roster) Join(v graph.NodeID) ([]graph.NodeID, error) {
	if r.Active(v) {
		return nil, fmt.Errorf("core: %d is already active", v)
	}
	if v < 0 || int(v) >= len(r.active) || !r.p.Tree.Net.IsClient(v) {
		return nil, fmt.Errorf("core: %d is not a client of this tree", v)
	}
	r.active[v] = true
	r.activeCount++
	r.epoch++
	if r.agg != nil {
		r.agg.setActive(v, true)
	}
	pol := r.p.timeout()
	var affected []graph.NodeID
	for i, classes := range r.winners {
		u := graph.NodeID(i)
		if u == v || !r.active[u] {
			continue
		}
		meet := r.p.Tree.LCA(u, v)
		cand := r.p.candidateOf(u, meet, v, pol)
		hit := true // v creates u's class at meet unless it already has a winner
		for _, cur := range classes {
			if cur.Meet == meet {
				hit = beats(r.p.attemptCost(u, cand), r.p.attemptCost(u, cur), v, cur.Peer)
				break
			}
		}
		if hit {
			affected = append(affected, u)
		}
	}
	for _, u := range affected {
		r.replan(u)
	}
	r.replan(v)
	return affected, nil
}

// Strategies returns a copy of the current strategy map: the map is fresh
// on every call, so later Join/Leave churn cannot mutate it under a caller
// that snapshots it. The *Strategy values are shared but immutable — replan
// always builds a new Strategy rather than updating the old one in place
// (the property snapshot immutability tests pin down). Callers that want
// the live view — incremental replans visible without re-copying — use
// StrategiesLive.
func (r *Roster) Strategies() map[graph.NodeID]*Strategy {
	out := make(map[graph.NodeID]*Strategy, len(r.strategies))
	for c, s := range r.strategies {
		out[c] = s
	}
	return out
}

// StrategiesLive returns the roster's internal strategy map. It ALIASES
// live state: Join/Leave mutate it in place, which is exactly what the
// resilient RP engine wants (its failure detector replans into the roster
// at run time and reads strategies through one long-held map). Do not
// publish it across goroutines; snapshotters use Strategies or
// StrategiesDense instead.
func (r *Roster) StrategiesLive() map[graph.NodeID]*Strategy { return r.strategies }

// StrategiesDense writes the active clients' strategies into a dense slice
// indexed by client position in Tree.Clients — the same canonical layout as
// Planner.PlanAllDense — with nil at inactive positions. out is reused when
// large enough (len ≥ len(Tree.Clients)); nil allocates. Snapshot
// publishers pass a fresh slice per publish so old snapshots stay frozen.
func (r *Roster) StrategiesDense(out []*Strategy) []*Strategy {
	clients := r.p.Tree.Clients
	if len(out) < len(clients) {
		out = make([]*Strategy, len(clients))
	} else {
		out = out[:len(clients)]
	}
	for i, c := range clients {
		if r.active[c] {
			out[i] = r.strategies[c]
		} else {
			out[i] = nil
		}
	}
	return out
}

// OccupancyDense writes the membership flags in the same dense
// client-position layout as StrategiesDense. out is reused when large
// enough; nil allocates.
func (r *Roster) OccupancyDense(out []bool) []bool {
	clients := r.p.Tree.Clients
	if len(out) < len(clients) {
		out = make([]bool, len(clients))
	} else {
		out = out[:len(clients)]
	}
	for i, c := range clients {
		out[i] = r.active[c]
	}
	return out
}

// ActiveCount returns the number of current members.
func (r *Roster) ActiveCount() int { return r.activeCount }

// Epoch returns the number of successfully applied membership changes since
// construction (0 for a fresh roster). Strictly monotonic under churn.
func (r *Roster) Epoch() uint64 { return r.epoch }
