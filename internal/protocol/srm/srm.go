// Package srm implements the SRM baseline (Floyd et al., reference [17] of
// the paper) at the fidelity the paper's comparison requires: when a
// receiver detects a loss it arms a request-suppression timer drawn from
// U[C1·d, (C1+C2)·d] (d = its one-way delay estimate to the source); if the
// timer expires without having seen another member's request for the same
// packet it multicasts a NACK to the whole group. Any member holding the
// packet that sees a NACK arms a repair-suppression timer drawn from
// U[D1·d', (D1+D2)·d'] (d' = distance to the requester) and multicasts the
// repair if no other repair appears first. Receivers that see a foreign
// NACK for a packet they also miss suppress their own request and back off
// exponentially, re-requesting if the repair never arrives.
//
// As the paper notes (§1), the suppression timers bound duplicate NACKs and
// repairs but add multiples of the one-way delay to every recovery, and the
// global multicasts charge the entire tree — both effects are what Figures
// 5–8 measure against RP.
package srm

import (
	"math"

	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/sim"
)

// Options holds the SRM timer constants. The defaults (C1=C2=2, D1=D2=1)
// are the canonical values from the SRM literature; the paper does not
// override them.
type Options struct {
	C1, C2 float64 // request timer window, in units of d(member, source)
	D1, D2 float64 // repair timer window, in units of d(member, requester)
	// MaxBackoff caps the exponential request backoff exponent.
	MaxBackoff int
	// IgnoreFactor is SRM's repair ignore-window: a member that saw a
	// repair for seq within IgnoreFactor·d(member, requester) ignores
	// NACKs for seq — they were sent before that repair could have
	// reached their senders. Without it, every stale NACK from a slow
	// loser re-triggers repair floods across all holders. ≤ 0 disables.
	IgnoreFactor float64
	// GlobalSuppression enables the paper's idealised SRM cost model:
	// at most one repair flood per lost packet per network-diameter
	// window ("the total bandwidth usage for SRM for recovering each
	// packet is fixed", §5.2). Distributed SRM only approximates this —
	// equidistant holders race their repair timers and duplicate — so
	// disabling it yields the honest (chattier) protocol measured by the
	// SRM-HONEST ablation.
	GlobalSuppression bool
	// Adaptive enables the adaptive timer adjustment of Floyd et al.:
	// each member widens its request/repair windows when it observes
	// duplicate NACKs/repairs for losses it participated in, and narrows
	// them when rounds complete without duplication. The adaptation is
	// per member and multiplicative, bounded to [1, MaxAdapt]× the base
	// constants.
	Adaptive bool
	// MaxAdapt bounds the adaptive multiplier (default 8).
	MaxAdapt float64
}

// DefaultOptions returns the canonical SRM constants.
func DefaultOptions() Options {
	return Options{C1: 2, C2: 2, D1: 1, D2: 1, MaxBackoff: 8, IgnoreFactor: 3,
		GlobalSuppression: true, MaxAdapt: 8}
}

// Engine is the SRM protocol engine.
//
// Per-(host,seq) state is dense: the session validates every control
// packet's host and sequence range before dispatch, so slices indexed by
// host·packets+seq replace the hash maps the hot path used to thrash.
type Engine struct {
	opt Options
	s   *protocol.Session

	// packets sizes the dense (host,seq) index, fixed at Attach.
	packets int
	req     []reqState  // per (client,seq); active = a missing packet in recovery
	nreq    int         // active req entries, for PendingRequests
	rep     []sim.Timer // per (holder,seq) armed repair timer; zero = none
	// lastRepair records when a host last saw (or sent) a repair for a
	// seq, for the ignore window. NaN = never.
	lastRepair []float64
	// lastFlood records the last repair-flood time per seq (global
	// suppression; NaN = never); diameter is the suppression window.
	lastFlood []float64
	diameter  float64
	// Adaptive-timer state, per member: multiplicative widening factors
	// for the request and repair windows, and duplicate observations.
	reqScale map[graph.NodeID]float64
	repScale map[graph.NodeID]float64
	// reqSeen/repSeen count the NACK/repair floods a member observed per
	// seq it cared about, to detect duplication.
	reqSeen []int32
	repSeen []int32
	// seen suppresses duplicated NACKs: a repeat of (requester, seq) at a
	// host within half the minimum request-timer spacing is a message-plane
	// duplicate, not a backoff retransmission, and must not inflate the
	// adaptive duplicate counters or re-arm repair timers.
	seen *protocol.DedupCache
}

// dedupCacheSize bounds the NACK dedup cache; eviction only ever lets a
// duplicate through again (see protocol.DedupCache).
const dedupCacheSize = 8192

type reqState struct {
	timer   sim.Timer
	backoff int32
	// active marks a packet the client is recovering.
	active bool
	// parked marks a request whose owner is crashed: no timer runs until
	// OnRecover resumes it (a permanently crashed owner would otherwise
	// re-arm its NACK timer forever and the run could never quiesce).
	parked bool
}

// Timer opcodes (sim.Callee): both carry (host, seq).
const (
	opRequest = iota
	opRepair
)

// nack is the payload of an SRM request multicast.
type nack struct {
	Requester graph.NodeID
}

// New returns an SRM engine.
func New(opt Options) *Engine {
	if opt.MaxBackoff <= 0 {
		opt.MaxBackoff = 8
	}
	return &Engine{
		opt:      opt,
		reqScale: make(map[graph.NodeID]float64),
		repScale: make(map[graph.NodeID]float64),
		seen:     protocol.NewDedupCache(dedupCacheSize),
	}
}

// Name implements protocol.Engine.
func (e *Engine) Name() string { return "SRM" }

// Attach implements protocol.Engine.
func (e *Engine) Attach(s *protocol.Session) {
	e.s = s
	// Network diameter bound: twice the deepest root-to-leaf delay. Used
	// as the global-suppression window.
	var deep float64
	for _, c := range s.Clients() {
		if d := s.Tree.DelayFromRoot[c]; d > deep {
			deep = d
		}
	}
	e.diameter = 2 * deep
	// Size the dense per-(host,seq) state now that both bounds are known.
	e.packets = s.Config().Packets
	cells := s.Topo.NumNodes() * e.packets
	e.req = make([]reqState, cells)
	e.rep = make([]sim.Timer, cells)
	e.reqSeen = make([]int32, cells)
	e.repSeen = make([]int32, cells)
	e.lastRepair = make([]float64, cells)
	for i := range e.lastRepair {
		e.lastRepair[i] = math.NaN()
	}
	e.lastFlood = make([]float64, e.packets)
	for i := range e.lastFlood {
		e.lastFlood[i] = math.NaN()
	}
}

// idx maps a validated (host, seq) pair onto the dense state index.
func (e *Engine) idx(h graph.NodeID, seq int) int { return int(h)*e.packets + seq }

// OnDetect implements protocol.Engine: arm the initial request timer.
// Monotonic guard: a packet the client already holds never (re-)enters the
// request machine, whatever duplicated or reordered signal suggested it.
func (e *Engine) OnDetect(c graph.NodeID, seq int) {
	rs := &e.req[e.idx(c, seq)]
	if rs.active {
		return
	}
	if !e.s.Missing(c, seq) {
		return
	}
	*rs = reqState{active: true}
	e.nreq++
	e.armRequest(c, seq, rs)
}

// scaleOf returns a member's adaptive widening factor from the given map.
func (e *Engine) scaleOf(m map[graph.NodeID]float64, host graph.NodeID) float64 {
	if !e.opt.Adaptive {
		return 1
	}
	if s, ok := m[host]; ok {
		return s
	}
	return 1
}

// adapt nudges a member's widening factor: duplicates observed → widen
// (×1.5); a clean round → narrow (×0.95), bounded to [1, MaxAdapt].
func (e *Engine) adapt(m map[graph.NodeID]float64, host graph.NodeID, dups int) {
	if !e.opt.Adaptive {
		return
	}
	s := e.scaleOf(m, host)
	if dups > 0 {
		s *= 1.5
	} else {
		s *= 0.95
	}
	maxA := e.opt.MaxAdapt
	if maxA <= 1 {
		maxA = 8
	}
	if s < 1 {
		s = 1
	}
	if s > maxA {
		s = maxA
	}
	m[host] = s
}

// armRequest draws the suppression timer U[C1·d, (C1+C2)·d]·2^backoff
// (widened by the member's adaptive factor) and schedules the NACK.
func (e *Engine) armRequest(c graph.NodeID, seq int, rs *reqState) {
	if !e.s.Alive(c) {
		rs.parked = true
		return
	}
	d := e.s.Routes.OneWayDelay(c, e.s.Topo.Source)
	if d <= 0 {
		d = 1
	}
	scale := float64(int64(1)<<uint(rs.backoff)) * e.scaleOf(e.reqScale, c)
	delay := (e.opt.C1 + e.opt.C2*e.s.Rand.Float64()) * d * scale
	rs.timer = e.s.Eng.NewTimerCall(delay, e, opRequest, int(c), seq)
}

// OnSimEvent implements sim.Callee: the request and repair timers.
func (e *Engine) OnSimEvent(op, a, b int) {
	switch op {
	case opRequest:
		e.fireRequest(graph.NodeID(a), b)
	case opRepair:
		e.fireRepair(graph.NodeID(a), b)
	}
}

// fireRequest multicasts the NACK and re-arms with backoff, so a lost
// repair (or lost NACK) eventually triggers another round. Only the
// request's current timer acts: Fired is true for the timer that is firing.
func (e *Engine) fireRequest(c graph.NodeID, seq int) {
	rs := &e.req[e.idx(c, seq)]
	if !rs.active || rs.parked || !rs.timer.Fired() {
		return
	}
	if !e.s.Missing(c, seq) {
		rs.active = false
		e.nreq--
		return
	}
	e.s.Net.FloodTree(sim.Packet{
		Kind: sim.Request, Seq: seq, From: c, Payload: nack{Requester: c},
	})
	if int(rs.backoff) < e.opt.MaxBackoff {
		rs.backoff++
	}
	e.armRequest(c, seq, rs)
}

// OnPacket implements protocol.Engine.
func (e *Engine) OnPacket(host graph.NodeID, pkt sim.Packet) {
	switch pkt.Kind {
	case sim.Request:
		pay, ok := pkt.Payload.(nack)
		if !ok {
			e.s.NoteMalformed()
			return
		}
		e.onNACK(host, pkt.Seq, pay.Requester)
	case sim.Repair:
		// Repair suppression: cancel our own pending repair for this seq
		// and open the ignore window for stale NACKs.
		i := e.idx(host, pkt.Seq)
		e.lastRepair[i] = e.s.Eng.Now()
		e.repSeen[i]++
		if t := e.rep[i]; t.Valid() {
			t.Stop()
			e.rep[i] = sim.Timer{}
			// We were about to repair and someone beat us: if this is
			// the 2nd+ repair we see, the repair window is too tight.
			e.adapt(e.repScale, host, int(e.repSeen[i])-1)
		}
		// If we were a requester, the session has marked us recovered;
		// drop the request state and adapt on observed NACK duplication.
		if rs := &e.req[i]; rs.active && !e.s.Missing(host, pkt.Seq) {
			rs.timer.Stop()
			rs.active = false
			e.nreq--
			e.adapt(e.reqScale, host, int(e.reqSeen[i])-1)
		}
	}
}

// onNACK handles a foreign request seen at host. Legitimate NACK rounds for
// one requester are spaced at least C1·d apart (the request timer's lower
// edge, before backoff widens it), so a repeat inside half that window is a
// duplicated packet and is dropped before it can touch suppression or
// adaptive state.
func (e *Engine) onNACK(host graph.NodeID, seq int, requester graph.NodeID) {
	if !e.s.IsClient(requester) {
		e.s.NoteMalformed()
		return
	}
	d0 := e.s.Routes.OneWayDelay(requester, e.s.Topo.Source)
	if d0 <= 0 {
		d0 = 1
	}
	if e.seen.Seen(host, requester, seq, e.s.Eng.Now(), 0.5*e.opt.C1*d0) {
		return
	}
	i := e.idx(host, seq)
	e.reqSeen[i]++
	if e.s.Has(host, seq) {
		// Candidate repairer: arm a repair-suppression timer unless one
		// is already pending for this seq.
		if e.rep[i].Valid() {
			return
		}
		d := e.s.Routes.OneWayDelay(host, requester)
		if d <= 0 {
			d = 1
		}
		// Ignore window: a recent repair makes this NACK stale.
		if e.opt.IgnoreFactor > 0 {
			if at := e.lastRepair[i]; !math.IsNaN(at) && e.s.Eng.Now()-at < e.opt.IgnoreFactor*d {
				return
			}
		}
		delay := (e.opt.D1 + e.opt.D2*e.s.Rand.Float64()) * d * e.scaleOf(e.repScale, host)
		e.rep[i] = e.s.Eng.NewTimerCall(delay, e, opRepair, int(host), seq)
		return
	}
	// Request suppression: we miss it too and someone already asked —
	// back off our own request and wait for the shared repair.
	if rs := &e.req[i]; rs.active && rs.timer.Stop() {
		if int(rs.backoff) < e.opt.MaxBackoff {
			rs.backoff++
		}
		e.armRequest(host, seq, rs)
	}
}

// fireRepair multicasts the repair to the whole group.
func (e *Engine) fireRepair(host graph.NodeID, seq int) {
	i := e.idx(host, seq)
	if !e.rep[i].Fired() {
		return
	}
	e.rep[i] = sim.Timer{}
	if !e.s.Has(host, seq) {
		return // defensive: cannot repair what we do not hold
	}
	if !e.s.Alive(host) {
		// The flood would be silently suppressed at the network layer;
		// returning before the bookkeeping keeps a dead holder from
		// claiming the global-suppression window with a phantom repair.
		return
	}
	if e.opt.GlobalSuppression {
		if at := e.lastFlood[seq]; !math.IsNaN(at) && e.s.Eng.Now()-at < e.diameter {
			return // idealised model: one flood per packet per window
		}
		e.lastFlood[seq] = e.s.Eng.Now()
	}
	e.lastRepair[i] = e.s.Eng.Now()
	e.s.Net.FloodTree(sim.Packet{Kind: sim.Repair, Seq: seq, From: host})
}

// PendingRequests reports in-flight request states (testing).
func (e *Engine) PendingRequests() int { return e.nreq }

// OnCrash implements protocol.FaultAware: park the crashed member's request
// timers and drop its armed repair timers (it can no longer serve anyone).
func (e *Engine) OnCrash(h graph.NodeID) {
	for seq := 0; seq < e.packets; seq++ {
		i := e.idx(h, seq)
		if rs := &e.req[i]; rs.active {
			rs.timer.Stop()
			rs.parked = true
		}
		if t := e.rep[i]; t.Valid() {
			t.Stop()
			e.rep[i] = sim.Timer{}
		}
	}
}

// OnRecover implements protocol.FaultAware: resume the member's parked
// requests from a fresh backoff. The dense scan runs in ascending sequence
// order — resumption draws suppression timers from the shared rng stream,
// so the order must be deterministic.
func (e *Engine) OnRecover(h graph.NodeID) {
	for seq := 0; seq < e.packets; seq++ {
		i := e.idx(h, seq)
		rs := &e.req[i]
		if !rs.active || !rs.parked {
			continue
		}
		rs.parked = false
		if !e.s.Missing(h, seq) {
			rs.active = false
			e.nreq--
			continue
		}
		rs.backoff = 0
		e.armRequest(h, seq, rs)
	}
}

// DedupCaches implements protocol.DedupAudited.
func (e *Engine) DedupCaches() []*protocol.DedupCache {
	return []*protocol.DedupCache{e.seen}
}

var (
	_ protocol.Engine       = (*Engine)(nil)
	_ protocol.FaultAware   = (*Engine)(nil)
	_ protocol.DedupAudited = (*Engine)(nil)
	_ sim.Callee            = (*Engine)(nil)
)
