// Package srcrec implements the pure source-based recovery baseline: every
// detected loss is recovered with a unicast request to the source and a
// unicast repair back, retried on timeout. It is what RP degenerates to for
// a client with no useful peers, and serves as the ablation floor in the
// benchmark suite (the paper surveys source-based schemes in §1 and builds
// on its own earlier subgrouping work [4], which the RP engine's
// SubgroupRepair option models).
package srcrec

import (
	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/sim"
)

// Options configures the engine.
type Options struct {
	// RetryFactor scales the retransmission timeout as a multiple of the
	// client's RTT to the source.
	RetryFactor float64
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options { return Options{RetryFactor: 3} }

// Engine is the source-recovery engine.
type Engine struct {
	opt     Options
	s       *protocol.Session
	pending map[key]sim.Timer
	// parked holds recoveries whose owner is crashed (the pending entry
	// stays, with a zero Timer, so OnDetect still dedupes); OnRecover
	// re-issues them.
	parked map[key]bool
	// served suppresses duplicated requests at the source: a repeat of
	// (requester, seq) within half the requester's retry timeout is a
	// message-plane duplicate, not a retry, and is dropped unanswered.
	served *protocol.DedupCache
}

// dedupCacheSize bounds the served-request dedup cache (see
// protocol.DedupCache); eviction only ever re-serves a duplicate.
const dedupCacheSize = 4096

type key struct {
	c   graph.NodeID
	seq int
}

func (k key) hostSeq() (graph.NodeID, int) { return k.c, k.seq }

// request is the payload of a source-recovery request.
type request struct {
	Requester graph.NodeID
}

// New returns a source-recovery engine.
func New(opt Options) *Engine {
	if opt.RetryFactor <= 0 {
		opt.RetryFactor = 3
	}
	return &Engine{
		opt:     opt,
		pending: make(map[key]sim.Timer),
		parked:  make(map[key]bool),
		served:  protocol.NewDedupCache(dedupCacheSize),
	}
}

// Name implements protocol.Engine.
func (e *Engine) Name() string { return "SRC" }

// Attach implements protocol.Engine.
func (e *Engine) Attach(s *protocol.Session) { e.s = s }

// CloneForShard implements protocol.ShardCloner: the engine has no
// precomputed plans, so a shard clone is simply a fresh engine.
func (e *Engine) CloneForShard() protocol.Engine { return New(e.opt) }

// OnDetect implements protocol.Engine. Monotonic guard: a packet the client
// already holds never (re-)enters pending, whatever duplicated or reordered
// signal suggested it.
func (e *Engine) OnDetect(c graph.NodeID, seq int) {
	k := key{c, seq}
	if _, dup := e.pending[k]; dup {
		return
	}
	if !e.s.Missing(c, seq) {
		return
	}
	e.ask(c, seq)
}

func (e *Engine) ask(c graph.NodeID, seq int) {
	if !e.s.Alive(c) {
		e.pending[key{c, seq}] = sim.Timer{}
		e.parked[key{c, seq}] = true
		return
	}
	e.s.Net.Unicast(e.s.Topo.Source, sim.Packet{
		Kind: sim.Request, Seq: seq, From: c, Payload: request{Requester: c},
	})
	e.pending[key{c, seq}] = e.s.Eng.NewTimerCall(
		e.opt.RetryFactor*e.s.Routes.RTT(c, e.s.Topo.Source), e, 0, int(c), seq)
}

// OnSimEvent implements sim.Callee: the retry timer of (client a, seq b)
// re-asks while the packet is still missing. Only the pending timer acts.
func (e *Engine) OnSimEvent(_, a, b int) {
	k := key{graph.NodeID(a), b}
	if !e.pending[k].Fired() {
		return
	}
	delete(e.pending, k)
	if e.s.Missing(k.c, k.seq) {
		e.ask(k.c, k.seq)
	}
}

// OnPacket implements protocol.Engine.
func (e *Engine) OnPacket(host graph.NodeID, pkt sim.Packet) {
	switch pkt.Kind {
	case sim.Request:
		pay, ok := pkt.Payload.(request)
		if !ok {
			e.s.NoteMalformed()
			return
		}
		if !e.s.IsClient(pay.Requester) {
			e.s.NoteMalformed()
			return
		}
		// Retries are spaced RetryFactor·RTT apart, so a repeat inside half
		// that window is a duplicated packet and is dropped unanswered.
		window := 0.5 * e.opt.RetryFactor * e.s.Routes.RTT(host, pay.Requester)
		if e.served.Seen(host, pay.Requester, pkt.Seq, e.s.Eng.Now(), window) {
			return
		}
		if !e.s.Has(host, pkt.Seq) {
			return
		}
		e.s.Net.Unicast(pay.Requester, sim.Packet{Kind: sim.Repair, Seq: pkt.Seq, From: host})
	case sim.Repair:
		k := key{host, pkt.Seq}
		if t, ok := e.pending[k]; ok && t.Valid() {
			t.Stop()
			delete(e.pending, k)
		}
	}
}

// PendingRecoveries reports in-flight recoveries (testing).
func (e *Engine) PendingRecoveries() int { return len(e.pending) }

// OnCrash implements protocol.FaultAware: park the crashed client's retries
// so a permanent crash cannot re-arm timers forever.
func (e *Engine) OnCrash(h graph.NodeID) {
	for _, k := range protocol.HostKeys(e.pending, h, key.hostSeq) {
		if t := e.pending[k]; t.Valid() {
			t.Stop()
			e.pending[k] = sim.Timer{}
		}
		e.parked[k] = true
	}
}

// OnRecover implements protocol.FaultAware: re-issue the client's parked
// requests.
func (e *Engine) OnRecover(h graph.NodeID) {
	for _, k := range protocol.HostKeys(e.pending, h, key.hostSeq) {
		if !e.parked[k] {
			continue
		}
		delete(e.parked, k)
		if e.s.Missing(k.c, k.seq) {
			e.ask(k.c, k.seq)
		} else {
			delete(e.pending, k)
		}
	}
}

// DedupCaches implements protocol.DedupAudited.
func (e *Engine) DedupCaches() []*protocol.DedupCache {
	return []*protocol.DedupCache{e.served}
}

var (
	_ protocol.Engine       = (*Engine)(nil)
	_ protocol.FaultAware   = (*Engine)(nil)
	_ protocol.DedupAudited = (*Engine)(nil)
)
