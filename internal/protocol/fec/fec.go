// Package fec implements a proactive parity-based recovery baseline in the
// style of the paper's reference [5] (Nonnenmacher, Biersack, Towsley,
// "Parity-Based Loss Recovery for Reliable Multicast Transmission"): the
// source groups data packets into blocks of K and multicasts R parity
// packets after each block; a client that misses up to R packets of a block
// decodes them locally as soon as it holds any K of the block's K+R
// symbols, with no recovery traffic at all. Losses beyond the parity budget
// fall back to unicast source requests.
//
// The trade-off against RP is the paper's taxonomy in action: FEC pays a
// fixed proactive data-plane overhead of R/K on every block (visible as
// extra Data hops, not recovery hops) to make the common-case recovery
// latency the wait for the block boundary rather than a peer round trip.
// Short blocks recover fast but cost more overhead.
//
// Parity symbols are modelled as opaque packets (an erasure code such as
// Reed–Solomon makes any K of K+R suffice; the simulation needs only the
// counting property, not the algebra).
package fec

import (
	"fmt"

	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/sim"
)

// Options configures the FEC engine.
type Options struct {
	// K is the data block size; R the parity count per block.
	K, R int
	// RetryFactor scales the fallback retransmission timeout as a
	// multiple of the client's RTT to the source.
	RetryFactor float64
	// Slack is extra waiting (ms) after a block's parity should have
	// arrived before declaring decode impossible and falling back.
	Slack float64
}

// DefaultOptions returns K=8, R=2 (25% proactive overhead) with a 3×RTT
// fallback.
func DefaultOptions() Options {
	return Options{K: 8, R: 2, RetryFactor: 3, Slack: 5}
}

// Engine is the FEC protocol engine.
type Engine struct {
	opt Options
	s   *protocol.Session
	// paritySeen counts parity symbols held per (client, block).
	paritySeen map[key]int
	// pending tracks fallback timers per (client, seq).
	pending map[key]sim.Timer
	// parked marks fallbacks suspended while their client is crashed; a
	// permanent crash must not keep re-arming retry timers forever.
	parked map[key]bool
}

// Event opcodes (sim.Callee).
const (
	// opParity multicasts parity symbol b of block a.
	opParity = iota
	// opFallback is the fallback timer of (client a, seq b).
	opFallback
)

type key struct {
	c graph.NodeID
	n int // block or seq, per map
}

func (k key) hostSeq() (graph.NodeID, int) { return k.c, k.n }

// parity is the payload of a parity packet; Block identifies the group.
type parity struct {
	Block int
	Index int
}

// request is the payload of a fallback source request.
type request struct {
	Requester graph.NodeID
}

// New returns an FEC engine.
func New(opt Options) *Engine {
	if opt.K <= 0 {
		opt.K = 8
	}
	if opt.R < 0 {
		opt.R = 0
	}
	if opt.RetryFactor <= 0 {
		opt.RetryFactor = 3
	}
	return &Engine{
		opt:        opt,
		paritySeen: make(map[key]int),
		pending:    make(map[key]sim.Timer),
		parked:     make(map[key]bool),
	}
}

// Name implements protocol.Engine.
func (e *Engine) Name() string { return fmt.Sprintf("FEC(%d,%d)", e.opt.K, e.opt.R) }

// Attach schedules the proactive parity multicasts: R parity packets right
// after each block's last data packet. Parity travels the data plane (it is
// subject to loss like data) with negative sequence numbers so the session
// routes it back to this engine.
func (e *Engine) Attach(s *protocol.Session) {
	e.s = s
	cfg := s.Config()
	blocks := (cfg.Packets + e.opt.K - 1) / e.opt.K
	for b := 0; b < blocks; b++ {
		lastSeq := (b+1)*e.opt.K - 1
		if lastSeq >= cfg.Packets {
			lastSeq = cfg.Packets - 1
		}
		at := float64(lastSeq)*cfg.Interval + 1e-3
		for i := 0; i < e.opt.R; i++ {
			s.Eng.ScheduleCall(at, e, opParity, b, i)
		}
	}
}

// OnSimEvent implements sim.Callee: parity sends and fallback timers.
func (e *Engine) OnSimEvent(op, a, b int) {
	switch op {
	case opParity:
		e.s.Net.MulticastFromSource(sim.Packet{
			Kind: sim.Data, Seq: -(a + 1), From: e.s.Topo.Source,
			Payload: parity{Block: a, Index: b},
		})
	case opFallback:
		e.fallback(graph.NodeID(a), b)
	}
}

// block returns the block number of a data sequence.
func (e *Engine) block(seq int) int { return seq / e.opt.K }

// blockSeqs returns the data sequence range [lo, hi) of a block, clamped to
// the stream length.
func (e *Engine) blockSeqs(b int) (int, int) {
	lo := b * e.opt.K
	hi := lo + e.opt.K
	if n := e.s.Config().Packets; hi > n {
		hi = n
	}
	return lo, hi
}

// decodable reports whether client c holds at least K of block b's symbols
// (data it received or recovered, plus parity), i.e. whether an erasure
// code would reconstruct the rest. For a tail block shorter than K, the
// block length replaces K.
func (e *Engine) decodable(c graph.NodeID, b int) bool {
	lo, hi := e.blockSeqs(b)
	need := hi - lo
	have := e.paritySeen[key{c, b}]
	for seq := lo; seq < hi; seq++ {
		if e.s.Has(c, seq) {
			have++
		}
	}
	return have >= need
}

// tryDecode recovers every outstanding loss of block b at client c if the
// block is decodable now.
func (e *Engine) tryDecode(c graph.NodeID, b int) {
	if !e.decodable(c, b) {
		return
	}
	lo, hi := e.blockSeqs(b)
	for seq := lo; seq < hi; seq++ {
		if e.s.Missing(c, seq) {
			e.s.RecoverLocal(c, seq)
			e.cancel(c, seq)
		}
	}
}

func (e *Engine) cancel(c graph.NodeID, seq int) {
	k := key{c, seq}
	if t, ok := e.pending[k]; ok {
		t.Stop()
		delete(e.pending, k)
	}
	delete(e.parked, k)
}

// OnDetect implements protocol.Engine: wait for the block's parity; if the
// block cannot be decoded by then, fall back to the source.
func (e *Engine) OnDetect(c graph.NodeID, seq int) {
	b := e.block(seq)
	e.tryDecode(c, b)
	if !e.s.Missing(c, seq) {
		return
	}
	cfg := e.s.Config()
	_, hi := e.blockSeqs(b)
	parityArrive := float64(hi-1)*cfg.Interval + e.s.Net.WouldArrive(c) + e.opt.Slack
	wait := parityArrive - e.s.Eng.Now()
	if wait < 0 {
		wait = 0
	}
	k := key{c, seq}
	e.pending[k] = e.s.Eng.NewTimerCall(wait+1e-3, e, opFallback, int(c), seq)
}

// fallback asks the source directly (and keeps retrying).
func (e *Engine) fallback(c graph.NodeID, seq int) {
	k := key{c, seq}
	delete(e.pending, k)
	if !e.s.Missing(c, seq) {
		return
	}
	// One more decode attempt — parity may have landed since.
	e.tryDecode(c, e.block(seq))
	if !e.s.Missing(c, seq) {
		return
	}
	if !e.s.Alive(c) {
		// Crashed mid-cycle: park rather than re-arm, OnRecover resumes.
		e.pending[k] = sim.Timer{}
		e.parked[k] = true
		return
	}
	e.s.Net.Unicast(e.s.Topo.Source, sim.Packet{
		Kind: sim.Request, Seq: seq, From: c, Payload: request{Requester: c},
	})
	retry := e.opt.RetryFactor * e.s.Routes.RTT(c, e.s.Topo.Source)
	e.pending[k] = e.s.Eng.NewTimerCall(retry, e, opFallback, int(c), seq)
}

// OnPacket implements protocol.Engine.
func (e *Engine) OnPacket(host graph.NodeID, pkt sim.Packet) {
	switch pkt.Kind {
	case sim.Data:
		// Parity arrival.
		pay, ok := pkt.Payload.(parity)
		if !ok || !e.s.IsClient(host) {
			return
		}
		e.paritySeen[key{host, pay.Block}]++
		e.tryDecode(host, pay.Block)
	case sim.Request:
		pay, ok := pkt.Payload.(request)
		if !ok || !e.s.Has(host, pkt.Seq) {
			return
		}
		e.s.Net.Unicast(pay.Requester, sim.Packet{Kind: sim.Repair, Seq: pkt.Seq, From: host})
	case sim.Repair:
		e.cancel(host, pkt.Seq)
	}
}

// OnCrash implements protocol.FaultAware: stop the crashed client's
// fallback timers and park the keys, so a permanent crash cannot keep the
// event loop alive with retries that can never be answered.
func (e *Engine) OnCrash(h graph.NodeID) {
	for _, k := range protocol.HostKeys(e.pending, h, key.hostSeq) {
		if t := e.pending[k]; t.Valid() {
			t.Stop()
			e.pending[k] = sim.Timer{}
		}
		e.parked[k] = true
	}
}

// OnRecover implements protocol.FaultAware: resume parked fallbacks in
// sequence order (deterministic), decoding first where parity already
// suffices.
func (e *Engine) OnRecover(h graph.NodeID) {
	for _, k := range protocol.HostKeys(e.pending, h, key.hostSeq) {
		if !e.parked[k] {
			continue
		}
		delete(e.parked, k)
		delete(e.pending, k)
		if e.s.Missing(k.c, k.n) {
			e.fallback(k.c, k.n)
		}
	}
}

// PendingRecoveries reports outstanding fallback timers (testing).
func (e *Engine) PendingRecoveries() int { return len(e.pending) }

var (
	_ protocol.Engine     = (*Engine)(nil)
	_ protocol.FaultAware = (*Engine)(nil)
	_ sim.Callee          = (*Engine)(nil)
)
