// Epoch-fenced RP failover: the coordinated-RP deployment mode (RP-FAILOVER)
// in which every local recovery is routed through a single elected
// meet-router/RP — the paper's §2.2 read literally — and the RP itself is
// allowed to crash. The paper (and the plain engine) treat the coordinator
// like the source: it simply never dies. This layer lifts that restriction
// with the classic lease-free design:
//
//   - Deterministic election, no agreement round. The winner is
//     core.Electorate.Best(): the active client with the smallest
//     (DelayFromRoot, peer ID) key — the Algorithm-1 class ranking read at
//     the tree root. Because the rule is a pure function of (tree, active
//     set), every survivor that suspects the RP computes the same successor;
//     divergent views (a survivor that missed a death) are arbitrated by the
//     epoch fence, not by voting.
//
//   - Epoch fencing. Every control message carries the sender's epoch. A
//     coordinator claim binds a strictly increasing epoch to one host
//     (allocated through the source's registry, which acts as the sequencer
//     of last resort — becomeRP takes max(proposed, maxClaimed+1), so two
//     racing promotions can never claim the same epoch). Receivers adopt
//     epochs monotonically; control traffic from a deposed RP, or addressed
//     to one, is rejected as fenced-stale and answered with a catch-up
//     announcement. Repairs are deliberately NOT fenced: a repair's payload
//     is idempotent content (the session's per-(client, seq) bookkeeping
//     absorbs duplicates), so a stale RP flushing its last repairs does no
//     harm and often does good.
//
//   - Interregnum degradation. Between suspecting the RP and adopting the
//     next epoch, a client unicasts its requests straight to the source —
//     the paper's guaranteed last resort — so recovery liveness never waits
//     on the election.
//
//   - State handover. Each client re-homes its own in-flight recoveries to
//     the new RP when it adopts the new epoch (ascending sequence order, so
//     the replay is deterministic); the new RP resumes its own parked gaps
//     against the source. Nothing is lost and nothing is double-counted:
//     the invariant oracle (check.EnableFailover) independently asserts one
//     claim per epoch, per-host epoch monotonicity, and the usual
//     conservation of recoveries across the handover.
//
//   - Rejoin. A recovered ex-RP probes the source's registry, adopts the
//     current epoch, and is re-admitted to the electorate as a regular
//     candidate the moment it provably processes a message again.
package rpproto

import (
	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/sim"
)

// Failover configures the coordinated-RP failover mode. The zero value
// disables it, leaving the plain peer-list engine untouched.
type Failover struct {
	// Enabled turns the mode on (and renames the engine RP-FAILOVER).
	Enabled bool
	// SuspicionThreshold is the number of consecutive request timeouts
	// against the current RP before a client suspects it and triggers the
	// election. Values < 1 mean the default (2).
	SuspicionThreshold int
	// NoElection degrades without re-electing: suspecting clients fall back
	// to source unicast forever. With no election the coordinator role can
	// never move, so CoordinatorInfo reports the failover capability absent
	// and schedules that crash the RP are rejected at session build.
	NoElection bool
}

// DefaultFailover returns the configuration used by the churn sweeps.
func DefaultFailover() Failover {
	return Failover{Enabled: true, SuspicionThreshold: 2}
}

// foRequest is the epoch-fenced recovery request of the coordinated mode:
// the requester's identity plus its current (epoch, RP) view. The RP relays
// requests it cannot serve to the source with the original requester
// preserved, so the repair goes straight back.
type foRequest struct {
	Requester graph.NodeID
	Epoch     int
	RP        graph.NodeID
}

// foPromote asks its receiver to claim the coordinator role at (at least)
// the proposed epoch.
type foPromote struct {
	Epoch int
}

// foAnnounce publishes a claimed (epoch, RP) binding — sent by a new RP to
// every client, by the source's registry in answer to a probe, and as the
// catch-up reply to fenced-stale traffic.
type foAnnounce struct {
	Epoch int
	RP    graph.NodeID
}

// foProbe asks the source's registry for the current (epoch, RP) binding —
// the rejoin path of a recovered ex-RP (or any long-crashed client).
type foProbe struct {
	Requester graph.NodeID
}

// promoteState is one suspecting client's watchdog over an outstanding
// promotion: if no epoch ≥ goal is adopted before the timer fires, the
// unresponsive winner is declared dead too and the election moves on.
type promoteState struct {
	goal   int
	target graph.NodeID
	timer  sim.Timer
}

// foThreshold returns the effective suspicion threshold.
func (e *Engine) foThreshold() int {
	if k := e.opt.Failover.SuspicionThreshold; k >= 1 {
		return k
	}
	return 2
}

// initFailover bootstraps the coordinated mode at Attach: epoch 1 is
// claimed by the electorate's initial Best() and adopted by every client,
// so the run starts from an agreed view (the deployment analogue is the
// tree-build handshake distributing the initial RP with the peer lists).
func (e *Engine) initFailover() {
	e.s.EnableFailover()
	e.elect = core.NewElectorate(e.s.Tree)
	rp := e.elect.Best()
	e.initialRP = rp
	e.claimant = rp
	e.maxClaimed = 1
	e.s.NoteRPClaim(1, rp)
	for _, c := range e.s.Topo.Clients {
		e.epochOf[c] = 1
		e.rpView[c] = rp
		e.s.NoteEpochAdopt(c, 1, rp)
	}
}

// CoordinatorInfo implements protocol.Coordinator: the designated RP and
// whether the engine can survive its crash (election enabled).
func (e *Engine) CoordinatorInfo() (graph.NodeID, bool) {
	if !e.opt.Failover.Enabled {
		return graph.None, false
	}
	return e.initialRP, !e.opt.Failover.NoElection
}

// CurrentRP returns a host's current coordinator view (testing).
func (e *Engine) CurrentRP(c graph.NodeID) graph.NodeID { return e.rpView[c] }

// CurrentEpoch returns a host's adopted epoch (testing).
func (e *Engine) CurrentEpoch(c graph.NodeID) int { return e.epochOf[c] }

// foTarget resolves where client c's next request goes: its RP, or the
// source while it has no usable coordinator (interregnum, exhausted
// electorate, or c is the RP itself).
func (e *Engine) foTarget(c graph.NodeID) graph.NodeID {
	rp := e.rpView[c]
	if rp == graph.None || rp == c || e.interregnum[c] {
		return e.s.Topo.Source
	}
	return rp
}

// foSend fires the epoch-stamped request for one pending recovery and arms
// the timeout. A crashed owner parks (resumed by OnRecover).
func (e *Engine) foSend(c graph.NodeID, seq int, a *attempt) {
	if !e.s.Alive(c) {
		a.parked = true
		return
	}
	target := e.foTarget(c)
	t0 := e.timeoutPolicy().Timeout(e.s.Routes.RTT(c, target))
	e.s.Net.Unicast(target, sim.Packet{
		Kind: sim.Request, Seq: seq, From: c,
		Payload: foRequest{Requester: c, Epoch: e.epochOf[c], RP: e.rpView[c]},
	})
	a.target = target
	a.timer = e.s.Eng.NewTimerCall(e.attemptTimeout(t0, a.retry), e, opFoTimeout, int(c), seq)
}

// foTimeout retries the recovery; consecutive timeouts against the current
// RP feed the suspicion counter. Requests re-resolve their target on every
// retry, so a client that entered the interregnum mid-recovery re-routes to
// the source automatically. Only the attempt's current timer acts.
func (e *Engine) foTimeout(c graph.NodeID, seq int) {
	k := key{c, seq}
	a := e.pending[k]
	if a == nil || a.parked || !a.timer.Fired() {
		return
	}
	if !e.s.Missing(c, seq) {
		delete(e.pending, k)
		return
	}
	if a.target != e.s.Topo.Source && a.target == e.rpView[c] && !e.interregnum[c] {
		e.rpTimeouts[c]++
		if e.rpTimeouts[c] >= e.foThreshold() {
			e.foSuspect(c)
		}
	}
	e.foSend(c, seq, a)
}

// foSuspect marks client c's RP as suspected: c degrades to source unicast
// (the interregnum) and, unless NoElection, triggers the deterministic
// election.
func (e *Engine) foSuspect(c graph.NodeID) {
	rp := e.rpView[c]
	if rp == graph.None || rp == c {
		return
	}
	e.interregnum[c] = true
	e.rpTimeouts[c] = 0
	if e.opt.Failover.NoElection {
		return
	}
	e.foElect(c, rp)
}

// foElect withdraws the suspect from the electorate and routes the
// coordinator role to the deterministic winner: self-promotion when c wins,
// a watched foPromote otherwise. An exhausted electorate leaves every
// survivor on source unicast — degraded but live.
func (e *Engine) foElect(c, suspect graph.NodeID) {
	if !e.foDead[suspect] {
		e.foDead[suspect] = true
		e.elect.Leave(suspect)
	}
	w := e.elect.Best()
	if w == graph.None {
		return
	}
	proposed := e.epochOf[c] + 1
	if w == c {
		e.becomeRP(c, proposed)
		return
	}
	e.s.Net.Unicast(w, sim.Packet{
		Kind: sim.Request, Seq: 0, From: c, Payload: foPromote{Epoch: proposed},
	})
	if pw := e.promoteWatch[c]; pw != nil {
		pw.timer.Stop()
	}
	pw := &promoteState{goal: proposed, target: w}
	d := 2 * e.timeoutPolicy().Timeout(e.s.Routes.RTT(c, w))
	pw.timer = e.s.Eng.NewTimerCall(d, e, opPromote, int(c), 0)
	e.promoteWatch[c] = pw
}

// promoteTimeout is the crash-during-handover path: the elected winner
// never took the role (it crashed before, or while, absorbing it), so it is
// declared dead as well and the election falls through to the next
// candidate. Only the current watchdog's timer acts.
func (e *Engine) promoteTimeout(c graph.NodeID) {
	pw := e.promoteWatch[c]
	if pw == nil || !pw.timer.Fired() {
		return
	}
	delete(e.promoteWatch, c)
	if e.epochOf[c] >= pw.goal || !e.s.Alive(c) {
		return
	}
	e.foElect(c, pw.target)
}

// becomeRP claims the coordinator role for rp. The epoch is allocated
// through the engine-global registry — max(proposed, maxClaimed+1) — which
// models the source acting as the claim sequencer: two promotions racing
// through lossy control traffic can therefore never bind the same epoch to
// two hosts, which is the invariant the fence needs (the higher epoch
// deposes the lower everywhere it propagates).
func (e *Engine) becomeRP(rp graph.NodeID, proposed int) {
	epoch := proposed
	if epoch <= e.maxClaimed {
		epoch = e.maxClaimed + 1
	}
	e.maxClaimed = epoch
	e.claimant = rp
	e.s.NoteRPClaim(epoch, rp)
	e.adoptEpoch(rp, epoch, rp)
	for _, c := range e.s.Topo.Clients {
		if c == rp {
			continue
		}
		e.s.Net.Unicast(c, sim.Packet{
			Kind: sim.Request, Seq: 0, From: rp, Payload: foAnnounce{Epoch: epoch, RP: rp},
		})
	}
}

// adoptEpoch applies a claimed (epoch, RP) binding to one host's view,
// monotonically. Adoption ends the host's interregnum, clears its
// suspicion and promotion state, re-admits the host to the electorate if it
// had been presumed dead (it just processed a message — provably alive),
// and re-homes its in-flight recoveries onto the new coordinator.
func (e *Engine) adoptEpoch(h graph.NodeID, epoch int, rp graph.NodeID) {
	if epoch <= e.epochOf[h] {
		return
	}
	e.epochOf[h] = epoch
	e.rpView[h] = rp
	e.interregnum[h] = false
	e.rpTimeouts[h] = 0
	if pw := e.promoteWatch[h]; pw != nil {
		pw.timer.Stop()
		delete(e.promoteWatch, h)
	}
	e.s.NoteEpochAdopt(h, epoch, rp)
	if e.foDead[h] {
		delete(e.foDead, h)
		e.elect.Join(h)
	}
	e.foRehome(h)
}

// foRehome re-issues h's un-parked in-flight recoveries whose armed request
// is aimed at a stale target — the requester's half of the state handover.
// protocol.HostKeys' ascending-sequence order keeps the replay deterministic.
func (e *Engine) foRehome(h graph.NodeID) {
	target := e.foTarget(h)
	for _, k := range protocol.HostKeys(e.pending, h, key.hostSeq) {
		a := e.pending[k]
		if a.parked || a.target == target {
			continue
		}
		a.timer.Stop()
		a.retry = 0
		e.foSend(h, k.seq, a)
	}
}

// foOnRequest serves one epoch-fenced recovery request arriving at host.
// The source answers unconditionally (it is outside the fence and holds
// every packet). A client host — the RP, or a deposed ex-RP — first applies
// the fence: requests from an older epoch are rejected and answered with a
// catch-up announcement so the requester re-homes instead of timing out
// again. A fresh request is served from cache, held for an in-transit
// packet, or relayed to the source with the original requester preserved.
func (e *Engine) foOnRequest(host graph.NodeID, seq int, pay foRequest) {
	src := e.s.Topo.Source
	if host != src && pay.Epoch < e.epochOf[host] {
		e.s.NoteFencedStale()
		e.s.Net.Unicast(pay.Requester, sim.Packet{
			Kind: sim.Request, Seq: 0, From: host,
			Payload: foAnnounce{Epoch: e.epochOf[host], RP: e.rpView[host]},
		})
		return
	}
	window := 0.5 * e.timeoutPolicy().Timeout(e.s.Routes.RTT(host, pay.Requester))
	if e.served.Seen(host, pay.Requester, seq, e.s.Eng.Now(), window) {
		return
	}
	if e.s.Has(host, seq) {
		e.s.Net.Unicast(pay.Requester, sim.Packet{Kind: sim.Repair, Seq: seq, From: host})
		return
	}
	if !e.opt.NoHoldFreshRequests {
		if eta := e.s.ExpectedArrival(host, seq); eta > e.s.Eng.Now() {
			e.hold(opFoHeld, eta, host, seq, pay.Requester)
			return
		}
	}
	e.foRelay(host, seq, pay.Requester)
}

// foOnRequestHeld re-decides a held request once the RP's own arrival
// window has passed: serve, or relay to the source.
func (e *Engine) foOnRequestHeld(host graph.NodeID, seq int, requester graph.NodeID) {
	if e.s.Has(host, seq) {
		e.s.Net.Unicast(requester, sim.Packet{Kind: sim.Repair, Seq: seq, From: host})
		return
	}
	e.foRelay(host, seq, requester)
}

// foRelay forwards a request the RP cannot serve to the source, requester
// preserved, so the source's repair goes straight back to the client that
// needs it.
func (e *Engine) foRelay(host graph.NodeID, seq int, requester graph.NodeID) {
	e.s.Net.Unicast(e.s.Topo.Source, sim.Packet{
		Kind: sim.Request, Seq: seq, From: host,
		Payload: foRequest{Requester: requester, Epoch: e.epochOf[host], RP: e.rpView[host]},
	})
}

// foOnPromote makes host claim the role — unless the proposal is already
// stale, which is exactly how simultaneous suspicion by many peers resolves
// to a single claim: the first promotion to arrive wins the epoch, every
// later duplicate is fenced.
func (e *Engine) foOnPromote(host graph.NodeID, pay foPromote) {
	if pay.Epoch <= e.epochOf[host] {
		e.s.NoteFencedStale()
		return
	}
	e.becomeRP(host, pay.Epoch)
}

// foOnAnnounce adopts a published binding; announcements older than the
// host's view are fenced.
func (e *Engine) foOnAnnounce(host graph.NodeID, pay foAnnounce) {
	if pay.Epoch < e.epochOf[host] {
		e.s.NoteFencedStale()
		return
	}
	e.adoptEpoch(host, pay.Epoch, pay.RP)
}

// foOnProbe answers a registry probe at the source with the current
// binding. Probes landing anywhere else are ignored (a mutator artefact).
func (e *Engine) foOnProbe(host graph.NodeID, pay foProbe) {
	if host != e.s.Topo.Source {
		return
	}
	e.s.Net.Unicast(pay.Requester, sim.Packet{
		Kind: sim.Request, Seq: 0, From: host,
		Payload: foAnnounce{Epoch: e.maxClaimed, RP: e.claimant},
	})
}

// foOnRecover is the rejoin hook: a recovered client (an ex-RP in
// particular) probes the source's registry; the answering announcement
// re-syncs its epoch, re-homes its resumed recoveries, and re-admits it to
// the electorate.
func (e *Engine) foOnRecover(h graph.NodeID) {
	if !e.s.IsClient(h) {
		return
	}
	e.s.Net.Unicast(e.s.Topo.Source, sim.Packet{
		Kind: sim.Request, Seq: 0, From: h, Payload: foProbe{Requester: h},
	})
}
