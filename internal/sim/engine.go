// Package sim provides the discrete-event packet-level simulator of §5.1:
// a deterministic event engine plus a simulated network layer that forwards
// unicast packets along minimum-delay paths and multicast packets along the
// multicast tree, applying independent per-link Bernoulli loss and fixed
// per-link delay.
//
// Per the paper, "unlike a real network, the link delay and loss properties
// are independent of the number of packets traversing the link" — there is
// deliberately no queueing or congestion model, which (as the paper notes)
// biases in favour of the chattier protocols SRM and RMA, making RP's
// measured advantage conservative.
//
// Determinism: all randomness flows through one rng.Rand owned by the
// caller, and simultaneous events fire in schedule order (a monotone
// sequence number breaks time ties), so a run is a pure function of its
// seed and configuration.
//
// The event core is allocation-free in steady state: the calendar is a
// hand-rolled 4-ary min-heap over typed event structs (no container/heap
// interface boxing), hop-by-hop forwarding uses pooled walker events
// instead of per-hop closures, and cancellable timers live in recycled
// engine-owned slots that carry a Callee and its arguments, not a closure.
// The (at, seq) total order — and with it the firing order of every
// fixed-seed run — is identical to the original binary-heap implementation,
// because the comparator induces a strict total order that no heap arity
// can perturb.
//
// The calendar entries themselves are pointer-free: closure, callee, and
// walker payloads park in recycled side arenas and events carry int32 slot
// references. Sifting events through the heap is then a plain memmove — no
// write barriers — and the garbage collector never scans the calendar.
//
// Stopped timers leave the calendar early: once they make up more than half
// of it (and exceed a fixed floor), Timer.Stop filters them all out in one
// pass and re-heapifies. The firing order is unchanged, and so are the two
// run totals every result reports, which count a stopped timer as if it
// had stayed queued and popped as a no-op: each purged timer counts as
// processed when it is purged, and EndTime reports the later of the clock
// and the latest purged instant. The clock itself never jumps to a purged
// instant, so a shard still accepts remote deliveries stamped below it.
package sim

import (
	"fmt"
	"math"
)

// Engine is a discrete-event scheduler. Times are float64 milliseconds.
type Engine struct {
	now float64
	seq uint64
	pq  []event
	// processed counts executed events (and purged timers), for loop
	// detection in tests and run-away guards in the harness. Run derives its per-call count from
	// this same counter, so the two can never drift.
	processed uint64

	// freeW is the walker free list: hop-walker events recycle through it
	// instead of churning the garbage collector (see walker.go).
	freeW *walker

	// timers is the pooled timer arena; timerFree lists recyclable slots.
	// A slot is released when its calendar event pops or is purged, and
	// generation counters keep stale Timer handles inert.
	timers    []timerSlot
	timerFree []int32
	// stopped counts stopped timers whose events are still in the
	// calendar; purgedAt is the latest instant of a purged one.
	stopped  int
	purgedAt float64

	// Payload arenas: the pointer-bearing halves of scheduled events, so
	// the calendar array itself stays pointer-free. A slot lives exactly
	// from push to pop.
	fns   Arena[func()]
	calls Arena[Callee]
	walks Arena[*walker]
}

// Arena is a recycled slot store: Put parks a value and returns its slot,
// Take retrieves it and frees the slot. Steady state allocates nothing.
// Engines use it to park event arguments that do not fit in a Callee's two
// integers, passing the slot instead.
type Arena[T any] struct {
	slots []T
	free  []int32
}

// Put parks v and returns its slot.
func (a *Arena[T]) Put(v T) int32 {
	if n := len(a.free); n > 0 {
		i := a.free[n-1]
		a.free = a.free[:n-1]
		a.slots[i] = v
		return i
	}
	a.slots = append(a.slots, v)
	return int32(len(a.slots) - 1)
}

// Take returns the value parked in slot i and frees the slot.
func (a *Arena[T]) Take(i int32) T {
	v := a.slots[i]
	var zero T
	a.slots[i] = zero
	a.free = append(a.free, i)
	return v
}

// evKind tags the event union dispatched by Step.
type evKind uint8

const (
	// evFunc runs an arbitrary closure — the general-purpose event.
	evFunc evKind = iota
	// evCall invokes a Callee with (op, a, b) — a closure-free callback
	// for hot paths that would otherwise allocate one closure per packet.
	evCall
	// evTimer fires the pooled timer in slot a unless it was stopped
	// (see Timer).
	evTimer
	// evWalker advances a pooled hop walker (see walker.go).
	evWalker
)

// event is one calendar entry: ordering key plus a small tagged union.
// The struct is deliberately pointer-free (32 bytes): payloads that carry
// pointers live in the engine's arenas, referenced by ref, so heap sifts
// are barrier-free memmoves and the calendar is invisible to the garbage
// collector. Only the fields selected by kind are meaningful.
type event struct {
	at   float64
	seq  uint64
	a, b int32 // evCall arguments; evTimer slot in a
	ref  int32 // arena slot for evFunc / evCall / evWalker payloads
	kind evKind
	op   uint8 // evCall opcode
}

// Callee receives typed callback events scheduled with ScheduleCall: a
// single dispatch method with an opcode and two small integer arguments —
// enough for (client index, sequence) style callbacks without allocating a
// closure per event.
type Callee interface {
	OnSimEvent(op, a, b int)
}

// evLess is the strict total order (at, then schedule seq) shared by every
// heap operation. seq is unique, so ties cannot exist and firing order is
// independent of heap shape.
func evLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// NewEngine returns an engine at time 0 with an empty calendar.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time (ms).
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far. A stopped timer
// purged from the calendar counts here when it is purged.
func (e *Engine) Processed() uint64 { return e.processed }

// EndTime returns the instant the run has reached: the clock, or the latest
// purged timer's instant if that is later. It equals the clock a run would
// show had every stopped timer stayed queued and popped as a no-op.
func (e *Engine) EndTime() float64 { return max(e.now, e.purgedAt) }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.pq) }

// Reserve grows the calendar's backing array to hold at least n pending
// events without regrowth. The hierarchical tier calls it once per domain
// engine — each domain's steady-state event population is predictable
// (its clients' detect timers plus in-flight deliveries), so one up-front
// allocation replaces the doubling cascade on every shard.
func (e *Engine) Reserve(n int) {
	if cap(e.pq) < n {
		pq := make([]event, len(e.pq), n)
		copy(pq, e.pq)
		e.pq = pq
	}
}

// push validates the timestamp, stamps the tie-break sequence, and sifts
// the event into the 4-ary heap. Steady state (backing array at capacity)
// allocates nothing.
func (e *Engine) push(at float64, ev event) {
	if at < e.now || math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: schedule at %v with now %v", at, e.now))
	}
	e.seq++
	ev.at = at
	ev.seq = e.seq
	e.pq = append(e.pq, ev)
	// Sift up: move the hole toward the root until the parent fits.
	i := len(e.pq) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(&ev, &e.pq[p]) {
			break
		}
		e.pq[i] = e.pq[p]
		i = p
	}
	e.pq[i] = ev
}

// popMin removes and returns the earliest event. Events are pointer-free,
// so the vacated tail slot needs no zeroing — it cannot retain anything.
func (e *Engine) popMin() event {
	top := e.pq[0]
	n := len(e.pq) - 1
	last := e.pq[n]
	e.pq = e.pq[:n]
	if n == 0 {
		return top
	}
	// Sift down: move the hole toward the leaves, pulling up the smallest
	// of up to four children, until last fits.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if evLess(&e.pq[k], &e.pq[m]) {
				m = k
			}
		}
		if !evLess(&e.pq[m], &last) {
			break
		}
		e.pq[i] = e.pq[m]
		i = m
	}
	e.pq[i] = last
	return top
}

// siftDown restores the heap below slot i: the hole moves toward the
// leaves, pulling up the smallest of up to four children, until the
// displaced event fits.
func (e *Engine) siftDown(i int) {
	n := len(e.pq)
	ev := e.pq[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for k := c + 1; k < end; k++ {
			if evLess(&e.pq[k], &e.pq[m]) {
				m = k
			}
		}
		if !evLess(&e.pq[m], &ev) {
			break
		}
		e.pq[i] = e.pq[m]
		i = m
	}
	e.pq[i] = ev
}

// Schedule runs fn at absolute time at. Scheduling in the past or at a
// non-finite time panics: it is always a protocol bug.
func (e *Engine) Schedule(at float64, fn func()) {
	e.push(at, event{kind: evFunc, ref: e.fns.Put(fn)})
}

// After runs fn d milliseconds from now.
func (e *Engine) After(d float64, fn func()) { e.Schedule(e.now+d, fn) }

// ScheduleCall runs c.OnSimEvent(op, a, b) at absolute time at, without
// allocating: the opcode and arguments ride inside the typed event. op must
// fit in a uint8 and a, b in int32 — ample for the client-index and
// sequence-number callbacks the protocol layer schedules per packet.
func (e *Engine) ScheduleCall(at float64, c Callee, op, a, b int) {
	e.push(at, event{kind: evCall, ref: e.calls.Put(c),
		op: uint8(op), a: int32(a), b: int32(b)})
}

// Step executes the next event, returning false when the calendar is empty.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.popMin()
	e.now = ev.at
	e.processed++
	switch ev.kind {
	case evFunc:
		e.fns.Take(ev.ref)()
	case evCall:
		e.calls.Take(ev.ref).OnSimEvent(int(ev.op), int(ev.a), int(ev.b))
	case evTimer:
		e.fireTimer(ev.a)
	case evWalker:
		e.walks.Take(ev.ref).run()
	}
	return true
}

// Run executes events until the calendar is empty or maxEvents have fired
// (0 means unlimited). It returns the number of events executed, counted on
// the same processed counter Processed reports.
func (e *Engine) Run(maxEvents uint64) uint64 {
	start := e.processed
	for e.Step() {
		if maxEvents > 0 && e.processed-start >= maxEvents {
			break
		}
	}
	return e.processed - start
}

// RunUntil executes events with timestamps ≤ t and then advances the clock
// to t (if the calendar ran dry earlier).
func (e *Engine) RunUntil(t float64) {
	for len(e.pq) > 0 && e.pq[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunBefore executes events with timestamps strictly below t and returns how
// many fired. Unlike RunUntil the clock is left at the last executed event,
// not advanced to t: the conservative parallel runner calls this per window,
// and a shard must still accept remote deliveries stamped between its last
// local event and the horizon.
func (e *Engine) RunBefore(t float64) uint64 {
	start := e.processed
	for len(e.pq) > 0 && e.pq[0].at < t {
		e.Step()
	}
	return e.processed - start
}

// NextEventAt returns the timestamp of the earliest pending event; ok is
// false when the calendar is empty.
func (e *Engine) NextEventAt() (at float64, ok bool) {
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].at, true
}

// Timer slot states. A slot is freed (pushed on timerFree) when its
// calendar event pops or is purged; until the slot is re-armed, stale
// handles still read their fired/stopped outcome; after re-arming, the
// bumped generation makes them fully inert.
const (
	slotArmed uint8 = iota + 1
	slotStopped
	slotFired
)

// purgeFloor is the number of stopped timers a purge must exceed: below
// it the dead events cost less than a pass over the calendar.
const purgeFloor = 1024

// timerSlot is the engine-owned, recycled representation of one timer: the
// Callee and its (op, a, b) arguments, as for ScheduleCall.
type timerSlot struct {
	gen   uint32
	state uint8
	op    uint8
	a, b  int32
	c     Callee
}

// Timer is a cancellable scheduled callback: a generation-stamped handle
// into the engine's pooled timer arena. The zero Timer is valid and inert —
// Stop and Fired return false. Handles are values; copy them freely.
type Timer struct {
	e   *Engine
	idx int32
	gen uint32
}

// NewTimerCall schedules c.OnSimEvent(op, a, b) after d ms and returns a
// handle that can Stop it. The callback rides in a recycled engine slot
// like ScheduleCall's, so arming a timer allocates nothing.
func (e *Engine) NewTimerCall(d float64, c Callee, op, a, b int) Timer {
	var idx int32
	if n := len(e.timerFree); n > 0 {
		idx = e.timerFree[n-1]
		e.timerFree = e.timerFree[:n-1]
	} else {
		e.timers = append(e.timers, timerSlot{})
		idx = int32(len(e.timers) - 1)
	}
	sl := &e.timers[idx]
	sl.gen++
	sl.state = slotArmed
	sl.c, sl.op, sl.a, sl.b = c, uint8(op), int32(a), int32(b)
	e.push(e.now+d, event{kind: evTimer, a: idx})
	return Timer{e: e, idx: idx, gen: sl.gen}
}

// fireTimer pops one timer event: run the callback if the slot is still
// armed, then recycle the slot. A slot is only re-armed after its event
// has left the calendar, so the event always belongs to the slot's
// current generation.
func (e *Engine) fireTimer(idx int32) {
	sl := &e.timers[idx]
	e.timerFree = append(e.timerFree, idx)
	if sl.state != slotArmed {
		e.stopped--
		return
	}
	sl.state = slotFired
	c := sl.c
	sl.c = nil
	c.OnSimEvent(int(sl.op), int(sl.a), int(sl.b))
}

// purge removes every stopped timer's event from the calendar in one pass,
// frees their slots, and rebuilds the heap bottom-up (Floyd). (at, seq) is
// a strict total order, so the surviving events pop in the same order as
// before. Each purged event counts as processed, and purgedAt keeps the
// latest purged instant for EndTime.
func (e *Engine) purge() {
	kept := e.pq[:0]
	for _, ev := range e.pq {
		if ev.kind == evTimer && e.timers[ev.a].state == slotStopped {
			e.processed++
			e.purgedAt = max(e.purgedAt, ev.at)
			e.timerFree = append(e.timerFree, ev.a)
			continue
		}
		kept = append(kept, ev)
	}
	e.pq = kept
	e.stopped = 0
	for i := (len(kept) - 2) >> 2; i >= 0; i-- {
		e.siftDown(i)
	}
}

// Valid reports whether the handle refers to a timer at all (false for the
// zero Timer) — callers that park entries with a placeholder handle use it
// to tell "armed once" from "never armed".
func (t Timer) Valid() bool { return t.e != nil }

// Stop cancels the timer if it has not fired; it reports whether the call
// prevented the callback. Stopping a stale handle (one whose slot has been
// recycled for a newer timer) is a safe no-op. Once stopped timers make up
// more than half of the calendar and exceed purgeFloor, Stop purges them.
func (t Timer) Stop() bool {
	if t.e == nil || int(t.idx) >= len(t.e.timers) {
		return false
	}
	e := t.e
	sl := &e.timers[t.idx]
	if sl.gen != t.gen || sl.state != slotArmed {
		return false
	}
	sl.state = slotStopped
	sl.c = nil
	e.stopped++
	if e.stopped > purgeFloor && 2*e.stopped > len(e.pq) {
		e.purge()
	}
	return true
}

// Fired reports whether the callback ran — inside the callback too, which
// is how a callee tells the timer that is firing from a stale one. Once the
// slot is recycled for a newer timer the handle reads false; engines only
// consult Fired between arming and the next re-arm, where the answer is
// exact.
func (t Timer) Fired() bool {
	if t.e == nil || int(t.idx) >= len(t.e.timers) {
		return false
	}
	sl := &t.e.timers[t.idx]
	return sl.gen == t.gen && sl.state == slotFired
}
