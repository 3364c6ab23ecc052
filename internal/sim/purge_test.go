package sim

import (
	"container/heap"
	"slices"
	"testing"

	"rmcast/internal/rng"
)

// Differential test of the stopped-timer purge: the engine runs a random
// program of plain events, timer arms, stops and re-arms against a
// reference calendar that never purges — a binary heap in which a stopped
// timer stays queued and pops as a no-op, counted and advancing the clock.
// Both must fire the same events in the same order, answer every Stop alike,
// and end on the same Processed count and end instant.

// calendar is the surface the random program drives.
type calendar interface {
	now() float64
	schedule(at float64, id int)
	arm(d float64, id int) int // returns a handle index
	stop(h int) bool
}

// program is one side's copy of the random program: its own rng stream,
// which stays in step with the other side's only while both fire the same
// events in the same order. live lists the armed timers' handles; pos maps
// a handle to its place in live, -1 once it fired or stopped.
type program struct {
	r      *rng.Rand
	nextID int
	maxID  int
	live   []int
	pos    []int
	fired  []int
	stops  []bool
}

// delay draws an offset up to limit, often an exact small integer so that
// instants tie and the schedule-order tie-break is exercised.
func (p *program) delay(limit float64) float64 {
	if p.r.Bool(0.3) {
		return float64(p.r.Intn(4))
	}
	return p.r.Float64() * limit
}

func (p *program) id() int {
	p.nextID++
	return p.nextID
}

// arm arms a timer and records its handle as live.
func (p *program) arm(c calendar, d float64) {
	h := c.arm(d, p.id())
	p.pos = append(p.pos, len(p.live))
	p.live = append(p.live, h)
}

// stop stops handle h, records the answer, and drops h from live.
func (p *program) stop(c calendar, h int) {
	p.stops = append(p.stops, c.stop(h))
	p.drop(h)
}

func (p *program) drop(h int) {
	i := p.pos[h]
	if i < 0 {
		return
	}
	last := p.live[len(p.live)-1]
	p.live[i], p.pos[last] = last, i
	p.live = p.live[:len(p.live)-1]
	p.pos[h] = -1
}

// fire records id (fired by timer h, or -1 for a plain event) and performs
// a few random operations, mostly SRM's suppression step: stop a timer and
// arm its replacement. Timers run long and plain events short, as
// suppression timers outlast the deliveries that stop them; that is what
// lets stopped timers pile up.
func (p *program) fire(c calendar, id, h int) {
	p.fired = append(p.fired, id)
	if h >= 0 {
		p.drop(h)
	}
	if p.nextID >= p.maxID {
		return
	}
	for k := p.r.Intn(4); k > 0; k-- {
		switch op := p.r.Intn(10); {
		case op < 2:
			c.schedule(c.now()+p.delay(5), p.id())
		case op < 3:
			p.arm(c, p.delay(200))
		case op < 4:
			// Any handle ever issued: fired and stopped ones answer false.
			p.stop(c, p.r.Intn(len(p.pos)))
		case len(p.live) == 0:
		case op < 5:
			p.stop(c, p.live[p.r.Intn(len(p.live))])
		default:
			p.stop(c, p.live[p.r.Intn(len(p.live))])
			p.arm(c, p.delay(200))
		}
	}
}

// seed arms the program's opening population directly on the calendar.
func (p *program) seed(c calendar, timers, plain int) {
	for i := 0; i < timers; i++ {
		p.arm(c, p.r.Float64()*100)
	}
	for i := 0; i < plain; i++ {
		c.schedule(p.r.Float64()*100, p.id())
	}
}

// engineCal drives the real engine.
type engineCal struct {
	e      *Engine
	p      *program
	timers []Timer
}

func (c *engineCal) now() float64                { return c.e.Now() }
func (c *engineCal) schedule(at float64, id int) { c.e.ScheduleCall(at, c, 0, id, 0) }
func (c *engineCal) stop(h int) bool             { return c.timers[h].Stop() }
func (c *engineCal) arm(d float64, id int) int {
	c.timers = append(c.timers, c.e.NewTimerCall(d, c, 1, id, len(c.timers)))
	return len(c.timers) - 1
}

func (c *engineCal) OnSimEvent(op, a, b int) {
	if op == 1 && !c.timers[b].Fired() {
		panic("sim: timer callback ran for a timer that is not firing")
	}
	h := -1
	if op == 1 {
		h = b
	}
	c.p.fire(c, a, h)
}

// refEntry is one reference calendar entry; timer is -1 for plain events.
type refEntry struct {
	at    float64
	seq   uint64
	id    int
	timer int
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refCal is the reference: no purge, stopped timers pop as no-ops.
type refCal struct {
	pq        refHeap
	clock     float64
	seq       uint64
	processed uint64
	state     []uint8
	p         *program
}

func (c *refCal) now() float64 { return c.clock }
func (c *refCal) schedule(at float64, id int) {
	c.seq++
	heap.Push(&c.pq, refEntry{at: at, seq: c.seq, id: id, timer: -1})
}
func (c *refCal) arm(d float64, id int) int {
	c.seq++
	c.state = append(c.state, slotArmed)
	heap.Push(&c.pq, refEntry{at: c.clock + d, seq: c.seq, id: id, timer: len(c.state) - 1})
	return len(c.state) - 1
}
func (c *refCal) stop(h int) bool {
	if c.state[h] != slotArmed {
		return false
	}
	c.state[h] = slotStopped
	return true
}

func (c *refCal) runBefore(t float64) {
	for len(c.pq) > 0 && c.pq[0].at < t {
		ev := heap.Pop(&c.pq).(refEntry)
		c.clock = ev.at
		c.processed++
		if ev.timer >= 0 {
			if c.state[ev.timer] != slotArmed {
				continue
			}
			c.state[ev.timer] = slotFired
		}
		c.p.fire(c, ev.id, ev.timer)
	}
}

func TestPurgeMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, windowed := range []bool{false, true} {
			eng := &engineCal{e: NewEngine(), p: &program{r: rng.New(seed), maxID: 40000}}
			ref := &refCal{p: &program{r: rng.New(seed), maxID: 40000}}
			eng.p.seed(eng, 3000, 200)
			ref.p.seed(ref, 3000, 200)

			injected, belowPurged := 0, 0
			if windowed {
				// Conservative-window style: drain below a horizon, then
				// inject a delivery between the clock and the horizon, as
				// a shard does with remote arrivals. The engine's clock
				// must never have jumped to a purged instant.
				for h := 5.0; eng.e.Pending() > 0 || len(ref.pq) > 0; h += 5 {
					eng.e.RunBefore(h)
					ref.runBefore(h)
					if eng.e.Now() >= h {
						t.Fatalf("seed %d: clock %v reached the horizon %v", seed, eng.e.Now(), h)
					}
					if eng.p.nextID >= eng.p.maxID {
						continue
					}
					at := (max(eng.e.Now(), ref.clock) + h) / 2
					if at < eng.e.purgedAt {
						belowPurged++
					}
					injected++
					id := eng.p.id()
					ref.p.id()
					eng.schedule(at, id)
					ref.schedule(at, id)
				}
			} else {
				eng.e.Run(0)
				ref.runBefore(1e18)
			}

			name := map[bool]string{false: "whole run", true: "windows"}[windowed]
			if !slices.Equal(eng.p.fired, ref.p.fired) {
				t.Fatalf("seed %d %s: firing order diverged (%d vs %d events fired)",
					seed, name, len(eng.p.fired), len(ref.p.fired))
			}
			if !slices.Equal(eng.p.stops, ref.p.stops) {
				t.Fatalf("seed %d %s: Stop answers diverged", seed, name)
			}
			if got, want := eng.e.Processed(), ref.processed; got != want {
				t.Fatalf("seed %d %s: Processed %d, reference %d", seed, name, got, want)
			}
			if got, want := eng.e.EndTime(), ref.clock; got != want {
				t.Fatalf("seed %d %s: EndTime %v, reference clock %v", seed, name, got, want)
			}
			if eng.e.purgedAt == 0 {
				t.Fatalf("seed %d %s: no purge ran — the test exercised nothing", seed, name)
			}
			if windowed && belowPurged == 0 {
				t.Fatalf("seed %d: no delivery was injected below a purged instant (%d injected)", seed, injected)
			}
		}
	}
}
