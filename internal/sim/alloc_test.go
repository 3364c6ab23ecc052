package sim

import (
	"testing"

	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// Allocation-budget regression gates for the zero-allocation event core.
// These are hard limits, not benchmarks: a change that reintroduces per-event
// or per-hop allocation fails the suite.

// TestAllocsScheduleStep locks the steady-state schedule→fire cycle at zero
// allocations once the calendar's backing array has reached capacity.
func TestAllocsScheduleStep(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm-up: grow the heap's backing array past anything the measured
	// loop will need, then drain.
	for i := 0; i < 64; i++ {
		e.Schedule(e.Now()+1, fn)
	}
	e.Run(0)
	if avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}); avg != 0 {
		t.Fatalf("Schedule+Step allocates %v per cycle, want 0", avg)
	}
}

type countingCallee struct{ fired int }

func (c *countingCallee) OnSimEvent(op, a, b int) { c.fired++ }

// TestAllocsScheduleCall locks the typed-callback path at zero allocations:
// opcode and arguments ride inside the event, no closure is built.
func TestAllocsScheduleCall(t *testing.T) {
	e := NewEngine()
	c := &countingCallee{}
	for i := 0; i < 64; i++ {
		e.ScheduleCall(e.Now()+1, c, 1, i, i)
	}
	e.Run(0)
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(e.Now()+1, c, 1, 2, 3)
		e.Step()
	}); avg != 0 {
		t.Fatalf("ScheduleCall+Step allocates %v per cycle, want 0", avg)
	}
	if c.fired == 0 {
		t.Fatal("callee never fired")
	}
}

// TestAllocsTimerCycle locks a full arm→fire timer cycle at zero
// allocations: the callee and its arguments live in a recycled engine slot.
// The second half is SRM's suppression pattern — stop a timer and arm its
// replacement — run long enough that the stopped timers are purged from the
// calendar over and over; purging allocates nothing either.
func TestAllocsTimerCycle(t *testing.T) {
	e := NewEngine()
	c := &countingCallee{}
	for i := 0; i < 64; i++ {
		e.NewTimerCall(1, c, 1, i, i)
	}
	e.Run(0)
	if avg := testing.AllocsPerRun(1000, func() {
		e.NewTimerCall(1, c, 1, 2, 3)
		e.Step()
	}); avg != 0 {
		t.Fatalf("NewTimerCall+fire allocates %v per cycle, want 0", avg)
	}
	if c.fired == 0 {
		t.Fatal("callee never fired")
	}

	tm := e.NewTimerCall(10, c, 1, 0, 0)
	rearm := func() {
		tm.Stop()
		tm = e.NewTimerCall(10, c, 1, 0, 0)
	}
	for i := 0; i < 4*purgeFloor; i++ {
		rearm() // warm: the calendar and timer arena reach their peak
	}
	before := e.Processed()
	if avg := testing.AllocsPerRun(4*purgeFloor, rearm); avg != 0 {
		t.Fatalf("Stop+NewTimerCall allocates %v per cycle, want 0", avg)
	}
	if e.Processed() == before {
		t.Fatal("no stopped timer was purged — the measurement exercised nothing")
	}
	if e.Pending() > 2*purgeFloor+2 {
		t.Fatalf("calendar holds %d events, want stopped timers purged", e.Pending())
	}
}

// TestAllocsQueuedUnicastHop budgets a queued-model unicast at one
// allocation per hop at most; with the pooled walkers it is in fact zero
// once the pool is warm.
func TestAllocsQueuedUnicastHop(t *testing.T) {
	topo, err := topology.Chain(3, 2.0, nil) // src —4 links→ client
	if err != nil {
		t.Fatal(err)
	}
	tree, err := mtree.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	n := NewNet(eng, topo, tree, route.Build(topo), rng.New(1))
	n.Queue = NewQueueModelSized(0.1, topo.G.NumEdges())
	deliveries := 0
	n.SetHandler(topo.Clients[0], func(Packet) { deliveries++ })
	send := func() {
		n.Unicast(topo.Clients[0], Packet{Kind: Request, From: topo.Source, Seq: 1})
		eng.Run(0)
	}
	send() // warm the walker pool and calendar
	const hops = 4
	avg := testing.AllocsPerRun(200, send)
	if perHop := avg / hops; perHop > 1 {
		t.Fatalf("queued unicast allocates %v per hop (%v per packet), want ≤ 1", perHop, avg)
	}
	if deliveries == 0 {
		t.Fatal("no deliveries — the measurement exercised nothing")
	}
}

// TestAllocsQueuedFlood budgets a whole queued tree flood: fan-out walkers
// come from the pool, so a warm flood allocates nothing.
func TestAllocsQueuedFlood(t *testing.T) {
	topo, err := topology.Binary(3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := mtree.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	n := NewNet(eng, topo, tree, route.Build(topo), rng.New(1))
	n.Queue = NewQueueModelSized(0.1, topo.G.NumEdges())
	for _, c := range topo.Clients {
		n.SetHandler(c, func(Packet) {})
	}
	send := func() {
		n.MulticastFromSource(Packet{Kind: Data, Seq: 1, From: topo.Source})
		eng.Run(0)
	}
	send()
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("queued flood allocates %v per multicast, want 0", avg)
	}
}

// BenchmarkEngineScheduleStep measures the raw calendar hot loop.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(e.Now()+1, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}
}
