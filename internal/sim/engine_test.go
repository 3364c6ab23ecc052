package sim

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(5, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(9, func() { order = append(order, 3) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 9 {
		t.Fatalf("clock %v, want 9", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(3, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("past scheduling did not panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var at float64
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		if depth < 100 {
			depth++
			e.After(1, rec)
		}
	}
	e.After(0, rec)
	n := e.Run(0)
	if depth != 100 || n != 101 {
		t.Fatalf("nested chain depth %d events %d", depth, n)
	}
	if e.Now() != 100 {
		t.Fatalf("clock %v, want 100", e.Now())
	}
}

func TestRunMaxEvents(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() {})
	}
	if n := e.Run(4); n != 4 {
		t.Fatalf("Run(4) executed %d", n)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending %d, want 6", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Schedule(2, func() { fired++ })
	e.Schedule(5, func() { fired++ })
	e.RunUntil(3)
	if fired != 2 {
		t.Fatalf("RunUntil(3) fired %d, want 2", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("clock %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if fired != 3 || e.Now() != 10 {
		t.Fatal("RunUntil(10) did not drain")
	}
}

// callFunc adapts a plain function to Callee for tests.
type callFunc func(op, a, b int)

func (f callFunc) OnSimEvent(op, a, b int) { f(op, a, b) }

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.NewTimerCall(5, callFunc(func(int, int, int) { fired = true }), 0, 0, 0)
	if !tm.Stop() {
		t.Fatal("Stop on pending timer should return true")
	}
	if tm.Stop() {
		t.Fatal("double Stop should return false")
	}
	e.Run(0)
	if fired || tm.Fired() {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerFires(t *testing.T) {
	e := NewEngine()
	var tm Timer
	var got [3]int
	firedInside := false
	tm = e.NewTimerCall(5, callFunc(func(op, a, b int) {
		got = [3]int{op, a, b}
		firedInside = tm.Fired()
	}), 7, -3, 1<<20)
	e.Run(0)
	if got != [3]int{7, -3, 1 << 20} || !tm.Fired() {
		t.Fatalf("timer did not fire with its arguments: %v", got)
	}
	if !firedInside {
		t.Fatal("Fired is false inside the firing timer's own callback")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing should return false")
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run(0)
	if e.Processed() != 7 {
		t.Fatalf("processed %d, want 7", e.Processed())
	}
}

func TestScheduleRejectsNonFinite(t *testing.T) {
	e := NewEngine()
	for _, bad := range []float64{nan(), inf()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Schedule(%v) did not panic", bad)
				}
			}()
			e.Schedule(bad, func() {})
		}()
	}
}

func nan() float64 { return inf() - inf() }
func inf() float64 { x := 1.0; return x / (x - 1) }
