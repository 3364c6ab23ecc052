package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one cell (one simulated
// group, or one planning-service instance) share Cell; Parent is the ID of
// the enclosing span, -1 at the top.
type span struct {
	Cell   int    `json:"cell"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times the benchmark's calls into the program's layers. It always
// reads the clock, because the end-to-end metrics need the durations; it
// records spans only while on, and keeps them in memory until the run ends.
type tracer struct {
	on    bool
	base  time.Time
	cell  int
	spans []span
	open  []int // indexes into spans of the enclosing open spans
}

func newTracer() *tracer { return &tracer{base: time.Now(), cell: -1} }

// mark is an open span: its start time and, when recorded, its index.
type mark struct {
	start time.Time
	idx   int
}

// newCell starts a new span group.
func (t *tracer) newCell() { t.cell++ }

func (t *tracer) begin(name string) mark {
	now := time.Now()
	if !t.on {
		return mark{start: now, idx: -1}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Cell: t.cell, ID: idx, Parent: parent, Name: name,
		Start: int64(now.Sub(t.base))})
	t.open = append(t.open, idx)
	return mark{start: now, idx: idx}
}

// end closes the span and returns its duration.
func (t *tracer) end(m mark) time.Duration {
	now := time.Now()
	if m.idx >= 0 {
		t.spans[m.idx].End = int64(now.Sub(t.base))
		t.open = t.open[:len(t.open)-1]
	}
	return now.Sub(m.start)
}

// durations returns the recorded durations of every span with this name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// layerTime is one span name's total and self time over a run.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, the total time and the self time: a span's
// duration minus the part of it its child spans cover. Children of one span
// never overlap, because every span is opened and closed on the benchmark's
// main goroutine.
func selfTimes(spans []span) []layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	for i, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalMs += float64(d) / 1e6
		lt.SelfMs += float64(d-child[i]) / 1e6
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}
