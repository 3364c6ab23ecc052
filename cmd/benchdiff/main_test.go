package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeCapture(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseReadsNsAndAllocs(t *testing.T) {
	capture := `{"Action":"output","Test":"","Output":"BenchmarkPlanAll/tree/n=5000-8  400  2556000 ns/op  0 B/op  0 allocs/op\n"}
{"Action":"output","Test":"BenchmarkFigure5/n=50/SRM","Output":"  30\t 5614447 ns/op\t 120 B/op\t 7 allocs/op\n"}
{"Action":"output","Test":"","Output":"BenchmarkOld-8  10  99 ns/op\n"}
not json at all
`
	res, _, err := parse(writeCapture(t, "cap.json", capture))
	if err != nil {
		t.Fatal(err)
	}
	tree, ok := res["BenchmarkPlanAll/tree/n=5000"]
	if !ok || tree.Ns != 2556000 || !tree.HasAllocs || tree.Allocs != 0 {
		t.Fatalf("tree cell parsed as %+v (present=%v)", tree, ok)
	}
	srm, ok := res["BenchmarkFigure5/n=50/SRM"]
	if !ok || srm.Ns != 5614447 || !srm.HasAllocs || srm.Allocs != 7 {
		t.Fatalf("split-line cell parsed as %+v (present=%v)", srm, ok)
	}
	// Captures without -benchmem still parse, with allocs unknown.
	old, ok := res["BenchmarkOld"]
	if !ok || old.Ns != 99 || old.HasAllocs {
		t.Fatalf("benchmem-less cell parsed as %+v (present=%v)", old, ok)
	}
}

func TestParseReadsP99(t *testing.T) {
	capture := `{"Action":"output","Test":"","Output":"BenchmarkStrategyService/readers=4/churn=0-8  3  106.5 ns/op  0 batch-mean  40.00 p50-ns/op  56.00 p99-ns/op  9385687 qps  0 B/op  0 allocs/op\n"}
{"Action":"output","Test":"BenchmarkStrategyService/readers=4/churn=0","Output":"  3\t 98.2 ns/op\t 0 batch-mean\t 40.00 p50-ns/op\t 40.00 p99-ns/op\t 10183299 qps\t 0 B/op\t 0 allocs/op\n"}
{"Action":"output","Test":"","Output":"BenchmarkFigure5/n=50/SRM-8  30  5614447 ns/op  120 B/op  7 allocs/op\n"}
`
	res, _, err := parse(writeCapture(t, "cap.json", capture))
	if err != nil {
		t.Fatal(err)
	}
	svc, ok := res["BenchmarkStrategyService/readers=4/churn=0"]
	if !ok || !svc.HasP99 {
		t.Fatalf("service cell parsed as %+v (present=%v)", svc, ok)
	}
	// Min across repeated samples, for p99 and ns alike.
	if svc.P99 != 40 || svc.Ns != 98.2 {
		t.Fatalf("expected min p99=40/ns=98.2, got %+v", svc)
	}
	// The p50-ns/op column must not be mistaken for the p99 metric.
	if svc.P99 == 40 && svc.Allocs != 0 {
		t.Fatalf("allocs misparsed: %+v", svc)
	}
	// Cells without the metric stay p99-less.
	if srm := res["BenchmarkFigure5/n=50/SRM"]; srm.HasP99 {
		t.Fatalf("figure cell grew a p99: %+v", srm)
	}
}

func TestAllocsRegressed(t *testing.T) {
	cases := []struct {
		old, new float64
		want     bool
	}{
		{0, 0, false},
		{0, 1, false}, // one stray allocation is noise
		{0, 8, true},  // zero-alloc contract broken
		{100, 105, false},
		{100, 115, true},   // >10% and ≥2 absolute
		{10, 11, false},    // 10% but only +1 absolute
		{1000, 900, false}, // improvement
	}
	for _, c := range cases {
		if got := allocsRegressed(c.old, c.new, 0.10); got != c.want {
			t.Errorf("allocsRegressed(%v, %v) = %v, want %v", c.old, c.new, got, c.want)
		}
	}
}

// TestHostMismatchRefused pairs a 1-CPU capture (names without a -N
// suffix) with a 2-CPU capture of the same machine, and two captures of
// different CPU models: both pairs must be refused with a message naming
// both hosts, while two captures of one host compare.
func TestHostMismatchRefused(t *testing.T) {
	capture := func(cpu, suffix string) string {
		return `{"Action":"output","Test":"","Output":"cpu: ` + cpu + `\n"}
{"Action":"output","Test":"BenchmarkPlanAll/tree","Output":"BenchmarkPlanAll/tree` + suffix + `    \t"}
{"Action":"output","Test":"BenchmarkPlanAll/tree","Output":"  400\t 2556000 ns/op\t 0 B/op\t 0 allocs/op\n"}
`
	}
	xeon := "Intel(R) Xeon(R) Processor @ 2.10GHz"
	hostOf := func(name, content string) host {
		t.Helper()
		_, h, err := parse(writeCapture(t, name, content))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	one := hostOf("one.json", capture(xeon, ""))
	oneAgain := hostOf("one-again.json", capture(xeon, ""))
	two := hostOf("two.json", capture(xeon, "-2"))
	other := hostOf("other.json", capture("AMD EPYC 7B13", ""))
	if one != (host{cpu: xeon, procs: "1"}) || two != (host{cpu: xeon, procs: "2"}) {
		t.Fatalf("hosts parsed as %v and %v", one, two)
	}
	if err := hostMismatch("one.json", one, "one-again.json", oneAgain); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	for _, c := range []struct {
		new     host
		newName string
	}{{two, "two.json"}, {other, "other.json"}} {
		err := hostMismatch("one.json", one, c.newName, c.new)
		if err == nil {
			t.Fatalf("%s accepted against one.json", c.newName)
		}
		for _, want := range []string{"one.json", one.String(), c.newName, c.new.String()} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("message %q does not name %q", err, want)
			}
		}
	}
}
