// Command benchdiff compares two benchmark captures produced by
// `make bench-json` (`go test -json -bench ...`) and fails when a tracked
// benchmark regressed in ns/op or allocs/op by more than the threshold.
//
// Usage:
//
//	benchdiff OLD.json NEW.json
//	benchdiff -threshold 0.10 -track '^BenchmarkFigure5/' OLD.json NEW.json
//
// The two captures must come from the same host: benchdiff reads each
// capture's "cpu:" header and the GOMAXPROCS suffix of its benchmark names
// (none means 1) and exits 2, naming both hosts, when they differ.
//
// Only benchmarks whose names match -track gate the exit status (the
// default tracks the paper-figure macro benchmarks, the batch planner, and
// the parallel-engine cells); everything else is reported for information. Improvements never fail.
// Allocation gating additionally requires the absolute increase to be at
// least two allocations (one can be measurement noise), so the planner's
// zero-allocation steady state cannot decay silently while one-off jitter
// never fails a build. Wall-clock gating has a floor of its own (-minns,
// default 5 ms/op): cells faster than that cannot be held to a 10% band
// at a handful of iterations — scheduler noise between two captures
// routinely exceeds it — so they gate on allocs/op only, which is exact.
//
// Two further rules serve the strategy-service cells:
//
//   - Tail-latency gating: cells reporting a p99-ns/op metric
//     (BenchmarkStrategyService) gate on it with a wider band
//     (-p99threshold, default 50%). A p99 of a ~50 ns wait-free read is
//     scheduler-sensitive at the ±1-bucket level, but the regression this
//     gate exists to catch — a lock or a retry loop on the read path — is
//     a 10–100× blowup, far outside any noise band.
//   - Alloc-gate skip (-allocskip): background-churn cells inherit the
//     applier goroutine's replanning allocations at a nondeterministic
//     phase, so their allocs/op is not comparable between captures; the
//     churn-free twin cells carry the zero-alloc read-path contract
//     instead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchLine matches a self-contained benchmark result line, e.g.
// "BenchmarkFigure5/n=50/SRM-8   30   5614447 ns/op ...". The trailing -N
// GOMAXPROCS suffix is stripped from the reported name.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// nameField matches the padded name a benchmark prints before its numbers
// when test2json flushes them as separate events, e.g.
// "BenchmarkFigure5/n=50/SRM-8   \t"; it carries the GOMAXPROCS suffix too.
var nameField = regexp.MustCompile(`^Benchmark\S+?(-\d+)?\s*\t`)

// nsOnly matches the numbers-only form test2json emits when the benchmark
// name was flushed in an earlier output event; the name then rides in the
// event's Test field.
var nsOnly = regexp.MustCompile(`^\s*\d+\t\s*([0-9.]+) ns/op`)

// allocsPer matches the -benchmem allocation column on either line form.
var allocsPer = regexp.MustCompile(`\s(\d+) allocs/op`)

// p99Per matches the p99-ns/op custom metric the strategy-service
// benchmark reports (either line form).
var p99Per = regexp.MustCompile(`\s([0-9.]+) p99-ns/op`)

// testEvent is the subset of the `go test -json` event stream we read.
type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// result is one benchmark's captured metrics. Allocs is only meaningful
// when HasAllocs is set (the capture ran with -benchmem); P99 when HasP99
// is set (the cell reports p99-ns/op).
type result struct {
	Ns        float64
	Allocs    float64
	HasAllocs bool
	P99       float64
	HasP99    bool
}

// host identifies the machine a capture ran on: the distinct "cpu:"
// headers and GOMAXPROCS values it contains, each sorted and joined.
type host struct{ cpu, procs string }

func (h host) String() string { return fmt.Sprintf("cpu %q, GOMAXPROCS %s", h.cpu, h.procs) }

// hostMismatch reports an error naming both hosts when two captures come
// from different machines or GOMAXPROCS settings.
func hostMismatch(oldPath string, old host, newPath string, new host) error {
	if old == new {
		return nil
	}
	return fmt.Errorf("captures come from different hosts: %s (%s) vs %s (%s)", oldPath, old, newPath, new)
}

// parse extracts benchmark name → metrics from a capture file. A benchmark
// appearing several times (bench-json appends whole suite passes; -count
// also works) keeps its *minimum* ns/op: repeat samples minutes apart see
// independent draws of the host's CPU steal, and since steal only ever
// inflates a timing, the minimum is the robust estimator of the true cost.
// Allocs keep the maximum, so an allocation regression can never hide
// behind one lucky sample.
func parse(path string) (map[string]result, host, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, host{}, err
	}
	defer f.Close()
	res := make(map[string]result)
	cpus, procs := map[string]bool{}, map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON lines (raw bench output)
		}
		if ev.Action != "output" {
			continue
		}
		if cpu, ok := strings.CutPrefix(ev.Output, "cpu: "); ok {
			cpus[strings.TrimSpace(cpu)] = true
		}
		m := benchLine.FindStringSubmatch(ev.Output)
		if m != nil {
			procs[gomaxprocs(m[2])] = true
		} else if n := nameField.FindStringSubmatch(ev.Output); n != nil {
			procs[gomaxprocs(n[1])] = true
		}
		if !strings.Contains(ev.Output, " ns/op") {
			continue
		}
		name, val := ev.Test, ""
		if m != nil {
			if name == "" {
				name = m[1]
			}
			val = m[3]
		} else if name != "" {
			if m := nsOnly.FindStringSubmatch(ev.Output); m != nil {
				val = m[1]
			}
		}
		if name == "" || val == "" {
			continue
		}
		var r result
		if _, err := fmt.Sscanf(val, "%g", &r.Ns); err != nil {
			continue
		}
		if m := allocsPer.FindStringSubmatch(ev.Output); m != nil {
			fmt.Sscanf(m[1], "%g", &r.Allocs)
			r.HasAllocs = true
		}
		if m := p99Per.FindStringSubmatch(ev.Output); m != nil {
			fmt.Sscanf(m[1], "%g", &r.P99)
			r.HasP99 = true
		}
		if prev, ok := res[name]; ok {
			if prev.Ns < r.Ns {
				r.Ns = prev.Ns
			}
			if prev.HasAllocs {
				if !r.HasAllocs || prev.Allocs > r.Allocs {
					r.Allocs = prev.Allocs
				}
				r.HasAllocs = true
			}
			// Like ns/op, p99 keeps the minimum: contention from host
			// noise only ever inflates the tail.
			if prev.HasP99 {
				if !r.HasP99 || prev.P99 < r.P99 {
					r.P99 = prev.P99
				}
				r.HasP99 = true
			}
		}
		res[name] = r
	}
	if err := sc.Err(); err != nil {
		return nil, host{}, err
	}
	if len(res) == 0 {
		return nil, host{}, fmt.Errorf("%s: no benchmark results found", path)
	}
	return res, host{cpu: joinKeys(cpus), procs: joinKeys(procs)}, nil
}

// gomaxprocs turns a benchmark name's -N suffix into N; a name without one
// ran at GOMAXPROCS 1.
func gomaxprocs(suffix string) string {
	if suffix == "" {
		return "1"
	}
	return suffix[1:]
}

// joinKeys returns a set's members sorted and comma-joined.
func joinKeys(set map[string]bool) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// allocsRegressed applies the allocation gate: relative growth past the
// threshold AND an absolute increase of at least two allocations, or any
// departure from a previously zero-allocation benchmark.
func allocsRegressed(old, new, threshold float64) bool {
	if old == 0 {
		return new >= 2
	}
	return (new-old)/old > threshold && new-old >= 2
}

func main() {
	threshold := flag.Float64("threshold", 0.10,
		"maximum tolerated ns/op or allocs/op regression on tracked benchmarks (fraction)")
	track := flag.String("track", `^BenchmarkFigure5/|^BenchmarkPlanAll|^BenchmarkParallelEngine|^BenchmarkHierarchicalDomains|^BenchmarkCoopRecovery|^BenchmarkFailover|^BenchmarkStrategyService`,
		"regexp of benchmark names that gate the exit status")
	minNs := flag.Float64("minns", 5e6,
		"ns/op floor for wall-clock gating: cells faster than this only gate on allocs/op (few-iteration timings of small cells are scheduler noise)")
	p99Threshold := flag.Float64("p99threshold", 0.50,
		"maximum tolerated p99-ns/op regression on tracked benchmarks (fraction; wide because a wait-free read's tail is bucket- and scheduler-quantised, while the failure mode this catches — a lock on the read path — is orders of magnitude)")
	allocSkip := flag.String("allocskip", `^BenchmarkStrategyService/.*churn=[1-9]`,
		"regexp of benchmark names whose allocs/op is nondeterministic (background-churn cells) and therefore not alloc-gated")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] OLD.json NEW.json")
		os.Exit(2)
	}
	tracked, err := regexp.Compile(*track)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: bad -track: %v\n", err)
		os.Exit(2)
	}
	allocSkipped, err := regexp.Compile(*allocSkip)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: bad -allocskip: %v\n", err)
		os.Exit(2)
	}
	oldRes, oldHost, err := parse(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newRes, newHost, err := parse(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if err := hostMismatch(flag.Arg(0), oldHost, flag.Arg(1), newHost); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(newRes))
	for name := range newRes {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tdelta\told allocs\tnew allocs\told p99\tnew p99\tstatus")
	for _, name := range names {
		nw := newRes[name]
		newAllocs, newP99 := "-", "-"
		if nw.HasAllocs {
			newAllocs = fmt.Sprintf("%.0f", nw.Allocs)
		}
		if nw.HasP99 {
			newP99 = fmt.Sprintf("%.0f", nw.P99)
		}
		old, ok := oldRes[name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t%.0f\t-\t-\t%s\t-\t%s\tnew\n", name, nw.Ns, newAllocs, newP99)
			continue
		}
		oldAllocs, oldP99 := "-", "-"
		if old.HasAllocs {
			oldAllocs = fmt.Sprintf("%.0f", old.Allocs)
		}
		if old.HasP99 {
			oldP99 = fmt.Sprintf("%.0f", old.P99)
		}
		delta := (nw.Ns - old.Ns) / old.Ns
		status := "untracked"
		if tracked.MatchString(name) {
			status = "ok"
			if delta > *threshold && old.Ns >= *minNs {
				status = "REGRESSION"
				failed = true
			}
			if old.HasAllocs && nw.HasAllocs && !allocSkipped.MatchString(name) &&
				allocsRegressed(old.Allocs, nw.Allocs, *threshold) {
				status = "REGRESSION(allocs)"
				failed = true
			}
			if old.HasP99 && nw.HasP99 && old.P99 > 0 && (nw.P99-old.P99)/old.P99 > *p99Threshold {
				status = "REGRESSION(p99)"
				failed = true
			}
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%+.1f%%\t%s\t%s\t%s\t%s\t%s\n",
			name, old.Ns, nw.Ns, 100*delta, oldAllocs, newAllocs, oldP99, newP99, status)
	}
	for name := range oldRes {
		if _, ok := newRes[name]; !ok {
			fmt.Fprintf(tw, "%s\t%.0f\t-\t-\t-\t-\t-\t-\tremoved\n", name, oldRes[name].Ns)
		}
	}
	tw.Flush()
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: tracked benchmark regressed more than %.0f%%\n", *threshold*100)
		os.Exit(1)
	}
}
