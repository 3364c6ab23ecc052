package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/strategysvc"
)

// endToEndNames and perLayerNames are the metric names BENCHMARK.json
// declares; every run must report exactly these.
var endToEndNames = []string{"wall_s", "setup_s", "alloc_mb", "live_heap_mb", "recovery_ms",
	"recovery_hops", "delivery_ratio"}

// serviceNames are the ungated end-to-end metrics of the service-only
// workload.
var serviceNames = []string{"svc_lag_p50_ms", "svc_lag_p99_ms", "svc_churn_per_s", "svc_queries_per_s"}

var perLayerNames = []string{
	"topology.gen_ms", "topology.nodes", "topology.links", "mtree.build_ms",
	"route.build_ms", "route.tables", "route.setup_share",
	"core.planall_ms", "core.fastpath", "core.roster_op_us",
	"protocol.session_ms", "protocol.run_ms", "protocol.sharded", "protocol.shard_speedup",
	"protocol.recoveries", "protocol.duplicates", "protocol.useful_repair_ratio",
	"protocol.request_hops_per_recovery", "protocol.coded_symbols", "protocol.coded_dup_ratio",
	"protocol.failovers", "protocol.malformed",
	"sim.events", "sim.events_per_s", "sim.allocs_per_event", "sim.bytes_per_event",
	"sim.hops.data", "sim.hops.request", "sim.hops.repair",
	"sim.drops.data", "sim.drops.request", "sim.drops.repair",
	"check.overhead_ms", "check.violations", "fault.generate_ms", "fault.crashed_undelivered",
	"strategysvc.new_ms", "strategysvc.publishes", "strategysvc.mean_batch", "strategysvc.max_batch",
	"strategysvc.applied", "strategysvc.rejected", "strategysvc.backlog_max",
	"strategysvc.gen_late_ms", "strategysvc.get_ns_mean",
	"go.gc_cycles", "go.gc_pause_ms", "trace.overhead_pct",
}

func checkMetrics(t *testing.T, name string, m map[string]metric, want []string) {
	t.Helper()
	w := append([]string(nil), want...)
	sort.Strings(w)
	if got := sortedNames(m); !reflect.DeepEqual(got, w) {
		t.Fatalf("%s: metrics %v, want %v", name, got, w)
	}
	for n, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v", name, n, v.Value)
		}
	}
}

// TestWorkloadsReduced runs every workload at reduced size, untraced and
// traced, and checks that each run is correct and reports exactly the
// declared metrics.
func TestWorkloadsReduced(t *testing.T) {
	for _, w := range workloads() {
		w := w.shrink()
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, err := runWorkload(w, 7, 0.1, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d failed: %v", traced, rep.Failed, rep.Attempted, rep.Problems)
				}
				want := endToEndNames
				if traced {
					want = perLayerNames
				}
				checkMetrics(t, w.name, rep.Metrics, want)
				if traced {
					continue
				}
				for _, n := range endToEndNames {
					if !(rep.Metrics[n].Value > 0) {
						t.Errorf("%s = %v, want > 0", n, rep.Metrics[n].Value)
					}
				}
				if len(w.protocols) == 0 {
					checkMetrics(t, w.name+" ungated", rep.Ungated, serviceNames)
				} else if len(rep.Ungated) != 0 {
					t.Errorf("ungated metrics %v on a simulation workload", rep.Ungated)
				}
			}
		})
	}
}

// TestSameSeedSameResults holds the benchmark's determinism: two runs of
// one seed simulate identical cells, churn identically, and report
// identical simulated and modelled metrics; another seed changes them.
func TestSameSeedSameResults(t *testing.T) {
	for _, w := range workloads() {
		w, name := w.shrink(), w.name
		a, err := runWorkload(w, 3, 0.1, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(w, 3, 0.1, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"recovery_ms", "recovery_hops", "delivery_ratio"} {
			if a.Metrics[n] != b.Metrics[n] {
				t.Errorf("%s: %s %v then %v", name, n, a.Metrics[n], b.Metrics[n])
			}
		}
		if !reflect.DeepEqual(a.Engines, b.Engines) {
			t.Errorf("%s: engine rows differ:\n%+v\n%+v", name, a.Engines, b.Engines)
		}
		c, err := runWorkload(w, 4, 0.1, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.Metrics["recovery_ms"] == c.Metrics["recovery_ms"] {
			t.Errorf("%s: seeds 3 and 4 gave the same recovery_ms", name)
		}
	}
}

// smallCell runs one reduced cell of a workload.
func smallCell(t *testing.T, name string) *cell {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w = w.shrink()
	c, err := w.runCell(w.seeds(5).instance(0), newTracer(), w.defaultCell())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.problems) != 0 {
		t.Fatalf("clean cell reported %v", c.problems)
	}
	return c
}

func results(c *cell) []*protocol.Result {
	out := make([]*protocol.Result, len(c.runs))
	for i, r := range c.runs {
		cp := *r.res
		out[i] = &cp
	}
	return out
}

func wantProblem(t *testing.T, what string, problems []string, substr string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Errorf("%s: problems %v, want one containing %q", what, problems, substr)
}

// TestChecksTrip corrupts real results one field at a time and shows that
// each check reports it.
func TestChecksTrip(t *testing.T) {
	c := smallCell(t, "paper-backbone")
	for _, r := range results(c) {
		if p := checkRun(r); len(p) != 0 {
			t.Fatalf("clean run: %v", p)
		}
		bad := *r
		bad.Complete = false
		wantProblem(t, "incomplete", checkRun(&bad), "event cap")
		bad = *r
		bad.Stats.Unrecovered = 2
		wantProblem(t, "unrecovered", checkRun(&bad), "unrecovered")
		bad = *r
		bad.Violations = []string{"shadow state diverged"}
		wantProblem(t, "violation", checkRun(&bad), "oracle")
	}

	res := results(c)
	if p := checkPaperOrdering(res); len(p) != 0 {
		t.Fatalf("clean ordering: %v", p)
	}
	for i, r := range res {
		if r.Protocol != "RP" {
			continue
		}
		slow := *r
		slow.Stats.Latency = res[0].Stats.Latency // SRM's, the slowest
		slow.Stats.Latency.Add(1e6)
		swapped := append([]*protocol.Result(nil), res...)
		swapped[i] = &slow
		wantProblem(t, "RP slower", checkPaperOrdering(swapped), "RP recovery")
		costly := *r
		costly.Hops.Repair = 1 << 40
		swapped[i] = &costly
		wantProblem(t, "RP repair hops", checkPaperOrdering(swapped), "repair hops")
	}
	wantProblem(t, "missing engine", checkPaperOrdering(res[:2]), "must run")

	tc := smallCell(t, "tree-sharded")
	tres := results(tc)
	if p := checkSharded(tres); len(p) != 0 {
		t.Fatalf("clean sharded run: %v", p)
	}
	tres[0].Sharded, tres[0].SerialReason = false, "test"
	wantProblem(t, "not sharded", checkSharded(tres), "did not shard")

	want := cellDigests(tc)
	if p := checkSameDigests("twin", want, want); len(p) != 0 {
		t.Fatalf("equal digests: %v", p)
	}
	other := append([]string(nil), want...)
	other[0] = "0000000000000000"
	wantProblem(t, "digest", checkSameDigests("serial twin", want, other), "serial twin")

	if p := checkEpochs([]uint64{0, 3, 3, 9}); len(p) != 0 {
		t.Fatalf("monotone epochs: %v", p)
	}
	wantProblem(t, "epoch", checkEpochs([]uint64{0, 5, 4}), "went back")
}

// TestServiceCheckTrips runs a small planning service and corrupts its
// final snapshot and its expected membership.
func TestServiceCheckTrips(t *testing.T) {
	w, err := findWorkload("svc-churn")
	if err != nil {
		t.Fatal(err)
	}
	w = w.shrink()
	topo, err := w.topology(w.groupSeed)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := mtree.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPlanner(tree, route.NewTreeTables(tree))
	svc := strategysvc.New(p, strategysvc.Config{})
	ops, final := churnPlan(tree.Clients, 300, 20, rng.New(9))
	for _, o := range ops {
		if o.join {
			svc.Join(o.node)
		} else {
			svc.Leave(o.node)
		}
	}
	svc.Flush()
	svc.Close()
	snap := svc.Snapshot()
	if pr := checkFinalSnapshot(snap, p, final, uint64(len(ops))); len(pr) != 0 {
		t.Fatalf("clean snapshot: %v", pr)
	}
	wantProblem(t, "epoch", checkFinalSnapshot(snap, p, final, uint64(len(ops)+1)), "final epoch")
	wantProblem(t, "membership", checkFinalSnapshot(snap, p, final[1:], uint64(len(ops))), "active")

	strategies := snap.Strategies()
	for i, s := range strategies {
		if s == nil {
			continue
		}
		saved := *s
		strategies[i].ExpectedDelay++
		wantProblem(t, "strategy", checkFinalSnapshot(snap, p, final, uint64(len(ops))), "final strategies")
		*strategies[i] = saved
		break
	}
}

// TestPoolRefusesMixedStamps writes result files from two hosts and shows
// that neither pool nor compare mixes them.
func TestPoolRefusesMixedStamps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, st stamp) string {
		path := filepath.Join(dir, name)
		rep := &report{Stamp: st, Workload: "svc-churn", Correct: true,
			Metrics: map[string]metric{"wall_s": {1, "s"}}}
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := hostStamp(1)
	a := write("a.json", host)
	b := write("b.json", hostStamp(2))
	other := host
	other.GOMAXPROCS++
	c := write("c.json", other)
	if _, err := loadPool([]string{a, b}); err != nil {
		t.Fatalf("same host, two seeds: %v", err)
	}
	if _, err := loadPool([]string{a, c}); err == nil || !strings.Contains(err.Error(), "host") {
		t.Fatalf("mixed hosts pooled: %v", err)
	}
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if code := compareMain([]string{a, "--", c}, devnull, devnull); code == 0 {
		t.Fatal("compare accepted results from two hosts")
	}
	if code := compareMain([]string{a, "--", b}, devnull, devnull); code == 0 {
		t.Fatal("compare accepted pools of different seeds")
	}
	if code := compareMain([]string{a, "--", a}, devnull, devnull); code != 0 {
		t.Fatal("compare refused identical pools")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 7.625},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestSelfTimes checks that a parent's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "cell", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "setup", Start: 0, End: 30},
		{ID: 2, Parent: 1, Name: "topology.gen", Start: 0, End: 10},
		{ID: 3, Parent: 0, Name: "protocol.run", Start: 30, End: 90},
	}
	got := map[string]float64{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l.SelfMs * 1e6
	}
	want := map[string]float64{"cell": 10, "setup": 20, "topology.gen": 10, "protocol.run": 60}
	for n, w := range want {
		if math.Abs(got[n]-w) > 1e-6 {
			t.Errorf("self time of %s = %v ns, want %v", n, got[n], w)
		}
	}
}

// shrink returns a copy of the workload at a reduced size, for tests.
func (w *workload) shrink() *workload {
	s := *w
	if s.treeClients > 0 {
		s.treeClients = 200
	} else {
		s.routers = 120
	}
	s.packets = min(s.packets, 20)
	s.roundFor = 200 * time.Millisecond
	s.churnRate = min(s.churnRate, 500)
	s.roundSat = 100
	s.rounds = 2
	s.maxOut = min(s.maxOut, 20)
	return &s
}
