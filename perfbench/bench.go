package main

import (
	"fmt"
	"runtime"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/route"
)

// engineRow is one protocol's outcome in a workload's first cell.
type engineRow struct {
	Protocol               string  `json:"protocol"`
	Recoveries             int64   `json:"recoveries"`
	Duplicates             int64   `json:"duplicates"`
	UsefulRatio            float64 `json:"useful_repair_ratio"`
	RequestHopsPerRecovery float64 `json:"request_hops_per_recovery"`
	RepairHopsPerRecovery  float64 `json:"repair_hops_per_recovery"`
	LatencyMs              float64 `json:"latency_ms"`
	CodedSymbols           int64   `json:"coded_symbols"`
	Failovers              int64   `json:"failovers"`
	Malformed              int64   `json:"malformed"`
	Delivery               float64 `json:"delivery_ratio"`
	Sharded                bool    `json:"sharded"`
	SerialReason           string  `json:"serial_reason,omitempty"`
	Digest                 string  `json:"digest"`
}

// runWorkload runs the workload's two stages for the given time and returns
// the end-to-end metrics, or with traced the per-layer ones.
func runWorkload(w *workload, seed uint64, seconds float64, traced bool) (*report, error) {
	sd := w.seeds(seed)
	tr := newTracer()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	rep := &report{Stamp: hostStamp(seed), Workload: w.name, Traced: traced, Seconds: seconds,
		Samples: map[string]int{}}
	fail := func(problems []string) {
		rep.Attempted++
		if len(problems) > 0 {
			rep.Failed++
			rep.Problems = append(rep.Problems, problems...)
		}
	}
	// In the traced run every other instance records spans; comparing the
	// two halves gives the tracing overhead.
	var onWall, offWall []float64

	// Simulation stage: the whole run of a workload with protocols.
	var cells []*cell
	if len(w.protocols) > 0 {
		var walls []float64
		for i := 0; ; i++ {
			tr.on = traced && i%2 == 0
			tr.newCell()
			opt := w.defaultCell()
			opt.memstats = tr.on
			c, err := w.runCell(sd.instance(i), tr, opt)
			if err != nil {
				return nil, err
			}
			fail(c.problems)
			cells = append(cells, c)
			walls = append(walls, c.wall.Seconds())
			if tr.on {
				onWall = append(onWall, c.wall.Seconds())
			} else {
				offWall = append(offWall, c.wall.Seconds())
			}
			if len(cells) >= pooledCells && time.Since(start)+time.Duration(median(walls)*float64(time.Second)) > budget {
				break
			}
		}
	}

	// Service stage: the whole run of the service-only workload. The traced
	// run of a workload with protocols serves its group once, so that the
	// service's layers report on every workload.
	var svcs []*svcRun
	if len(cells) == 0 || traced {
		var lengths []float64
		for i := 0; ; i++ {
			tr.on = traced && i%2 == 0
			tr.newCell()
			t := time.Now()
			s, err := w.runService(sd.instance(i), tr)
			if err != nil {
				return nil, err
			}
			lengths = append(lengths, time.Since(t).Seconds())
			fail(s.problems)
			svcs = append(svcs, s)
			if len(cells) > 0 {
				break
			}
			if tr.on {
				onWall = append(onWall, s.wall.Seconds())
			} else {
				offWall = append(offWall, s.wall.Seconds())
			}
			if len(svcs) >= pooledInstances && time.Since(start)+time.Duration(median(lengths)*float64(time.Second)) > budget {
				break
			}
		}
	}
	rep.Samples["cells"] = len(cells)
	rep.Samples["service_instances"] = len(svcs)

	if !traced {
		rep.Metrics, rep.Ungated = endToEnd(cells, svcs)
		rep.Engines = engineRows(cells)
		rep.Cells = cellRows(cells)
		rep.Rounds = roundRows(allRounds(svcs))
		rep.Samples["svc_rounds"] = len(rep.Rounds)
		rep.Samples["svc_lags"] = len(pooledLags(allRounds(svcs)))
	} else {
		tr.on = true
		tr.newCell()
		pr, err := w.probe(sd, tr, cells, fail)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		rep.Metrics = perLayer(pr, svcs, tr.spans)
		rep.Metrics["go.gc_cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), "count"}
		rep.Metrics["go.gc_pause_ms"] = metric{float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6, "ms"}
		rep.Metrics["trace.overhead_pct"] = metric{100 * (ratio(median(onWall), median(offWall)) - 1), "%"}
		rep.Engines = engineRows(pr.cells)
		rep.Layers = selfTimes(tr.spans)
		rep.Spans = tr.spans
		if r := pr.cells[0].runs; len(r) > 0 && r[0].res.SerialReason != "" {
			rep.Notes = append(rep.Notes, "serial fallback: "+r[0].res.SerialReason)
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("traced run: %d traced and %d untraced instances; setup share of routing %.3f",
			len(onWall), len(offWall), rep.Metrics["route.setup_share"].Value))
	}
	rep.Correct = rep.Failed == 0
	rep.FailRatio = ratio(float64(rep.Failed), float64(rep.Attempted))
	return rep, nil
}

func cellDigests(c *cell) []string {
	out := make([]string, len(c.runs))
	for i, r := range c.runs {
		out[i] = r.digest
	}
	return out
}

func runTotal(c *cell) float64 {
	var t time.Duration
	for _, r := range c.runs {
		t += r.run
	}
	return t.Seconds()
}

func allRounds(svcs []*svcRun) []svcRound {
	var out []svcRound
	for _, s := range svcs {
		out = append(out, s.rounds...)
	}
	return out
}

func pooledLags(rounds []svcRound) []float64 {
	var lags []float64
	for _, r := range rounds {
		lags = append(lags, r.lags...)
	}
	return lags
}

// endToEnd computes the metrics a user of the system sees. The gated ones
// apply to every workload: with a simulation stage they come from its
// cells, and the service-only workload takes them from its service
// instances, where the recovery metrics are the model's view of the served
// strategies. The service metrics apply to the service-only workload alone
// and are reported ungated (README.md, "Noise").
func endToEnd(cells []*cell, svcs []*svcRun) (gated, ungated map[string]metric) {
	med := func(f func(i int) float64, n int) float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return median(xs)
	}
	m := map[string]metric{}
	mb := float64(1 << 20)
	if len(cells) > 0 {
		m["wall_s"] = metric{med(func(i int) float64 { return cells[i].wall.Seconds() }, len(cells)), "s"}
		m["setup_s"] = metric{med(func(i int) float64 { return cells[i].setup.Seconds() }, len(cells)), "s"}
		pooled := cells[:pooledCells]
		var alloc, heap float64
		var t recoveryTotals
		for _, c := range pooled {
			alloc += float64(c.alloc) / mb
			heap += float64(c.liveHeap) / mb
			for _, r := range c.runs {
				t.add(r.res)
			}
		}
		m["alloc_mb"] = metric{alloc / pooledCells, "MB"}
		m["live_heap_mb"] = metric{heap / pooledCells, "MB"}
		m["recovery_ms"] = metric{t.latencyMs(), "ms"}
		m["recovery_hops"] = metric{t.hops(), "hops"}
		m["delivery_ratio"] = metric{t.delivery(), "ratio"}
		return m, nil
	}
	m["wall_s"] = metric{med(func(i int) float64 { return svcs[i].wall.Seconds() }, len(svcs)), "s"}
	m["setup_s"] = metric{med(func(i int) float64 { return svcs[i].setup.Seconds() }, len(svcs)), "s"}
	var alloc, heap, delay, hops, served float64
	for _, s := range svcs[:pooledInstances] {
		alloc += float64(s.alloc) / mb
		heap += float64(s.liveHeap) / mb
		delay += s.expDelayMs
		hops += s.expHops
		served += s.served
	}
	m["alloc_mb"] = metric{alloc / pooledInstances, "MB"}
	m["live_heap_mb"] = metric{heap / pooledInstances, "MB"}
	m["recovery_ms"] = metric{delay / pooledInstances, "ms"}
	m["recovery_hops"] = metric{hops / pooledInstances, "hops"}
	m["delivery_ratio"] = metric{served / pooledInstances, "ratio"}
	rounds := allRounds(svcs)
	lags := pooledLags(rounds)
	u := map[string]metric{}
	u["svc_lag_p50_ms"] = metric{quantile(lags, 0.5), "ms"}
	u["svc_lag_p99_ms"] = metric{quantile(lags, 0.99), "ms"}
	u["svc_churn_per_s"] = metric{med(func(i int) float64 {
		return ratio(float64(rounds[i].satOps), rounds[i].satFor.Seconds())
	}, len(rounds)), "1/s"}
	u["svc_queries_per_s"] = metric{med(func(i int) float64 {
		return ratio(float64(rounds[i].queries), rounds[i].readFor.Seconds())
	}, len(rounds)), "1/s"}
	return m, u
}

func engineRows(cells []*cell) []engineRow {
	if len(cells) == 0 {
		return nil
	}
	var rows []engineRow
	for _, r := range cells[0].runs {
		res := r.res
		rows = append(rows, engineRow{
			Protocol:               res.Protocol,
			Recoveries:             res.Stats.Recoveries,
			Duplicates:             res.Stats.Duplicates,
			UsefulRatio:            ratio(float64(res.Stats.Recoveries), float64(res.Stats.Recoveries+res.Stats.Duplicates)),
			RequestHopsPerRecovery: res.RequestHopsPerRecovery(),
			RepairHopsPerRecovery:  res.BandwidthPerRecovery(),
			LatencyMs:              res.AvgLatency(),
			CodedSymbols:           res.Stats.CodedSymbols,
			Failovers:              res.Stats.Failovers,
			Malformed:              res.Stats.Malformed,
			Delivery:               res.DeliveryRatio(),
			Sharded:                res.Sharded,
			SerialReason:           res.SerialReason,
			Digest:                 r.digest,
		})
	}
	return rows
}

// cellRow records one simulation cell's host figures.
type cellRow struct {
	WallS   float64 `json:"wall_s"`
	SetupS  float64 `json:"setup_s"`
	AllocMB float64 `json:"alloc_mb"`
}

func cellRows(cells []*cell) []cellRow {
	out := make([]cellRow, len(cells))
	for i, c := range cells {
		out[i] = cellRow{WallS: c.wall.Seconds(), SetupS: c.setup.Seconds(), AllocMB: float64(c.alloc) / (1 << 20)}
	}
	return out
}

// roundRow summarises one service round.
type roundRow struct {
	LagP50Ms    float64 `json:"lag_p50_ms"`
	LagP99Ms    float64 `json:"lag_p99_ms"`
	ChurnPerS   float64 `json:"churn_per_s"`
	QueriesPerS float64 `json:"queries_per_s"`
}

func roundRows(rounds []svcRound) []roundRow {
	out := make([]roundRow, len(rounds))
	for i, r := range rounds {
		out[i] = roundRow{LagP50Ms: quantile(r.lags, 0.5), LagP99Ms: quantile(r.lags, 0.99),
			ChurnPerS:   ratio(float64(r.satOps), r.satFor.Seconds()),
			QueriesPerS: ratio(float64(r.queries), r.readFor.Seconds())}
	}
	return out
}

// probeResult is what the traced run measures beyond the timed stages.
type probeResult struct {
	cells      []*cell // the traced simulation cells, or the probe cell
	serial     *cell   // serial twin of cells[0]
	unchecked  *cell   // serial CheckOff twin of cells[0]
	nodes      int
	links      int
	tables     int
	planAll    time.Duration
	fastPath   bool
	rosterOpUs float64
	protocols  int // sessions per cell, each building its own routing tables
}

// probe runs the traced run's extra measurements on the workload's group:
// standalone calls into the routing, planning and roster layers, and the
// serial and unchecked twins of the first cell, whose results must equal
// it. A workload without protocols simulates one probe cell first.
func (w *workload) probe(sd seeds, tr *tracer, cells []*cell, fail func([]string)) (*probeResult, error) {
	pr := &probeResult{}
	opt := w.defaultCell()
	opt.memstats = true
	if len(cells) == 0 {
		opt.protocols, opt.packets, opt.simWorkers = probeProtocols, probePackets, 0
		c, err := w.runCell(sd.instance(0), tr, opt)
		if err != nil {
			return nil, err
		}
		fail(c.problems)
		cells = []*cell{c}
	} else {
		// Only the cells that recorded spans carry allocation counts.
		var traced []*cell
		for i, c := range cells {
			if i%2 == 0 {
				traced = append(traced, c)
			}
		}
		cells = traced
	}
	pr.cells = cells
	pr.protocols = len(opt.protocols)
	first := cellDigests(cells[0])

	twin := opt
	twin.simWorkers, twin.heap = 0, false
	c, err := w.runCell(sd.instance(0), tr, twin)
	if err != nil {
		return nil, err
	}
	c.problems = append(c.problems, checkSameDigests("serial twin", first, cellDigests(c))...)
	fail(c.problems)
	pr.serial = c

	// The unchecked twin runs right after the serial twin with the same
	// settings but the oracle, so their difference is the oracle's cost.
	twin.check = protocol.CheckOff
	c, err = w.runCell(sd.instance(0), tr, twin)
	if err != nil {
		return nil, err
	}
	c.problems = append(c.problems, checkSameDigests("unchecked twin", first, cellDigests(c))...)
	fail(c.problems)
	pr.unchecked = c

	topo := cells[0].topo
	pr.nodes, pr.links = topo.NumNodes(), topo.NumLinks()
	m := tr.begin("route.build")
	rt := route.Build(topo)
	tr.end(m)
	pr.tables = 1 + len(topo.Clients)
	tree, err := mtree.Build(topo)
	if err != nil {
		return nil, err
	}
	p := core.NewPlanner(tree, rt)
	m = tr.begin("core.planall")
	p.PlanAll()
	pr.planAll = tr.end(m)
	pr.fastPath = p.UsesFastPath()

	roster := core.NewRoster(p)
	ops, _ := churnPlan(tree.Clients, 200, w.maxOut, rng.New(sd.churn))
	m = tr.begin("core.roster_ops")
	for _, o := range ops {
		if o.join {
			_, err = roster.Join(o.node)
		} else {
			_, err = roster.Leave(o.node)
		}
		if err != nil {
			return nil, fmt.Errorf("roster probe: %w", err)
		}
	}
	pr.rosterOpUs = float64(tr.end(m).Microseconds()) / float64(len(ops))
	return pr, nil
}

// perLayer computes the per-layer metrics of a traced run.
func perLayer(pr *probeResult, svcs []*svcRun, spans []span) map[string]metric {
	ms := func(name string) float64 { return median(durations(spans, name)) / 1e6 }
	m := map[string]metric{}
	m["topology.gen_ms"] = metric{ms("topology.gen"), "ms"}
	m["topology.nodes"] = metric{float64(pr.nodes), "count"}
	m["topology.links"] = metric{float64(pr.links), "count"}
	m["mtree.build_ms"] = metric{ms("mtree.build"), "ms"}
	m["route.build_ms"] = metric{ms("route.build"), "ms"}
	m["route.tables"] = metric{float64(pr.tables), "count"}
	var setups, sessions, runs []float64
	for _, c := range pr.cells {
		setups = append(setups, c.setup.Seconds()*1e3)
		var s float64
		for _, r := range c.runs {
			s += r.session.Seconds() * 1e3
		}
		sessions = append(sessions, s)
		runs = append(runs, runTotal(c)*1e3)
	}
	m["route.setup_share"] = metric{ratio(m["route.build_ms"].Value*float64(pr.protocols), median(setups)), "ratio"}
	m["core.planall_ms"] = metric{pr.planAll.Seconds() * 1e3, "ms"}
	m["core.fastpath"] = metric{b2f(pr.fastPath), "bool"}
	m["core.roster_op_us"] = metric{pr.rosterOpUs, "us"}
	m["protocol.session_ms"] = metric{median(sessions), "ms"}
	runMs := median(runs)
	m["protocol.run_ms"] = metric{runMs, "ms"}

	first := pr.cells[0]
	sharded := len(first.runs) > 0
	var events, mallocs, bytes uint64
	var t struct {
		recoveries, duplicates, requestHops, coded, codedDup, failovers, malformed int64
		hopsData, hopsReq, hopsRep, dropsData, dropsReq, dropsRep, crashed         int64
		violations                                                                 int
	}
	for _, r := range first.runs {
		res := r.res
		sharded = sharded && res.Sharded
		events += res.Events
		mallocs += r.mallocs
		bytes += r.bytes
		t.recoveries += res.Stats.Recoveries
		t.duplicates += res.Stats.Duplicates
		t.requestHops += res.Hops.Request
		t.coded += res.Stats.CodedSymbols
		t.codedDup += res.Stats.CodedDuplicates
		t.failovers += res.Stats.Failovers
		t.malformed += res.Stats.Malformed
		t.hopsData += res.Hops.Data
		t.hopsReq += res.Hops.Request
		t.hopsRep += res.Hops.Repair
		t.dropsData += res.Drops.Data
		t.dropsReq += res.Drops.Request
		t.dropsRep += res.Drops.Repair
		t.crashed += res.Stats.UnrecoveredCrashed
	}
	for _, c := range pr.cells {
		for _, r := range c.runs {
			t.violations += len(r.res.Violations)
		}
	}
	m["protocol.sharded"] = metric{b2f(sharded), "bool"}
	// The serial twin repeats the first cell's inputs, so it compares with
	// that cell rather than with the median over cells of other traffic.
	m["protocol.shard_speedup"] = metric{ratio(runTotal(pr.serial), runTotal(first)), "ratio"}
	m["protocol.recoveries"] = metric{float64(t.recoveries), "count"}
	m["protocol.duplicates"] = metric{float64(t.duplicates), "count"}
	m["protocol.useful_repair_ratio"] = metric{ratio(float64(t.recoveries), float64(t.recoveries+t.duplicates)), "ratio"}
	m["protocol.request_hops_per_recovery"] = metric{ratio(float64(t.requestHops), float64(t.recoveries)), "hops"}
	m["protocol.coded_symbols"] = metric{float64(t.coded), "count"}
	m["protocol.coded_dup_ratio"] = metric{ratio(float64(t.codedDup), float64(t.coded+t.codedDup)), "ratio"}
	m["protocol.failovers"] = metric{float64(t.failovers), "count"}
	m["protocol.malformed"] = metric{float64(t.malformed), "count"}
	m["sim.events"] = metric{float64(events), "count"}
	m["sim.events_per_s"] = metric{ratio(float64(events), runMs/1e3), "1/s"}
	m["sim.allocs_per_event"] = metric{ratio(float64(mallocs), float64(events)), "count"}
	m["sim.bytes_per_event"] = metric{ratio(float64(bytes), float64(events)), "B"}
	m["sim.hops.data"] = metric{float64(t.hopsData), "count"}
	m["sim.hops.request"] = metric{float64(t.hopsReq), "count"}
	m["sim.hops.repair"] = metric{float64(t.hopsRep), "count"}
	m["sim.drops.data"] = metric{float64(t.dropsData), "count"}
	m["sim.drops.request"] = metric{float64(t.dropsReq), "count"}
	m["sim.drops.repair"] = metric{float64(t.dropsRep), "count"}
	m["check.overhead_ms"] = metric{(runTotal(pr.serial) - runTotal(pr.unchecked)) * 1e3, "ms"}
	m["check.violations"] = metric{float64(t.violations), "count"}
	m["fault.generate_ms"] = metric{ms("fault.generate"), "ms"}
	m["fault.crashed_undelivered"] = metric{float64(t.crashed), "count"}

	var newMs, publishes, meanBatch, applied, late []float64
	var maxBatch, rejected uint64
	var backlog int
	var busy time.Duration
	var queries uint64
	for _, s := range svcs {
		newMs = append(newMs, s.newDur.Seconds()*1e3)
		publishes = append(publishes, float64(s.stats.Published))
		meanBatch = append(meanBatch, s.stats.MeanBatch())
		applied = append(applied, float64(s.stats.Applied))
		maxBatch = max(maxBatch, s.stats.MaxBatch)
		rejected += s.stats.Rejected
		for _, r := range s.rounds {
			late = append(late, r.late...)
			backlog = max(backlog, r.backlogMax)
			busy += r.readBusy
			queries += r.queries
		}
	}
	m["strategysvc.new_ms"] = metric{median(newMs), "ms"}
	m["strategysvc.publishes"] = metric{median(publishes), "count"}
	m["strategysvc.mean_batch"] = metric{median(meanBatch), "count"}
	m["strategysvc.max_batch"] = metric{float64(maxBatch), "count"}
	m["strategysvc.applied"] = metric{median(applied), "count"}
	m["strategysvc.rejected"] = metric{float64(rejected), "count"}
	m["strategysvc.backlog_max"] = metric{float64(backlog), "count"}
	m["strategysvc.gen_late_ms"] = metric{mean(late), "ms"}
	m["strategysvc.get_ns_mean"] = metric{ratio(float64(busy.Nanoseconds()), float64(queries)), "ns"}
	return m
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
