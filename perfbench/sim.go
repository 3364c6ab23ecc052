package main

import (
	"fmt"
	"runtime"
	"time"

	"rmcast/internal/experiment"
	"rmcast/internal/fault"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

// cellOptions vary a simulation cell away from the workload's own settings;
// the traced run uses them for its serial and unchecked twins.
type cellOptions struct {
	protocols  []string
	packets    int
	simWorkers int
	check      protocol.CheckMode
	heap       bool // force a GC after setup and record the live heap
	memstats   bool // read allocation counters around every protocol run
}

func (w *workload) defaultCell() cellOptions {
	return cellOptions{protocols: w.protocols, packets: w.packets, simWorkers: w.simWorkers,
		check: protocol.CheckStrict, heap: true}
}

// protoRun is one protocol's session in a cell.
type protoRun struct {
	res     *protocol.Result
	digest  string
	session time.Duration
	run     time.Duration
	mallocs uint64 // over Run, when cellOptions.memstats
	bytes   uint64
}

// cell is one simulated group: topology, tree, fault schedule, one session
// per protocol, the runs, and their checks.
type cell struct {
	topo     *topology.Network
	setup    time.Duration // topology, tree, fault schedule and sessions
	wall     time.Duration // setup + runs + checks, without the forced GC
	alloc    uint64        // bytes allocated over the cell, the forced GC excluded
	liveHeap uint64        // heap in use after setup and a forced GC
	runs     []protoRun
	problems []string
}

// runCell builds and runs one simulation cell of the workload.
func (w *workload) runCell(sd seeds, tr *tracer, opt cellOptions) (*cell, error) {
	c := &cell{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	top := tr.begin("cell")
	setup := tr.begin("setup")

	m := tr.begin("topology.gen")
	topo, err := w.topology(sd.topo)
	tr.end(m)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	c.topo = topo
	m = tr.begin("mtree.build")
	tree, err := mtree.Build(topo)
	tr.end(m)
	if err != nil {
		return nil, fmt.Errorf("multicast tree: %w", err)
	}
	cfg := protocol.DefaultConfig()
	cfg.Packets = opt.packets
	cfg.SimWorkers = opt.simWorkers
	cfg.Check = opt.check
	m = tr.begin("fault.generate")
	sched := fault.Generate(w.chaos(cfg.Packets, cfg.Interval), topo.Clients, len(topo.Loss), rng.New(sd.fault))
	sched.Mutation = fault.MutationFromIntensity(w.mutation, float64(cfg.Packets)*cfg.Interval)
	tr.end(m)
	if !sched.Empty() {
		cfg.Fault = sched
	}
	sessions := make([]*protocol.Session, len(opt.protocols))
	c.runs = make([]protoRun, len(opt.protocols))
	for i, name := range opt.protocols {
		eng, err := experiment.NewEngine(name)
		if err != nil {
			return nil, err
		}
		m = tr.begin("protocol.session")
		// A nil router asks the session for its default routing tables,
		// as every command of the repository does.
		sessions[i], err = protocol.NewSessionPrebuilt(topo, tree, eng, cfg, sd.sim, nil)
		c.runs[i].session = tr.end(m)
		if err != nil {
			return nil, fmt.Errorf("%s session: %w", name, err)
		}
	}
	c.setup = tr.end(setup)

	var gcPause time.Duration
	if opt.heap {
		t := time.Now()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		c.liveHeap = ms.HeapAlloc
		gcPause = time.Since(t)
	}

	for i, s := range sessions {
		if opt.memstats {
			runtime.ReadMemStats(&ms)
		}
		mallocs0, bytes0 := ms.Mallocs, ms.TotalAlloc
		m = tr.begin("protocol.run")
		res := s.Run()
		c.runs[i].run = tr.end(m)
		if opt.memstats {
			runtime.ReadMemStats(&ms)
			c.runs[i].mallocs = ms.Mallocs - mallocs0
			c.runs[i].bytes = ms.TotalAlloc - bytes0
		}
		c.runs[i].res = res
	}

	m = tr.begin("check.verify")
	for i := range c.runs {
		c.runs[i].digest = experiment.ResultDigest(c.runs[i].res)
		c.problems = append(c.problems, checkRun(c.runs[i].res)...)
	}
	c.problems = append(c.problems, w.checkCell(c, opt)...)
	tr.end(m)
	c.wall = tr.end(top) - gcPause
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc - alloc0
	return c, nil
}

// checkCell runs the workload-specific checks on a cell run with the
// workload's own settings.
func (w *workload) checkCell(c *cell, opt cellOptions) []string {
	var out []string
	results := make([]*protocol.Result, len(c.runs))
	for i := range c.runs {
		results[i] = c.runs[i].res
	}
	if w.ordering {
		out = append(out, checkPaperOrdering(results)...)
	}
	if w.mustShard && opt.simWorkers >= 2 {
		out = append(out, checkSharded(results)...)
	}
	return out
}

// recoveryTotals pools the paper's Figure 5/6 quantities over a set of runs:
// mean recovery latency (ms) and repair hops per recovery.
type recoveryTotals struct {
	recoveries int64
	latencyN   int64
	latencySum float64
	repairHops int64
	delivered  int64
	expected   int64
}

func (t *recoveryTotals) add(res *protocol.Result) {
	n := res.Stats.Latency.Count()
	t.recoveries += res.Stats.Recoveries
	t.latencyN += n
	t.latencySum += res.Stats.Latency.Mean() * float64(n)
	t.repairHops += res.Hops.Repair
	t.delivered += res.Stats.Delivered
	t.expected += int64(res.Clients) * int64(res.Packets)
}

func (t *recoveryTotals) latencyMs() float64 {
	return ratio(t.latencySum, float64(t.latencyN))
}

func (t *recoveryTotals) hops() float64 {
	return ratio(float64(t.repairHops), float64(t.recoveries))
}

func (t *recoveryTotals) delivery() float64 {
	return ratio(float64(t.delivered), float64(t.expected))
}
