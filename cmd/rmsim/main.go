// Command rmsim runs one reliable-multicast recovery simulation and prints
// the per-protocol metrics, exactly as the experiment harness measures them
// for the paper's figures.
//
// Usage:
//
//	rmsim -routers 500 -loss 0.05 -protocol RP
//	rmsim -routers 200 -loss 0.10 -protocol all -packets 200
//
// With -protocol all the per-protocol runs execute on -parallel workers
// (default: one per CPU); each run is independently seeded so the printed
// rows are identical at any worker count. -trace forces serial execution so
// the event trace stays a single ordered stream.
//
// -chaos, -adversarial and -churn run the matching experiment.Sweep instead
// of a single run, on the -routers/-loss/-packets/-interval topology with
// -seed as the base seed and -replicates seeds per cell, and print its four
// figures as tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"

	"rmcast/internal/experiment"
	"rmcast/internal/protocol"
	"rmcast/internal/topology"
	"rmcast/internal/trace"
)

func main() {
	var (
		routers  = flag.Int("routers", 200, "backbone router count m")
		loss     = flag.Float64("loss", 0.05, "per-link loss probability")
		proto    = flag.String("protocol", "RP", "protocol name or 'all' (see rmsim -list)")
		packets  = flag.Int("packets", 100, "data packets to multicast")
		interval = flag.Float64("interval", 50, "inter-packet interval (ms)")
		topoSeed = flag.Uint64("toposeed", 1, "topology seed")
		simSeed  = flag.Uint64("seed", 1, "traffic/timer seed")
		list     = flag.Bool("list", false, "list protocol names and exit")
		traceOut = flag.String("trace", "", "write a structured event trace to this file ('-' for stderr)")
		jitter   = flag.Float64("jitter", 0, "per-traversal delay jitter fraction")
		gapDet   = flag.Bool("gapdetect", false, "use sequence-gap loss detection instead of the idealised model")
		lossyRec = flag.Bool("lossyrecovery", false, "subject recovery traffic to link loss")
		asJSON   = flag.Bool("json", false, "emit per-protocol results as JSON")
		chaos    = flag.Bool("chaos", false,
			"run the fault-injection (chaos) sweep instead of a single run: crashes, link outages and burst loss rising with severity, RP vs SRM vs RMA vs RP-RESILIENT vs COOP")
		churn = flag.Bool("churn", false,
			"run the mobility-style churn sweep instead of a single run: crash waves aimed at the coordinator succession line with rate rising 0→1, SRM vs RP vs RP-RESILIENT vs RP-FAILOVER")
		adversarial = flag.Bool("adversarial", false,
			"run the adversarial message-plane sweep instead of a single run: control-packet duplication, reordering, corruption and repair storms rising with intensity, SRM vs RMA vs RP vs SRC vs COOP")
		scaling = flag.Bool("scaling", false,
			"run the large-n planning scaling tier instead of a simulation: tree-aggregated batch planner vs the O(N²) scan on tree-only topologies")
		sizes = flag.String("sizes", "",
			"comma-separated client counts for -scaling (default 1000,5000,20000,50000)")
		reps     = flag.Int("replicates", 1, "replicate seeds per chaos/adversarial cell")
		parallel = flag.Int("parallel", experiment.DefaultParallelism(),
			"worker count for multi-protocol runs (1 = serial; output is identical either way)")
		simWorkers = flag.Int("simworkers", 0,
			"shard a single run across this many workers (conservative parallel engine; 0/1 = serial, output is bit-identical either way; ineligible configs fall back to serial). With -scaling, adds a serial-vs-sharded simulation phase per cell")
		domainSize = flag.Int("domainsize", 0,
			"hierarchical-domain mode: partition the group into recovery domains of about this many clients, one engine per domain (requires -simworkers >= 2; the domain count never depends on the worker count, so output stays bit-identical). Also applies to -scaling's simulation phase")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *list {
		for _, p := range append(append([]string{}, experiment.PaperProtocols...), experiment.AblationProtocols...) {
			fmt.Println(p)
		}
		fmt.Println("RP-RESILIENT")
		fmt.Println("RP-FAILOVER")
		fmt.Println("COOP")
		return
	}

	for _, sw := range []struct {
		on   bool
		make func() experiment.Sweep
	}{
		{*churn, experiment.DefaultChurn},
		{*chaos, experiment.DefaultChaos},
		{*adversarial, experiment.DefaultAdversarial},
	} {
		if !sw.on {
			continue
		}
		sweep := sw.make()
		sweep.Routers = *routers
		sweep.Loss = *loss
		sweep.Packets = *packets
		sweep.Interval = *interval
		sweep.BaseSeed = *simSeed
		sweep.Replicates = *reps
		sweep.Parallel = *parallel
		figs, err := sweep.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
		for _, f := range figs {
			if err := f.Format(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}

	if *scaling {
		sweep := experiment.DefaultScaling()
		sweep.BaseSeed = *simSeed
		sweep.SimWorkers = *simWorkers
		sweep.DomainClients = *domainSize
		if *sizes != "" {
			sweep.Sizes = nil
			for _, s := range strings.Split(*sizes, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n < 1 {
					fmt.Fprintf(os.Stderr, "rmsim: bad -sizes entry %q\n", s)
					os.Exit(2)
				}
				sweep.Sizes = append(sweep.Sizes, n)
			}
		}
		report, err := sweep.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			err = enc.Encode(report)
		} else {
			err = report.Format(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	protos := []string{*proto}
	if *proto == "all" {
		protos = experiment.PaperProtocols
	}

	var tracer trace.Tracer
	if *traceOut != "" {
		w := os.Stderr
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		tracer = trace.NewWriter(w)
	}

	type jsonRow struct {
		Protocol   string  `json:"protocol"`
		Clients    int     `json:"clients"`
		Losses     int64   `json:"losses"`
		Recovered  int64   `json:"recovered"`
		LatencyMs  float64 `json:"latencyMs"`
		P95Ms      float64 `json:"p95Ms"`
		RepairHops float64 `json:"repairHopsPerRecovery"`
		ReqHops    float64 `json:"requestHopsPerRecovery"`
		Duplicates int64   `json:"duplicates"`
		Events     uint64  `json:"events"`
	}

	// Each protocol run is independent (fresh topology and session from the
	// same seeds), so they fan out to workers; results gather by index and
	// print in the requested order. Tracing shares one writer, so it forces
	// the serial path.
	runOne := func(p string) (*protocol.Result, error) {
		topo, err := topology.Standard(*routers, *loss, *topoSeed)
		if err != nil {
			return nil, err
		}
		eng, err := experiment.NewEngine(p)
		if err != nil {
			return nil, err
		}
		cfg := protocol.Config{
			Packets: *packets, Interval: *interval,
			Jitter: *jitter, LossyRecovery: *lossyRec,
			SimWorkers: *simWorkers, DomainClients: *domainSize,
		}
		if *gapDet {
			cfg.Detection = protocol.DetectGap
		}
		sess, err := protocol.NewSession(topo, eng, cfg, *simSeed)
		if err != nil {
			return nil, err
		}
		sess.Trace = tracer
		res := sess.Run()
		if res.Stats.Unrecovered > 0 || !res.Complete {
			return nil, fmt.Errorf("%s left %d losses unrecovered (complete=%v)",
				p, res.Stats.Unrecovered, res.Complete)
		}
		return res, nil
	}

	workers := *parallel
	if workers < 1 || tracer != nil {
		workers = 1
	}
	if workers > len(protos) {
		workers = len(protos)
	}
	results := make([]*protocol.Result, len(protos))
	errs := make([]error, len(protos))
	if workers <= 1 {
		for i, p := range protos {
			results[i], errs[i] = runOne(p)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					results[i], errs[i] = runOne(protos[i])
				}
			}()
		}
		for i := range protos {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
	}

	// Sharding was requested but some run fell back to the byte-exact serial
	// path: say why, so a surprising lack of speed-up is explainable.
	if *simWorkers >= 2 {
		for i, p := range protos {
			res := results[i]
			if !res.Sharded && res.SerialReason != "" {
				fmt.Fprintf(os.Stderr, "rmsim: %s ran serial: %s\n", p, res.SerialReason)
			}
			if res.Domains > 0 {
				fmt.Fprintf(os.Stderr, "rmsim: %s ran in %d recovery domains (~%d clients each)\n",
					p, res.Domains, *domainSize)
			}
		}
	}

	var jsonRows []jsonRow
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "protocol\tclients\tlosses\trecovered\tlatency(ms)\tp95(ms)\trepair bw(hops)\treq bw(hops)\tdup\tevents")
	for i, p := range protos {
		res := results[i]
		if *asJSON {
			jsonRows = append(jsonRows, jsonRow{
				Protocol: p, Clients: res.Clients,
				Losses: res.Stats.Losses, Recovered: res.Stats.Recoveries,
				LatencyMs: res.AvgLatency(), P95Ms: res.LatencyQuantile(0.95),
				RepairHops: res.BandwidthPerRecovery(),
				ReqHops:    res.RequestHopsPerRecovery(),
				Duplicates: res.Stats.Duplicates, Events: res.Events,
			})
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%d\t%d\n",
			p, res.Clients, res.Stats.Losses, res.Stats.Recoveries,
			res.AvgLatency(), res.LatencyQuantile(0.95), res.BandwidthPerRecovery(),
			res.RequestHopsPerRecovery(), res.Stats.Duplicates, res.Events)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonRows); err != nil {
			fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "rmsim: %v\n", err)
		os.Exit(1)
	}
}
