// Command figures regenerates the paper's evaluation figures (Figures 5–8),
// the ablation table and the robustness sweeps, printing aligned text
// tables, markdown or CSV.
//
// Usage:
//
//	figures                  # every sweep at its default parameters
//	figures -fig 7           # one figure of the loss sweep
//	figures -fig 78          # both figures of the loss sweep
//	figures -fig ablation    # RP-variant ablation
//	figures -csv -fig 5      # machine-readable output
//	figures -packets 40      # faster, noisier runs
//	figures -parallel 1      # force the serial reference loop
//
// Every -fig name except scaling selects one experiment.Sweep constructor
// from one table; -packets, -reps, -seed, -interval and -parallel override
// the same fields of whichever sweep runs. Sweeps fan out over -parallel
// workers (default: one per CPU); every cell is independently seeded, so
// the output is bit-identical at any worker count.
//
// The robustness sweeps (-fig chaos, -fig adversarial, -fig churn) compare
// the paper's engines against the hardened variants, including the
// cooperative coded repair engine COOP (internal/protocol/coop) with its
// symbol-plane mutation class and the epoch-fenced RP failover engine
// RP-FAILOVER (internal/protocol/rpproto) under coordinator-aimed churn.
package main

import (
	"flag"
	"fmt"
	"os"

	"rmcast/internal/experiment"
	"rmcast/internal/viz"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "5|6|7|8|56|78|ablation|chaos|adversarial|churn|scaling|all")
		packets  = flag.Int("packets", 100, "data packets per run")
		reps     = flag.Int("reps", 1, "traffic-seed replicates per cell")
		seed     = flag.Uint64("seed", 2003, "base seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables")
		chart    = flag.Bool("chart", false, "render ASCII charts beneath each table")
		svgOut   = flag.String("svg", "", "also write SVG charts, stacked, to this file")
		md       = flag.Bool("md", false, "emit markdown tables (for EXPERIMENTS.md)")
		interval = flag.Float64("interval", 50, "inter-packet interval (ms)")
		parallel = flag.Int("parallel", experiment.DefaultParallelism(),
			"sweep worker count (1 = legacy serial loop; results are identical either way)")
		simWorkers = flag.Int("simworkers", 0,
			"with -fig scaling: add a serial-vs-sharded simulation phase per cell at this worker count (0 = off)")
		domainSize = flag.Int("domainsize", 0,
			"with -fig scaling: run the sharded half of the simulation phase in hierarchical-domain mode at about this many clients per domain (0 = classic sharding)")
	)
	flag.Parse()

	var svgFile *os.File
	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		svgFile = f
	}

	emit := func(f *experiment.Figure) {
		var err error
		switch {
		case *md:
			err = f.Markdown(os.Stdout)
		case *csv:
			err = f.CSV(os.Stdout)
		default:
			err = f.Format(os.Stdout)
			if err == nil && *chart {
				err = f.Chart(os.Stdout, 60, 14)
			}
			fmt.Println()
		}
		if err == nil && svgFile != nil {
			_, err = viz.FigureSVG(f, 720, 420).WriteTo(svgFile)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
	}

	// The scaling tier is a planning-performance probe, not a paper figure,
	// so "all" does not imply it; ask for it explicitly.
	if *fig == "scaling" {
		s := experiment.DefaultScaling()
		s.BaseSeed = *seed
		s.SimWorkers = *simWorkers
		s.DomainClients = *domainSize
		report, err := s.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		switch {
		case *md:
			err = report.Markdown(os.Stdout)
		case *csv:
			err = report.CSV(os.Stdout)
		default:
			err = report.Format(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		return
	}
	name, pick := *fig, -1
	if one, ok := singleFigures[name]; ok {
		name, pick = one.sweep, one.index
	}
	ran := false
	for _, sw := range sweeps {
		if name != "all" && name != sw.name {
			continue
		}
		ran = true
		s := sw.make()
		s.Packets, s.Replicates, s.BaseSeed, s.Interval = *packets, *reps, *seed, *interval
		s.Parallel = *parallel
		figs, err := s.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		for i, f := range figs {
			if pick < 0 || i == pick {
				emit(f)
			}
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "figures: unknown -fig %q\n", *fig)
		os.Exit(2)
	}
}

// sweeps maps each -fig name to its sweep, in the order -fig all runs them.
var sweeps = []struct {
	name string
	make func() experiment.Sweep
}{
	{"56", experiment.PaperFigure56},
	{"78", experiment.PaperFigure78},
	{"ablation", experiment.PaperAblation},
	{"chaos", experiment.DefaultChaos},
	{"adversarial", experiment.DefaultAdversarial},
	{"churn", experiment.DefaultChurn},
}

// singleFigures maps a paper figure number to its sweep and its position
// among that sweep's figures.
var singleFigures = map[string]struct {
	sweep string
	index int
}{"5": {"56", 0}, "6": {"56", 1}, "7": {"78", 0}, "8": {"78", 1}}
