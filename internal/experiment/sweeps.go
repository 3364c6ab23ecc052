package experiment

import (
	"errors"
	"fmt"

	"rmcast/internal/fault"
)

// Sweep is one evaluation grid: every protocol at every swept value x,
// averaged over Replicates independently seeded runs into one row per x.
// Every figure of the paper (§5, Figures 5–8) and every robustness study
// has this shape. What differs between them — which RunSpec field x sets,
// how the cells are seeded, and what the figures are called — is fixed by
// the constructor (PaperFigure56, PaperFigure78, PaperAblation,
// DefaultChaos, DefaultAdversarial, DefaultChurn); the fields below may be
// overridden afterwards.
//
// Every cell carries its own seeds, so any Parallel value yields
// bit-identical figures (see parallel.go).
type Sweep struct {
	// Xs are the swept values: backbone router counts, loss percentages,
	// chaos severities, mutation intensities or churn rates.
	Xs []float64
	// Routers is the fixed backbone size; the group-size sweep ignores it.
	Routers int
	// Loss is every cell's per-link loss probability (the floor the faults
	// and mutations act on); the loss sweeps ignore it.
	Loss float64
	// Protocols to compare, in presentation order.
	Protocols []string
	// Packets, Interval configure each run's data stream.
	Packets  int
	Interval float64
	// Replicates averages this many traffic (and fault) seeds per cell.
	// Minimum 1.
	Replicates int
	// BaseSeed derives every topology, traffic and fault seed.
	BaseSeed uint64
	// Parallel is the worker count for the grid; <= 1 runs the serial
	// reference loop (see parallel.go).
	Parallel int

	axis axis
}

// axis is what a constructor fixes about its sweep.
type axis struct {
	// set writes x into the spec every cell of its row starts from.
	set func(spec *RunSpec, x float64)
	// label formats x as the row annotation, e.g. "p=%g%%".
	label  string
	xlabel string
	// Cell (row i, replicate r) is seeded TopoSeed = BaseSeed+topoStride·i,
	// SimSeed = BaseSeed+simStride·i+r+1 and, for a nonzero faultSalt,
	// FaultSeed = BaseSeed+faultSalt+simStride·i+r. The fault seed does not
	// depend on the protocol, so every engine in a cell faces the same
	// crashes, outages and churn waves.
	topoStride, simStride, faultSalt uint64
	// clientsX plots each row at its client count instead of at x.
	clientsX bool
	figures  []figureSpec
}

// figureSpec names one figure of a sweep.
type figureSpec struct{ name, ylabel, metric string }

// Run executes the grid and returns the sweep's figures, which share one
// set of rows and differ only in the metric they plot.
func (s Sweep) Run() ([]*Figure, error) {
	a := s.axis
	if a.set == nil {
		return nil, errors.New("experiment: Sweep must come from a constructor such as PaperFigure56")
	}
	reps := max(s.Replicates, 1)
	perRow := len(s.Protocols) * reps
	// Lay out the grid in the serial iteration order (x, protocol,
	// replicate); each cell's seeds depend only on its grid position, so
	// execution order cannot perturb them.
	specs := make([]RunSpec, 0, len(s.Xs)*perRow)
	for i, x := range s.Xs {
		row := RunSpec{Routers: s.Routers, Loss: s.Loss, Packets: s.Packets, Interval: s.Interval}
		a.set(&row, x)
		for _, proto := range s.Protocols {
			for r := 0; r < reps; r++ {
				spec := row
				spec.Protocol = proto
				spec.TopoSeed = s.BaseSeed + a.topoStride*uint64(i)
				spec.SimSeed = s.BaseSeed + a.simStride*uint64(i) + uint64(r) + 1
				if a.faultSalt != 0 {
					spec.FaultSeed = s.BaseSeed + a.faultSalt + a.simStride*uint64(i) + uint64(r)
				}
				specs = append(specs, spec)
			}
		}
	}
	results, failed, err := runCells(specs, s.Parallel)
	if err != nil {
		return nil, fmt.Errorf("%s %s rep %d: %w", fmt.Sprintf(a.label, s.Xs[failed/perRow]),
			s.Protocols[failed/reps%len(s.Protocols)], failed%reps, err)
	}
	rows := make([]Row, len(s.Xs))
	for i, x := range s.Xs {
		rows[i] = Row{X: x, Label: fmt.Sprintf(a.label, x), Points: map[string]Point{}}
		for pi, proto := range s.Protocols {
			cell := results[i*perRow+pi*reps:][:reps]
			agg := cellPoint(cell[0])
			for _, res := range cell[1:] {
				agg.merge(cellPoint(res))
			}
			rows[i].Points[proto] = agg
			if a.clientsX {
				rows[i].X = float64(agg.Clients)
			}
		}
	}
	figs := make([]*Figure, len(a.figures))
	for i, f := range a.figures {
		figs[i] = &Figure{Name: f.name, XLabel: a.xlabel, YLabel: f.ylabel, Metric: f.metric,
			Protocols: s.Protocols, Rows: rows}
	}
	return figs, nil
}

// defaultSweep fills in the settings every default sweep shares: 100
// packets 50 ms apart, one replicate, base seed 2003.
func defaultSweep(xs []float64, routers int, loss float64, protocols []string, a axis) Sweep {
	return Sweep{Xs: xs, Routers: routers, Loss: loss, Protocols: protocols,
		Packets: 100, Interval: 50, Replicates: 1, BaseSeed: 2003, axis: a}
}

// PaperFigure56 returns the group-size sweep of the paper's §5.2, Figures 5
// (latency) and 6 (bandwidth): the three protocols at n ∈ {50,100,…,600}
// routers and p = 5%. Each size gets its own topology; rows are plotted at
// the client count it yields.
func PaperFigure56() Sweep {
	return defaultSweep([]float64{50, 100, 200, 300, 400, 500, 600}, 0, 0.05, PaperProtocols, axis{
		set:        func(spec *RunSpec, x float64) { spec.Routers = int(x) },
		label:      "n=%.0f",
		xlabel:     "clients",
		topoStride: 1000,
		simStride:  1000,
		clientsX:   true,
		figures: []figureSpec{
			{"Figure 5: average recovery latency per packet recovered", "latency (ms)", "latency"},
			{"Figure 6: average bandwidth usage per packet recovered", "bandwidth (hops)", "bandwidth"},
		},
	})
}

// lossAxis sweeps the per-link loss percentage over one fixed topology (the
// paper reports n=500 generating k=208 clients once).
func lossAxis(latency, bandwidth string) axis {
	return fixedTopology(func(spec *RunSpec, x float64) { spec.Loss = x / 100 },
		"p=%g%%", "per-link loss (%)", 0, []figureSpec{
			{latency, "latency (ms)", "latency"},
			{bandwidth, "bandwidth (hops)", "bandwidth"},
		})
}

// fixedTopology is the axis of every sweep but the group-size one: one
// topology for the whole grid, traffic seeds varying per (x, replicate).
func fixedTopology(set func(*RunSpec, float64), label, xlabel string, faultSalt uint64, figs []figureSpec) axis {
	return axis{set: set, label: label, xlabel: xlabel, simStride: 100, faultSalt: faultSalt, figures: figs}
}

// PaperFigure78 returns the loss sweep of the paper, Figures 7 (latency)
// and 8 (bandwidth): n=500, p ∈ {2,4,…,20}%.
func PaperFigure78() Sweep {
	return defaultSweep([]float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}, 500, 0, PaperProtocols,
		lossAxis("Figure 7: average delay per packet recovered vs loss",
			"Figure 8: average bandwidth usage per packet recovered vs loss"))
}

// PaperAblation returns the RP-variant ablation (DESIGN.md experiment E7):
// the AblationProtocols at n=300, p ∈ {5, 15}%, latency and bandwidth.
func PaperAblation() Sweep {
	return defaultSweep([]float64{5, 15}, 300, 0, AblationProtocols,
		lossAxis("Ablation: RP variants, latency", "Ablation: RP variants, bandwidth"))
}

// robustnessFigures are the figures of the fault and mutation sweeps:
// delivery ratio, mean and p99 recovery latency, then last.
func robustnessFigures(study, versus string, last figureSpec) []figureSpec {
	return []figureSpec{
		{study + ": delivery ratio vs " + versus, "delivered fraction", "delivery"},
		{study + ": mean recovery latency vs " + versus, "latency (ms)", "latency"},
		{study + ": p99 recovery latency vs " + versus, "latency (ms)", "p99"},
		last,
	}
}

// DefaultChaos returns the chaos sweep used by EXPERIMENTS.md: one fixed
// n=100 topology at 5% base loss driven through fault severity 0…1 —
// client crashes (some permanent), link outage windows and Gilbert–Elliott
// burst loss scaling together (see chaosParams) — comparing the
// ChaosProtocols on delivery ratio, mean and p99 recovery latency, and
// recovery bandwidth. Severity 0 generates an empty fault schedule, which
// Run does not install, so the zero row reproduces the fault-free cells
// byte for byte.
func DefaultChaos() Sweep {
	return defaultSweep([]float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}, 100, 0.05, ChaosProtocols,
		fixedTopology(func(spec *RunSpec, x float64) {
			cp := chaosParams(x, spec.Loss, spec.Packets, spec.Interval)
			spec.Chaos = &cp
		}, "sev=%g", "chaos severity", 0xc4a05, robustnessFigures("Chaos", "fault severity",
			figureSpec{"Chaos: recovery bandwidth vs fault severity", "bandwidth (hops)", "bandwidth"})))
}

// chaosParams maps one severity level to the fault generator's knobs: at
// severity 1, 30% of clients crash during the run (30% of those for good),
// 20% of links suffer an outage window, and every link runs the harshest
// burst regime.
func chaosParams(severity, baseLoss float64, packets int, interval float64) fault.ChaosParams {
	return fault.ChaosParams{
		CrashRate:     0.3 * severity,
		PermanentFrac: 0.3,
		LinkDownRate:  0.2 * severity,
		BurstSeverity: severity,
		BaseLoss:      baseLoss,
		Span:          float64(packets) * interval,
	}
}

// DefaultAdversarial returns the adversarial sweep used by EXPERIMENTS.md:
// one fixed n=100 topology at 5% base loss driven through message-plane
// mutation intensity 0…1 — control-packet duplication, reorder jitter,
// header corruption and repair-storm amplification scaling together (see
// fault.MutationFromIntensity) — comparing the AdversarialProtocols on
// delivery ratio, mean and p99 recovery latency, and recovery bandwidth.
// Intensity 0 maps to no mutator at all, so the zero row reproduces the
// mutation-free cells byte for byte. The strict invariant oracle runs in
// every cell: a mutation that tricks an engine into double counting,
// repairing a never-sent packet or abandoning a gap fails the sweep
// instead of skewing its figures.
func DefaultAdversarial() Sweep {
	return defaultSweep([]float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}, 100, 0.05, AdversarialProtocols,
		fixedTopology(func(spec *RunSpec, x float64) {
			// One config per row, shared by its cells: MutationConfig is
			// read-only after construction (the mutator clamps into a
			// private copy), so parallel cells can alias it safely.
			spec.Mutation = fault.MutationFromIntensity(x, float64(spec.Packets)*spec.Interval)
		}, "mut=%g", "mutation intensity", 0, robustnessFigures("Adversarial", "mutation intensity",
			figureSpec{"Adversarial: recovery bandwidth vs mutation intensity", "bandwidth (hops)", "bandwidth"})))
}

// DefaultChurn returns the churn sweep used by EXPERIMENTS.md: one fixed
// n=100 topology at 5% base loss driven through churn rate 0…1, with crash
// waves aimed at the coordinator succession line (fault.GenerateChurn), so
// RP-FAILOVER is forced through repeated epoch-fenced re-elections while
// the other ChurnProtocols face the same schedule as ordinary client churn.
// Its figures are delivery ratio, mean and p99 recovery latency, and the
// failover count (coordinator claims past bootstrap; structurally zero for
// engines with no coordinator). Rate 0 generates an empty schedule, which
// Run does not install, so the zero row reproduces the fault-free cells
// byte for byte.
func DefaultChurn() Sweep {
	return defaultSweep([]float64{0, 0.25, 0.5, 0.75, 1.0}, 100, 0.05, ChurnProtocols,
		fixedTopology(func(spec *RunSpec, x float64) {
			cp := churnParams(x, spec.Packets, spec.Interval)
			spec.Churn = &cp
		}, "churn=%g", "churn rate", 0xcf41, robustnessFigures("Churn", "churn rate",
			figureSpec{"Churn: RP failovers vs churn rate", "failovers per run", "failovers"})))
}

// churnParams maps one churn rate to the generator's knobs.
func churnParams(rate float64, packets int, interval float64) fault.ChurnParams {
	return fault.ChurnParams{
		Rate: rate,
		Span: float64(packets) * interval,
	}
}
