package main

import (
	"fmt"
	"time"

	"rmcast/internal/fault"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

// workload is one multicast group and what is done with it, in one of two
// stages:
//
//   - the simulation stage builds the group and runs the recovery protocols
//     over it, one cell after another, each cell with its own traffic;
//   - the service stage serves the group's recovery strategies from
//     strategysvc while the membership churns: rounds of a fixed-rate phase
//     beside a reader, each followed by a saturation phase.
//
// A workload with protocols runs the simulation stage; the service-only
// workload runs the service stage. The traced run of each also runs the
// other stage once, as a probe, so that every layer reports on every
// workload.
type workload struct {
	name string

	// The group: a pure tree of treeClients clients (topology.GenerateTree)
	// when treeClients > 0, otherwise the paper's §5.1 random backbone of
	// routers routers (topology.Generate). The topology is part of the
	// workload and is generated from groupSeed; the run's seed draws
	// everything else (losses, faults, churn, queries). Like the paper, which
	// holds the topology fixed and varies traffic across replicates, this
	// keeps seed-to-seed differences down to what the traffic does.
	groupSeed   uint64
	treeClients int
	routers     int
	loss        float64

	// Simulation stage.
	protocols  []string
	ordering   bool // every cell must show the paper's ordering (checkPaperOrdering)
	mustShard  bool // every run must shard (checkSharded)
	packets    int
	simWorkers int
	severity   float64 // fault.ChaosParams severity; 0 generates an empty schedule
	mutation   float64 // fault.MutationFromIntensity intensity; 0 for none

	// Service stage: each instance runs rounds rounds of a fixed-rate phase
	// of roundFor, then a saturation phase of roundSat ops.
	churnRate int // fixed-rate churn, ops/s
	roundFor  time.Duration
	roundSat  int
	rounds    int
	maxOut    int // most members the generator keeps departed at once
}

// probeProtocols are simulated by the traced run of the service-only
// workload.
var probeProtocols = []string{"RP"}

const probePackets = 20

// workloads returns the benchmark's workloads; README.md gives the reason
// for each.
func workloads() []*workload {
	return []*workload{
		{
			name:      "paper-backbone",
			groupSeed: 2003,
			routers:   600,
			loss:      0.05,
			protocols: []string{"SRM", "RMA", "RP"},
			ordering:  true,
			packets:   100,
			churnRate: 350,
			roundFor:  500 * time.Millisecond,
			roundSat:  300,
			rounds:    6,
			maxOut:    20,
		},
		{
			name:        "tree-sharded",
			groupSeed:   2003,
			treeClients: 2000,
			loss:        0.05,
			protocols:   []string{"RP"},
			mustShard:   true,
			packets:     40,
			simWorkers:  2,
			churnRate:   1000,
			roundFor:    500 * time.Millisecond,
			roundSat:    500,
			rounds:      6,
			maxOut:      200,
		},
		{
			name:       "chaos-mutation",
			groupSeed:  2003,
			routers:    600,
			loss:       0.05,
			protocols:  []string{"COOP", "RP-RESILIENT", "RMA"},
			packets:    100,
			simWorkers: 2,
			severity:   0.5,
			mutation:   0.5,
			churnRate:  350,
			roundFor:   500 * time.Millisecond,
			roundSat:   300,
			rounds:     6,
			maxOut:     20,
		},
		{
			name:        "svc-churn",
			groupSeed:   2003,
			treeClients: 2000,
			loss:        0.05,
			churnRate:   1000,
			roundFor:    500 * time.Millisecond,
			roundSat:    500,
			rounds:      6,
			maxOut:      200,
		},
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seeds holds the independent input streams of one run.
type seeds struct {
	topo, sim, fault, churn uint64
}

// seeds derives the run's input streams: the topology from the workload,
// the rest from the run's seed.
func (w *workload) seeds(seed uint64) seeds {
	r := rng.New(seed)
	return seeds{topo: w.groupSeed, sim: r.Uint64(), fault: r.Uint64(), churn: r.Uint64()}
}

// instance returns the inputs of the run's i-th simulation cell or service
// instance: the same group, with its own losses, faults and churn.
// Instances differ so that a run's figures average over several draws
// rather than repeat one.
func (s seeds) instance(i int) seeds {
	c := s
	c.sim = rng.New(s.sim + uint64(i)).Uint64()
	c.fault = rng.New(s.fault + uint64(i)).Uint64()
	c.churn = rng.New(s.churn + uint64(i)).Uint64()
	return c
}

// Every run completes at least pooledCells simulation cells, or
// pooledInstances service instances; the simulated and modelled metrics,
// the allocation and the live heap pool over exactly these, so two runs of
// one seed report the same inputs' figures whatever the host's speed.
const (
	pooledCells     = 6
	pooledInstances = 3
)

// topology generates the workload's group.
func (w *workload) topology(seed uint64) (*topology.Network, error) {
	if w.treeClients > 0 {
		cfg := topology.DefaultTreeConfig(w.treeClients)
		cfg.LossProb = w.loss
		return topology.GenerateTree(cfg, rng.New(seed))
	}
	cfg := topology.DefaultConfig(w.routers)
	cfg.LossProb = w.loss
	return topology.Generate(cfg, rng.New(seed))
}

// chaos returns the fault generator's parameters at the workload's
// severity, mapped the way the chaos sweep maps them: at severity 1, 30% of
// clients crash (30% of those for good), 20% of links go down once, and
// every link runs the harshest burst regime. Severity 0 generates an empty
// schedule, which is not installed.
func (w *workload) chaos(packets int, interval float64) fault.ChaosParams {
	return fault.ChaosParams{
		CrashRate:     0.3 * w.severity,
		PermanentFrac: 0.3,
		LinkDownRate:  0.2 * w.severity,
		BurstSeverity: w.severity,
		BaseLoss:      w.loss,
		Span:          float64(packets) * interval,
	}
}
