// Package experiment is the harness that regenerates the paper's evaluation
// (§5, Figures 5–8) plus the ablation studies listed in DESIGN.md. It owns
// protocol construction by name, single-run execution, multi-seed sweeps,
// and figure formatting, so cmd/figures and the root benchmark suite share
// one code path.
package experiment

import (
	"fmt"

	"rmcast/internal/core"
	"rmcast/internal/fault"
	"rmcast/internal/lsr"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/protocol/ack"
	"rmcast/internal/protocol/coop"
	"rmcast/internal/protocol/fec"
	"rmcast/internal/protocol/rma"
	"rmcast/internal/protocol/rpproto"
	"rmcast/internal/protocol/srcrec"
	"rmcast/internal/protocol/srm"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// Protocols compared in the paper's figures, in presentation order.
var PaperProtocols = []string{"SRM", "RMA", "RP"}

// AblationProtocols are the RP variants and the source-recovery floor used
// by the ablation benchmarks (experiment E7 in DESIGN.md).
var AblationProtocols = []string{"RP", "RP-AWARE", "RP-NOSRC", "RP-NAK", "RP-SUBGROUP", "SRC", "SRM-HONEST", "SRM-ADAPT", "FEC", "ACK"}

// ChaosProtocols are the engines compared by the chaos sweep: the paper's
// three, the hardened RP, and the cooperative coded engine.
var ChaosProtocols = []string{"SRM", "RMA", "RP", "RP-RESILIENT", "COOP"}

// AdversarialProtocols are the engines compared by the adversarial sweep:
// the paper's three plus the source-recovery floor, all carrying the
// hardening layer (dedup caches, monotonic guards, malformed-packet
// rejection) this sweep exists to exercise, and the cooperative coded
// engine, whose symbol plane faces its own mutation class
// (fault.ClassSymbol: flipped indices, truncated payloads).
var AdversarialProtocols = []string{"SRM", "RMA", "RP", "SRC", "COOP"}

// ChurnProtocols are the engines compared by the churn sweep:
// the flooding baseline, plain RP, the hardened RP, and the coordinated
// failover mode whose RP the churn driver deliberately kills.
var ChurnProtocols = []string{"SRM", "RP", "RP-RESILIENT", "RP-FAILOVER"}

// NewEngine constructs a protocol engine by name. Recognised names:
//
//	SRM          — Scalable Reliable Multicast baseline
//	RMA          — Reliable Multicast Architecture baseline
//	RP           — the paper's recovery strategy (default options)
//	RP-AWARE     — RP planned with the loss-aware model (core/aware.go)
//	RP-NOSRC     — RP with the restricted strategy graph (no direct u→S edge)
//	RP-NAK       — RP with explicit NAK replies instead of pure timeouts
//	RP-SUBGROUP  — RP with source subgroup-multicast repairs ([4])
//	RP-RESILIENT — RP with the crash/churn hardening layer (retry budgets,
//	               dead-peer suspicion, roster-driven replanning)
//	RP-FAILOVER  — coordinated-RP mode with epoch-fenced deterministic
//	               re-election and state handover when the RP crashes
//	SRC          — pure unicast source recovery (ablation floor)
//	SRM-HONEST   — SRM without the paper's idealised one-flood-per-packet
//	               repair cost model (distributed suppression only)
//	SRM-ADAPT    — SRM-HONEST plus Floyd-style adaptive timer widening
//	FEC          — proactive parity baseline (reference [5]): K=8 data +
//	               2 parity per block, local decode, source fallback
//	ACK          — sender-initiated positive-ACK baseline (reference [21]);
//	               shows the ACK-implosion cost in request hops
//	COOP         — cooperative coded repair: block-level symbol
//	               solicitation from strategy-ranked peers over disjoint
//	               coded ranges, decode at rank K, source as bounded last
//	               resort
func NewEngine(name string) (protocol.Engine, error) {
	switch name {
	case "SRM":
		return srm.New(srm.DefaultOptions()), nil
	case "SRM-HONEST":
		opt := srm.DefaultOptions()
		opt.GlobalSuppression = false
		return srm.New(opt), nil
	case "SRM-ADAPT":
		opt := srm.DefaultOptions()
		opt.GlobalSuppression = false
		opt.Adaptive = true
		return srm.New(opt), nil
	case "RMA":
		return rma.New(rma.DefaultOptions()), nil
	case "RP":
		return rpproto.New(rpproto.DefaultOptions()), nil
	case "RP-AWARE":
		opt := rpproto.DefaultOptions()
		opt.LossAware = true
		return rpproto.New(opt), nil
	case "RP-NOSRC":
		opt := rpproto.DefaultOptions()
		opt.AllowDirectSource = false
		return rpproto.New(opt), nil
	case "RP-NAK":
		opt := rpproto.DefaultOptions()
		opt.NakReplies = true
		return rpproto.New(opt), nil
	case "RP-SUBGROUP":
		opt := rpproto.DefaultOptions()
		opt.SubgroupRepair = true
		return rpproto.New(opt), nil
	case "RP-RESILIENT":
		opt := rpproto.DefaultOptions()
		opt.Resilience = rpproto.DefaultResilience()
		return rpproto.New(opt), nil
	case "RP-FAILOVER":
		opt := rpproto.DefaultOptions()
		opt.Failover = rpproto.DefaultFailover()
		return rpproto.New(opt), nil
	case "SRC":
		return srcrec.New(srcrec.DefaultOptions()), nil
	case "FEC":
		return fec.New(fec.DefaultOptions()), nil
	case "ACK":
		return ack.New(ack.DefaultOptions()), nil
	case "COOP":
		return coop.New(coop.DefaultOptions()), nil
	}
	return nil, fmt.Errorf("experiment: unknown protocol %q", name)
}

// RunSpec describes one simulation run.
type RunSpec struct {
	// Routers is the backbone size m (the paper's "number of nodes in the
	// network model").
	Routers int
	// Loss is the uniform per-link loss probability.
	Loss float64
	// Protocol names the engine (see NewEngine).
	Protocol string
	// Packets and Interval configure the data stream.
	Packets  int
	Interval float64
	// TopoSeed fixes the topology; SimSeed fixes the packet/timer fates.
	// Keeping them separate lets a sweep hold the topology constant
	// across protocols (as the paper does) while varying traffic seeds
	// across replicates.
	TopoSeed, SimSeed uint64
	// Tree selects the multicast-tree construction (default: the paper's
	// uniform random spanning tree).
	Tree topology.TreeKind
	// LinkState, when true, replaces the omniscient routing oracle with
	// the converged link-state protocol of internal/lsr, whose delay
	// estimates carry RouteNoise relative measurement error.
	LinkState  bool
	RouteNoise float64
	// Chaos, when non-nil, generates a fault schedule (host crashes, link
	// outages, burst loss — internal/fault) from FaultSeed and installs it.
	// Zero-rate parameters generate an empty schedule, which is not
	// installed at all, so a zero-chaos cell is byte-identical to the same
	// cell without Chaos.
	Chaos     *fault.ChaosParams
	FaultSeed uint64
	// Churn, when non-nil, generates a mobility-style churn schedule
	// instead: crash waves aimed at the election succession line
	// (core.ElectionOrder) plus background client blackouts, from
	// FaultSeed. Mutually exclusive with Chaos (Chaos wins if both set).
	Churn *fault.ChurnParams
	// Mutation, when non-nil and non-empty, installs the adversarial
	// message-plane mutator (duplication, reordering, corruption, repair
	// storms — fault.Mutator) on top of whatever schedule Chaos generated.
	// A nil or empty config leaves the run byte-identical to one without.
	Mutation *fault.MutationConfig
}

// Run executes one simulation run.
func Run(spec RunSpec) (*protocol.Result, error) {
	tcfg := topology.DefaultConfig(spec.Routers)
	tcfg.LossProb = spec.Loss
	tcfg.Tree = spec.Tree
	topo, err := topology.Generate(tcfg, rng.New(spec.TopoSeed))
	if err != nil {
		return nil, err
	}
	eng, err := NewEngine(spec.Protocol)
	if err != nil {
		return nil, err
	}
	cfg := protocol.DefaultConfig()
	if spec.Packets > 0 {
		cfg.Packets = spec.Packets
	}
	if spec.Interval > 0 {
		cfg.Interval = spec.Interval
	}
	if spec.Chaos != nil {
		sched := fault.Generate(*spec.Chaos, topo.Clients, len(topo.Loss), rng.New(spec.FaultSeed))
		sched.Mutation = spec.Mutation
		if !sched.Empty() {
			cfg.Fault = sched
		}
	} else if spec.Churn != nil {
		// The churn driver aims its crash waves at the deterministic
		// election succession line, which is a pure function of the tree —
		// so the same schedule confronts every protocol on this topology.
		tree, terr := mtree.Build(topo)
		if terr != nil {
			return nil, terr
		}
		sched := fault.GenerateChurn(*spec.Churn, core.ElectionOrder(tree), rng.New(spec.FaultSeed))
		if !sched.Empty() {
			cfg.Fault = sched
		}
	} else if spec.Mutation != nil {
		sched := &fault.Schedule{Mutation: spec.Mutation}
		if !sched.Empty() {
			cfg.Fault = sched
		}
	}
	var router route.Router
	if spec.LinkState {
		router, _ = lsr.Converge(topo, lsr.Config{Noise: spec.RouteNoise},
			rng.New(spec.TopoSeed+0x9e3779b9))
	}
	s, err := protocol.NewSessionWithRouter(topo, eng, cfg, spec.SimSeed, router)
	if err != nil {
		return nil, err
	}
	res := s.Run()
	if !res.Complete {
		return res, fmt.Errorf("experiment: run %+v hit the event cap", spec)
	}
	if res.Stats.Unrecovered > 0 {
		return res, fmt.Errorf("experiment: run %+v left %d losses unrecovered",
			spec, res.Stats.Unrecovered)
	}
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("experiment: run %+v violated %d invariants: %s",
			spec, len(res.Violations), res.Violations[0])
	}
	return res, nil
}

// Point is one measured (protocol, x) cell of a figure.
type Point struct {
	Latency   float64 // mean recovery latency, ms
	Bandwidth float64 // recovery hops per packet recovered
	Delivery  float64 // fraction of (client, packet) pairs delivered
	P99       float64 // p99 recovery latency, ms
	Failovers float64 // mean coordinator claims past bootstrap per run
	Losses    int64
	Clients   int
	// LatSamples and BwSamples hold the per-replicate values (confidence
	// intervals across traffic seeds); DelSamples and P99Samples likewise
	// for the chaos metrics, FoSamples for the churn failover counts.
	LatSamples []float64
	BwSamples  []float64
	DelSamples []float64
	P99Samples []float64
	FoSamples  []float64
}

// merge folds another replicate into the point with equal weight by loss
// count (per-recovery means combine weighted by recovery counts; loss
// counts are near-identical across protocols on the same topology/seed).
// Delivery and P99 merge by replicate count: every replicate covers the
// same (client, packet) population, and p99s of equal-size samples average.
func (p *Point) merge(o Point) {
	np, no := len(p.DelSamples), len(o.DelSamples)
	if np+no > 0 {
		p.Delivery = (p.Delivery*float64(np) + o.Delivery*float64(no)) / float64(np+no)
		p.P99 = (p.P99*float64(np) + o.P99*float64(no)) / float64(np+no)
		p.Failovers = (p.Failovers*float64(np) + o.Failovers*float64(no)) / float64(np+no)
	}
	tot := p.Losses + o.Losses
	if tot == 0 {
		return
	}
	wp := float64(p.Losses) / float64(tot)
	wo := float64(o.Losses) / float64(tot)
	p.Latency = p.Latency*wp + o.Latency*wo
	p.Bandwidth = p.Bandwidth*wp + o.Bandwidth*wo
	p.Losses = tot
	if o.Clients > p.Clients {
		p.Clients = o.Clients
	}
	p.LatSamples = append(p.LatSamples, o.LatSamples...)
	p.BwSamples = append(p.BwSamples, o.BwSamples...)
	p.DelSamples = append(p.DelSamples, o.DelSamples...)
	p.P99Samples = append(p.P99Samples, o.P99Samples...)
	p.FoSamples = append(p.FoSamples, o.FoSamples...)
}

// Row is one x-position of a figure with a point per protocol.
type Row struct {
	// X is the independent variable: client count (Figures 5/6) or loss
	// percentage (Figures 7/8).
	X float64
	// Label annotates the row (e.g. "n=500").
	Label string
	// Points maps protocol name → measurement.
	Points map[string]Point
}

// Figure is a reproduced paper figure: rows of per-protocol measurements.
type Figure struct {
	Name      string
	XLabel    string
	YLabel    string
	Metric    string // "latency", "bandwidth", "delivery", "p99", or "failovers"
	Protocols []string
	Rows      []Row
}

// Value extracts this figure's metric from a point.
func (f *Figure) Value(p Point) float64 {
	switch f.Metric {
	case "bandwidth":
		return p.Bandwidth
	case "delivery":
		return p.Delivery
	case "p99":
		return p.P99
	case "failovers":
		return p.Failovers
	}
	return p.Latency
}
