package rmcast

// Two benchmarks regenerate the paper's figures (DESIGN.md experiments
// E1–E4; each latency figure shares its runs with the bandwidth figure after
// it), plus the ablation (E7) and the strategy-computation scaling probe
// (E5; the fine-grained version lives in internal/core). Each benchmark
// iteration executes one full simulation run of one figure cell and reports
// the figure's metrics via b.ReportMetric, so
//
//	go test -bench 'Figure5' -benchmem
//
// regenerates Figure 5 (ms/recovery) and Figure 6 (hops/recovery) cell by
// cell, and BenchmarkFigure7 likewise Figures 7 and 8. cmd/figures prints
// the same data as assembled tables.

import (
	"fmt"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/experiment"
	"rmcast/internal/fault"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/topology"
)

// benchPackets keeps each benchmark iteration around 100–500 ms; the
// cmd/figures tool uses the paper-default 100 packets.
const benchPackets = 40

func benchCell(b *testing.B, spec experiment.RunSpec) {
	b.Helper()
	var lat, bw float64
	var losses int64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		lat = res.AvgLatency()
		bw = res.BandwidthPerRecovery()
		losses = res.Stats.Losses
	}
	b.ReportMetric(lat, "ms/recovery")
	b.ReportMetric(bw, "hops/recovery")
	b.ReportMetric(float64(losses), "losses")
}

// BenchmarkFigure5 regenerates Figures 5 and 6 (recovery latency and
// bandwidth vs group size, p=5%), which the paper derives from one
// experiment: read ms/recovery for Figure 5 and hops/recovery for Figure 6.
func BenchmarkFigure5(b *testing.B) {
	for _, size := range []int{50, 100, 200, 300, 400, 500, 600} {
		for _, proto := range experiment.PaperProtocols {
			b.Run(fmt.Sprintf("n=%d/%s", size, proto), func(b *testing.B) {
				benchCell(b, experiment.RunSpec{
					Routers: size, Loss: 0.05, Protocol: proto,
					Packets: benchPackets, Interval: 50,
					TopoSeed: 2003 + uint64(size), SimSeed: 1,
				})
			})
		}
	}
}

// BenchmarkFigure7 regenerates Figures 7 and 8 (recovery latency and
// bandwidth vs per-link loss, n=500) from one set of runs: read ms/recovery
// for Figure 7 and hops/recovery for Figure 8.
func BenchmarkFigure7(b *testing.B) {
	for _, pct := range []float64{2, 6, 10, 14, 20} {
		for _, proto := range experiment.PaperProtocols {
			b.Run(fmt.Sprintf("p=%g%%/%s", pct, proto), func(b *testing.B) {
				benchCell(b, experiment.RunSpec{
					Routers: 500, Loss: pct / 100, Protocol: proto,
					Packets: benchPackets, Interval: 50,
					TopoSeed: 2003, SimSeed: uint64(pct),
				})
			})
		}
	}
}

// BenchmarkAblation compares the RP variants and the baselines RP
// degenerates to (DESIGN.md experiment E7) at n=300.
func BenchmarkAblation(b *testing.B) {
	for _, pct := range []float64{5, 15} {
		for _, proto := range experiment.AblationProtocols {
			b.Run(fmt.Sprintf("p=%g%%/%s", pct, proto), func(b *testing.B) {
				benchCell(b, experiment.RunSpec{
					Routers: 300, Loss: pct / 100, Protocol: proto,
					Packets: benchPackets, Interval: 50,
					TopoSeed: 2003, SimSeed: uint64(pct),
				})
			})
		}
	}
}

// BenchmarkStrategyComputation measures planning cost for every client of a
// topology — the O(k·(N² + LCA)) pipeline behind Algorithm 1 (experiment
// E5; per-N scaling is benchmarked in internal/core).
func BenchmarkStrategyComputation(b *testing.B) {
	for _, size := range []int{100, 300, 600} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			topo, err := NewTopology(DefaultTopologyConfig(size), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Strategies(topo, DefaultPlannerOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator event throughput with
// the cheapest protocol, as a substrate baseline.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events uint64
	var elapsedRuns int
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(experiment.RunSpec{
			Routers: 200, Loss: 0.05, Protocol: "SRC",
			Packets: benchPackets, Interval: 50, TopoSeed: 5, SimSeed: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
		elapsedRuns++
	}
	b.ReportMetric(float64(events), "events/run")
	_ = elapsedRuns
}

// BenchmarkTreeKinds compares the protocols over the two multicast-tree
// constructions of internal/topology: the paper's uniform random spanning
// tree versus a PIM-SM-style shortest-path source tree (§2.2 allows any
// multicast routing protocol to supply the tree).
func BenchmarkTreeKinds(b *testing.B) {
	kinds := []struct {
		name string
		kind topology.TreeKind
	}{
		{"random-st", topology.RandomTree},
		{"shortest-path", topology.ShortestPathTree},
	}
	for _, k := range kinds {
		for _, proto := range experiment.PaperProtocols {
			b.Run(fmt.Sprintf("%s/%s", k.name, proto), func(b *testing.B) {
				benchCell(b, experiment.RunSpec{
					Routers: 300, Loss: 0.05, Protocol: proto,
					Packets: benchPackets, Interval: 50,
					TopoSeed: 2003, SimSeed: 1, Tree: k.kind,
				})
			})
		}
	}
}

// BenchmarkEstimationNoise measures RP's sensitivity to routing-estimate
// error (§3.1 discusses estimation quality): the oracle versus the
// link-state substrate at increasing HELLO measurement noise.
func BenchmarkEstimationNoise(b *testing.B) {
	cases := []struct {
		name      string
		linkState bool
		noise     float64
	}{
		{"oracle", false, 0},
		{"lsr-0%", true, 0},
		{"lsr-10%", true, 0.10},
		{"lsr-30%", true, 0.30},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchCell(b, experiment.RunSpec{
				Routers: 300, Loss: 0.05, Protocol: "RP",
				Packets: benchPackets, Interval: 50,
				TopoSeed: 2003, SimSeed: 1,
				LinkState: c.linkState, RouteNoise: c.noise,
			})
		})
	}
}

// BenchmarkCoopRecovery measures the cooperative coded repair engine end
// to end on its home turf: the n=100 cell under plain random loss, and the
// same cell under a mid-severity chaos schedule (crashes, link outages,
// burst loss) — the regime the block-coded peer relay exists for. Tracked
// by benchdiff (cmd/benchdiff -track).
func BenchmarkCoopRecovery(b *testing.B) {
	plain := experiment.RunSpec{
		Routers: 100, Loss: 0.05, Protocol: "COOP",
		Packets: benchPackets, Interval: 50,
		TopoSeed: 2103, SimSeed: 1,
	}
	b.Run("n=100/plain", func(b *testing.B) {
		b.ReportAllocs()
		benchCell(b, plain)
	})
	chaos := plain
	chaos.Chaos = &fault.ChaosParams{
		CrashRate: 0.15, PermanentFrac: 0.3, LinkDownRate: 0.1,
		BurstSeverity: 0.5, BaseLoss: 0.05,
		Span: float64(benchPackets) * 50,
	}
	chaos.FaultSeed = 0xc4a05
	b.Run("n=100/chaos", func(b *testing.B) {
		b.ReportAllocs()
		benchCell(b, chaos)
	})
}

// BenchmarkDetectionModes compares idealised loss detection against
// realistic sequence-gap detection (protocol.DetectGap) for RP.
func BenchmarkDetectionModes(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode protocol.DetectionMode
	}{
		{"ideal", protocol.DetectIdeal},
		{"gap", protocol.DetectGap},
	} {
		b.Run(mode.name, func(b *testing.B) {
			topo, err := topology.Standard(300, 0.05, 2003)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := experiment.NewEngine("RP")
			if err != nil {
				b.Fatal(err)
			}
			var lat float64
			for i := 0; i < b.N; i++ {
				topo2, _ := topology.Standard(300, 0.05, 2003)
				eng2, _ := experiment.NewEngine("RP")
				s, err := protocol.NewSession(topo2, eng2, protocol.Config{
					Packets: benchPackets, Interval: 50, Detection: mode.mode,
				}, 1)
				if err != nil {
					b.Fatal(err)
				}
				res := s.Run()
				lat = res.AvgLatency()
			}
			_, _ = topo, eng
			b.ReportMetric(lat, "ms/recovery")
		})
	}
}

// BenchmarkCongestion enables the store-and-forward congestion model the
// paper's own simulator lacks (§5.1 admits the omission "will favor
// protocols that generate more data"): per-link service time makes SRM's
// whole-tree floods pay for themselves in queueing delay.
func BenchmarkCongestion(b *testing.B) {
	for _, pt := range []float64{0, 0.25} {
		for _, proto := range experiment.PaperProtocols {
			name := fmt.Sprintf("service=%.2fms/%s", pt, proto)
			b.Run(name, func(b *testing.B) {
				var lat, bw float64
				for i := 0; i < b.N; i++ {
					topo, err := topology.Standard(200, 0.05, 2003)
					if err != nil {
						b.Fatal(err)
					}
					eng, err := experiment.NewEngine(proto)
					if err != nil {
						b.Fatal(err)
					}
					s, err := protocol.NewSession(topo, eng, protocol.Config{
						Packets: benchPackets, Interval: 50,
						PacketTime: pt,
						// Congestion delays data too: give the idealised
						// detector headroom so late data is not declared
						// lost en masse.
						DetectLag: 20 * pt,
					}, 1)
					if err != nil {
						b.Fatal(err)
					}
					res := s.Run()
					if !res.Complete {
						b.Fatal("incomplete congestion run")
					}
					lat = res.AvgLatency()
					bw = res.BandwidthPerRecovery()
				}
				b.ReportMetric(lat, "ms/recovery")
				b.ReportMetric(bw, "hops/recovery")
			})
		}
	}
}

// BenchmarkMembershipChurn measures incremental strategy maintenance under
// join/leave churn versus full recomputation (internal/core.Roster).
func BenchmarkMembershipChurn(b *testing.B) {
	topo, err := NewTopology(DefaultTopologyConfig(300), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		r, err := NewRoster(topo, DefaultPlannerOptions())
		if err != nil {
			b.Fatal(err)
		}
		clients := topo.Clients
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := clients[i%len(clients)]
			if r.Active(v) {
				if _, err := r.Leave(v); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := r.Join(v); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Strategies(topo, DefaultPlannerOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTopologyFamilies compares the protocols across the three
// standard topology families of the multicast-simulation literature: flat
// random (the paper's), Waxman, and GT-ITM transit-stub. Orderings should
// be family-invariant.
func BenchmarkTopologyFamilies(b *testing.B) {
	build := func(family string) *Topology {
		cfg := DefaultTopologyConfig(132)
		switch family {
		case "random":
			t, err := NewTopology(cfg, 9)
			if err != nil {
				b.Fatal(err)
			}
			return t
		case "waxman":
			cfg.Model = topology.Waxman
			t, err := NewTopology(cfg, 9)
			if err != nil {
				b.Fatal(err)
			}
			return t
		case "transit-stub":
			t, err := NewTransitStubTopology(cfg, TransitStubParams{}, 9)
			if err != nil {
				b.Fatal(err)
			}
			return t
		}
		b.Fatalf("unknown family %q", family)
		return nil
	}
	for _, family := range []string{"random", "waxman", "transit-stub"} {
		for _, proto := range experiment.PaperProtocols {
			b.Run(fmt.Sprintf("%s/%s", family, proto), func(b *testing.B) {
				var lat float64
				for i := 0; i < b.N; i++ {
					topo := build(family)
					res, err := Simulate(topo, proto, SessionConfig{
						Packets: benchPackets, Interval: 50,
					}, 11)
					if err != nil {
						b.Fatal(err)
					}
					if res.Stats.Unrecovered > 0 {
						b.Fatal("unrecovered")
					}
					lat = res.AvgLatency()
				}
				b.ReportMetric(lat, "ms/recovery")
			})
		}
	}
}

// BenchmarkLCA measures the O(1) Euler-tour LCA query on the paper's
// largest topology — the primitive behind every meet-depth lookup in
// candidate selection (O(k²) queries per planning pass).
func BenchmarkLCA(b *testing.B) {
	net, err := topology.Standard(600, 0.05, 2003)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := mtree.Build(net)
	if err != nil {
		b.Fatal(err)
	}
	clients := tree.Clients
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := clients[i%len(clients)]
		v := clients[(i*31+7)%len(clients)]
		_ = tree.LCA(u, v)
	}
}

// BenchmarkPlannerAll measures the batch planning pass (core.PlanAll):
// every client's candidate classes, strategy graph, and Algorithm 1, with
// scratch shared across clients. The loop replans into the warmed result
// map, so steady state must allocate nothing. Compare against
// BenchmarkStrategyComputation, which additionally pays topology
// routing-table construction.
func BenchmarkPlannerAll(b *testing.B) {
	for _, size := range []int{100, 300, 600} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			net, err := topology.Standard(size, 0.05, 2003)
			if err != nil {
				b.Fatal(err)
			}
			tree, err := mtree.Build(net)
			if err != nil {
				b.Fatal(err)
			}
			p := core.NewPlanner(tree, route.Build(net))
			out := p.PlanAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PlanAllInto(out)
			}
		})
	}
}

// BenchmarkParallelSweep runs one small group-size sweep grid serially and
// on a worker pool. On a multi-core runner the parallel variant should
// approach serial-time ÷ min(workers, cells); the figures it produces are
// bit-identical either way (asserted by the experiment tests).
func BenchmarkParallelSweep(b *testing.B) {
	sweep := experiment.PaperFigure56()
	sweep.Xs = []float64{50, 100, 150, 200}
	sweep.Packets = benchPackets
	for _, workers := range []int{1, 2, 4, experiment.DefaultParallelism()} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			s := sweep
			s.Parallel = workers
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelEngine measures the conservative parallel engine on a
// 2000-client tree topology: one full RP run per iteration at each worker
// count. workers=1 is the byte-untouched serial path (the regression
// baseline benchdiff gates on); the sharded variants are bit-identical to it
// (gated by the golden-digest tests) and should approach serial ÷
// min(workers, shards) on a multi-core runner. On one core they measure the
// window/barrier overhead instead, which must stay modest.
func BenchmarkParallelEngine(b *testing.B) {
	topo, err := topology.GenerateTree(topology.DefaultTreeConfig(2000), rng.New(31))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				eng, err := experiment.NewEngine("RP")
				if err != nil {
					b.Fatal(err)
				}
				cfg := protocol.Config{Packets: benchPackets, Interval: 50, SimWorkers: workers}
				s, err := protocol.NewSession(topo, eng, cfg, 17)
				if err != nil {
					b.Fatal(err)
				}
				if workers >= 2 && !s.ParallelEligible() {
					b.Fatal("cell unexpectedly ineligible for sharding")
				}
				res := s.Run()
				if !res.Complete || res.Stats.Unrecovered > 0 {
					b.Fatal("incomplete parallel-engine run")
				}
				events = res.Events
			}
			b.ReportMetric(float64(events), "events/run")
		})
	}
}

// BenchmarkHierarchicalDomains measures the hierarchical-domain execution
// mode on the same 2000-client tree as BenchmarkParallelEngine: one full RP
// run per iteration over a (domain count × worker count) grid, each cell
// bit-identical to the serial run (gated by the golden-digest tests). The
// domain axis varies Config.DomainClients — K = ⌈2000/size⌉ domains — and the
// worker axis the goroutines executing them; on a single-core runner the
// worker axis measures window/barrier overhead while the domain axis measures
// the per-domain engine fixed costs, which must stay sublinear in K for the
// million-client tier to work.
func BenchmarkHierarchicalDomains(b *testing.B) {
	topo, err := topology.GenerateTree(topology.DefaultTreeConfig(2000), rng.New(31))
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{500, 250, 125} {
		k := (len(topo.Clients) + size - 1) / size
		for _, workers := range []int{2, 8} {
			b.Run(fmt.Sprintf("d=%d/w=%d", k, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					eng, err := experiment.NewEngine("RP")
					if err != nil {
						b.Fatal(err)
					}
					cfg := protocol.Config{Packets: benchPackets, Interval: 50,
						SimWorkers: workers, DomainClients: size}
					s, err := protocol.NewSession(topo, eng, cfg, 17)
					if err != nil {
						b.Fatal(err)
					}
					res := s.Run()
					if !res.Complete || res.Stats.Unrecovered > 0 {
						b.Fatal("incomplete domain run")
					}
					if !res.Sharded || res.Domains != k {
						b.Fatalf("expected %d domains, got sharded=%v domains=%d (%s)",
							k, res.Sharded, res.Domains, res.SerialReason)
					}
				}
			})
		}
	}
}

// BenchmarkFailover measures the cost of an epoch-fenced RP failover: one
// full RP-FAILOVER run per iteration with the initial coordinator crashed
// permanently mid-transmission, strict oracle on, so each iteration covers
// suspicion, re-election, promotion and the pending-recovery handover. The
// baseline sub-benchmark runs the identical cell with no crash, so the pair
// isolates what a failover costs over steady-state coordinated recovery.
func BenchmarkFailover(b *testing.B) {
	topo, err := topology.Standard(100, 0.05, 2003)
	if err != nil {
		b.Fatal(err)
	}
	rp0 := core.ElectionOrder(mtree.MustBuild(topo))[0]
	span := float64(benchPackets) * 50
	for _, crash := range []bool{false, true} {
		name := "steady"
		var sched *fault.Schedule
		if crash {
			name = "rpcrash"
			sched = (&fault.Schedule{}).CrashHost(0.25*span, rp0)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var failovers int64
			for i := 0; i < b.N; i++ {
				eng, err := experiment.NewEngine("RP-FAILOVER")
				if err != nil {
					b.Fatal(err)
				}
				cfg := protocol.Config{Packets: benchPackets, Interval: 50, Fault: sched}
				s, err := protocol.NewSession(topo, eng, cfg, 17)
				if err != nil {
					b.Fatal(err)
				}
				res := s.Run()
				if !res.Complete || res.Stats.Unrecovered > 0 || len(res.Violations) > 0 {
					b.Fatal("unhealthy failover benchmark run")
				}
				if crash && res.Stats.Failovers < 1 {
					b.Fatal("crash cell failed to fail over")
				}
				failovers = res.Stats.Failovers
			}
			b.ReportMetric(float64(failovers), "failovers/run")
		})
	}
}

// BenchmarkAdversarialMutation measures what the hostile message plane
// costs each hardened engine: one full run per iteration at mutation
// intensity 0 (the mutator entirely absent) versus 1 (duplication,
// reordering, corruption and repair storms at their sweep maxima), with
// the strict invariant oracle on in both.
func BenchmarkAdversarialMutation(b *testing.B) {
	span := float64(benchPackets) * 50
	for _, intensity := range []float64{0, 1} {
		mut := fault.MutationFromIntensity(intensity, span)
		for _, proto := range experiment.AdversarialProtocols {
			b.Run(fmt.Sprintf("intensity=%g/%s", intensity, proto), func(b *testing.B) {
				benchCell(b, experiment.RunSpec{
					Routers: 100, Loss: 0.05, Protocol: proto,
					Packets: benchPackets, Interval: 50,
					TopoSeed: 2003, SimSeed: 1, Mutation: mut,
				})
			})
		}
	}
}

// BenchmarkOracleOverhead isolates the runtime invariant oracle's cost: the
// same lossy run with the per-event shadow state machine fully on (strict,
// the suite-wide default) versus off. The target is under 5% of run time —
// every hook is O(1) on two bit-arrays.
func BenchmarkOracleOverhead(b *testing.B) {
	run := func(b *testing.B, mode protocol.CheckMode) {
		b.Helper()
		topo, err := topology.Standard(200, 0.05, 5)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			eng, err := experiment.NewEngine("RP")
			if err != nil {
				b.Fatal(err)
			}
			cfg := protocol.Config{Packets: benchPackets, Interval: 50, Check: mode}
			s, err := protocol.NewSession(topo, eng, cfg, 6)
			if err != nil {
				b.Fatal(err)
			}
			if res := s.Run(); res.Stats.Unrecovered > 0 {
				b.Fatal("unrecovered losses")
			}
		}
	}
	b.Run("check=off", func(b *testing.B) { run(b, protocol.CheckOff) })
	b.Run("check=strict", func(b *testing.B) { run(b, protocol.CheckStrict) })
}
