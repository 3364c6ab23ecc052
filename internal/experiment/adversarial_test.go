package experiment

import (
	"os"
	"testing"

	"rmcast/internal/fault"
)

// TestMutationZeroMatchesLegacy asserts the mutation layer's no-op
// guarantee: a spec carrying an empty mutation config (and one carrying
// none) produce byte-identical results — same stats, same hop counts, same
// event total — so the zero row of every adversarial figure reproduces the
// mutation-free figures exactly, and the mutator provably draws nothing
// from the rng streams when disabled.
func TestMutationZeroMatchesLegacy(t *testing.T) {
	for _, proto := range AdversarialProtocols {
		spec := RunSpec{
			Routers: 40, Loss: 0.05, Protocol: proto,
			Packets: 20, Interval: 50,
			TopoSeed: 2003, SimSeed: 2004,
		}
		legacy, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		spec.Mutation = &fault.MutationConfig{}
		zero, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if legacy.Stats != zero.Stats || legacy.Hops != zero.Hops || legacy.Events != zero.Events {
			t.Fatalf("%s: empty mutation config diverged from legacy run:\n%+v\n%+v",
				proto, legacy, zero)
		}
		if fault.MutationFromIntensity(0, 1000) != nil {
			t.Fatal("intensity 0 must map to nil")
		}
	}
}

// TestMutationIntensityBites runs one cell at full intensity and checks the
// adversary is actually observable — duplicates suppressed, malformed
// packets rejected — while the hardened engine still achieves full delivery
// with a clean invariant record (Run fails on any oracle violation).
func TestMutationIntensityBites(t *testing.T) {
	for _, proto := range AdversarialProtocols {
		spec := RunSpec{
			Routers: 40, Loss: 0.05, Protocol: proto,
			Packets: 30, Interval: 50,
			TopoSeed: 2003, SimSeed: 2004,
			Mutation: fault.MutationFromIntensity(1, 30*50),
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if res.Stats.Malformed == 0 {
			t.Fatalf("%s: no malformed packets rejected at full intensity", proto)
		}
		if res.DeliveryRatio() != 1 || res.Stats.Unrecovered != 0 {
			t.Fatalf("%s: delivery %v with %d unrecovered under full mutation",
				proto, res.DeliveryRatio(), res.Stats.Unrecovered)
		}
	}
}

// TestMutationSweepDeliveryHolds is the sweep-level acceptance criterion:
// across the whole intensity grid every hardened engine keeps delivering
// everything — the adversary costs latency and bandwidth, never packets.
func TestMutationSweepDeliveryHolds(t *testing.T) {
	m := DefaultAdversarial()
	m.Routers, m.Xs, m.Packets, m.Parallel = 40, []float64{0, 1}, 20, 4
	figs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	delivery := figs[0]
	for _, f := range figs {
		if len(f.Rows) != 2 {
			t.Fatalf("%q: %d rows, want 2", f.Name, len(f.Rows))
		}
	}
	for _, proto := range AdversarialProtocols {
		for _, row := range delivery.Rows {
			if d := delivery.Value(row.Points[proto]); d != 1 {
				t.Fatalf("%s at %s: delivery %v, want 1", proto, row.Label, d)
			}
		}
	}
}

// TestAdversarialSoak is the long-haul chaos+mutation cross: the full
// default adversarial grid at production scale, plus max-intensity mutation
// layered on top of a mid-severity chaos schedule for every protocol. Gated
// behind RMCAST_SOAK=1 (make soak) — it runs minutes, not CI seconds.
func TestAdversarialSoak(t *testing.T) {
	if os.Getenv("RMCAST_SOAK") == "" {
		t.Skip("set RMCAST_SOAK=1 (or run `make soak`) to enable")
	}
	sweep := DefaultAdversarial()
	sweep.Replicates = 3
	sweep.Parallel = DefaultParallelism()
	if _, err := sweep.Run(); err != nil {
		t.Fatal(err)
	}
	// Mutation layered over chaos: crashes and outages plus a hostile
	// message plane, with the strict oracle on throughout. ChaosProtocols
	// here, not AdversarialProtocols: this leg exists to prove the
	// resilience layer and the mutation layer compose.
	cp := chaosParams(0.5, 0.05, 100, 50)
	for _, proto := range ChaosProtocols {
		spec := RunSpec{
			Routers: 100, Loss: 0.05, Protocol: proto,
			Packets: 100, Interval: 50,
			TopoSeed: 2003, SimSeed: 2005,
			Chaos: &cp, FaultSeed: 0xc4a05,
			Mutation: fault.MutationFromIntensity(1, 100*50),
		}
		if _, err := Run(spec); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}
