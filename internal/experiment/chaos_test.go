package experiment

import "testing"

// TestChaosZeroSeverityMatchesLegacy asserts the sweep's severity-0 cells run
// the exact legacy code path: a spec carrying chaos params at severity 0
// yields a result identical to the same spec with no chaos at all, so the
// zero row of every chaos figure reproduces fault-free figures byte-for-byte.
func TestChaosZeroSeverityMatchesLegacy(t *testing.T) {
	cp := chaosParams(0, 0.05, 20, 50)
	for _, proto := range ChaosProtocols {
		spec := RunSpec{
			Routers: 40, Loss: 0.05, Protocol: proto,
			Packets: 20, Interval: 50,
			TopoSeed: 2003, SimSeed: 2004,
		}
		legacy, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		spec.Chaos = &cp
		spec.FaultSeed = 0xc4a05
		zero, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if legacy.Stats != zero.Stats || legacy.Hops != zero.Hops || legacy.Events != zero.Events {
			t.Fatalf("%s: severity-0 chaos diverged from legacy run:\n%+v\n%+v",
				proto, legacy, zero)
		}
	}
}

// TestChaosSweepSeverityDegradesDelivery sanity-checks the sweep output
// shape: four figures over the same rows, severity 0 delivering everything,
// and the harshest severity delivering strictly less for at least one
// protocol (faults must actually bite).
func TestChaosSweepSeverityDegradesDelivery(t *testing.T) {
	c := DefaultChaos()
	c.Routers, c.Xs, c.Packets, c.Parallel = 40, []float64{0, 1}, 20, 4
	figs, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	delivery := figs[0]
	for _, f := range figs {
		if len(f.Rows) != 2 {
			t.Fatalf("%q: %d rows, want 2", f.Name, len(f.Rows))
		}
	}
	bitten := false
	for _, proto := range ChaosProtocols {
		d0 := delivery.Value(delivery.Rows[0].Points[proto])
		d1 := delivery.Value(delivery.Rows[1].Points[proto])
		if d0 != 1 {
			t.Fatalf("%s: severity-0 delivery %v, want 1", proto, d0)
		}
		if d1 < 1 {
			bitten = true
		}
	}
	if !bitten {
		t.Fatal("severity 1 degraded no protocol's delivery — faults not injected?")
	}
}
