package experiment

import "testing"

// TestChurnZeroRateMatchesLegacy asserts the rate-0 cells run the exact
// legacy code path: a spec carrying churn params at rate 0 yields a result
// identical to the same spec with no churn at all.
func TestChurnZeroRateMatchesLegacy(t *testing.T) {
	cp := churnParams(0, 20, 50)
	for _, proto := range ChurnProtocols {
		spec := RunSpec{
			Routers: 40, Loss: 0.05, Protocol: proto,
			Packets: 20, Interval: 50,
			TopoSeed: 2003, SimSeed: 2004,
		}
		legacy, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		spec.Churn = &cp
		spec.FaultSeed = 0xcf41
		zero, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if legacy.Stats != zero.Stats || legacy.Hops != zero.Hops || legacy.Events != zero.Events {
			t.Fatalf("%s: rate-0 churn diverged from legacy run:\n%+v\n%+v",
				proto, legacy, zero)
		}
	}
}

// TestChurnSweepFailoverBites sanity-checks the sweep semantics: at full
// churn the RP-FAILOVER cells must actually fail over (the waves target the
// succession line), while the protocols with no coordinator election report
// a structurally zero failover count.
func TestChurnSweepFailoverBites(t *testing.T) {
	c := DefaultChurn()
	c.Routers, c.Xs, c.Packets, c.Parallel = 40, []float64{0, 1}, 20, 4
	figs, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	delivery, failovers := figs[0], figs[3]
	if len(failovers.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(failovers.Rows))
	}
	for _, proto := range ChurnProtocols {
		f0 := failovers.Value(failovers.Rows[0].Points[proto])
		f1 := failovers.Value(failovers.Rows[1].Points[proto])
		if f0 != 0 {
			t.Fatalf("%s: failovers at rate 0 = %v, want 0", proto, f0)
		}
		switch proto {
		case "RP-FAILOVER":
			if f1 < 1 {
				t.Fatalf("full churn produced %v failovers — waves missed the RP?", f1)
			}
		default:
			if f1 != 0 {
				t.Fatalf("%s has no coordinator election but reports %v failovers", proto, f1)
			}
		}
		if d := delivery.Value(delivery.Rows[0].Points[proto]); d != 1 {
			t.Fatalf("%s: rate-0 delivery %v, want 1", proto, d)
		}
	}
}
