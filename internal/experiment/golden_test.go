package experiment

// Golden-digest determinism gate for the zero-allocation event core: every
// refactor of internal/sim must leave fixed-seed runs byte-identical. The
// digests below were captured from the pre-refactor engine (container/heap +
// closure events); the typed 4-ary heap, pooled hop walkers, and pooled
// timers must reproduce them exactly, because the (at, seq) total order —
// and therefore every rng draw and every counter — is unchanged.
//
// If a digest diverges, the event core changed observable behaviour. Do not
// re-capture these values without first explaining *why* the firing order
// moved.

import (
	"testing"

	"rmcast/internal/protocol"
	"rmcast/internal/topology"
)

// digestResult is ResultDigest (digest.go), kept under its historical test-
// local name.
func digestResult(res *protocol.Result) string { return ResultDigest(res) }

// goldenDigests: captured on the pre-refactor event core (see file comment).
// Key: protocol name + config variant.
var goldenDigests = map[string]string{
	"SRM/plain":  "9fef9d0fc6b705e9",
	"RMA/plain":  "d0bdb5371b28be14",
	"RP/plain":   "c2ae2b1a7163e4c8",
	"SRC/plain":  "c8bf39c33a2c204a",
	"SRM/queued": "b504924ee981daac",
	"RMA/queued": "43688f6583dc842b",
	"RP/queued":  "261c2b4e6e6df5ff",
	"SRC/queued": "4fb96363e2242379",
	// COOP captured at its introduction (coded cooperative repair PR);
	// its digest additionally folds in the coded-symbol counters.
	"COOP/plain":  "63e9bc316603b8a3",
	"COOP/queued": "7f8dadacb29b4731",
}

// TestGoldenDigests runs the four engines under the paper's plain model and
// under the store-and-forward queueing model (which exercises the queued
// hop-walker paths) and asserts the results are byte-identical to the
// pre-refactor captures.
func TestGoldenDigests(t *testing.T) {
	for _, proto := range []string{"SRM", "RMA", "RP", "SRC", "COOP"} {
		for _, variant := range []string{"plain", "queued"} {
			key := proto + "/" + variant
			t.Run(key, func(t *testing.T) {
				res := goldenRun(t, proto, variant == "queued")
				got := digestResult(res)
				want := goldenDigests[key]
				if got != want {
					t.Errorf("digest %s = %s, want %s (fixed-seed output diverged from the pre-refactor event core)",
						key, got, want)
				}
			})
		}
	}
}

// goldenRun executes one fixed-seed run: the Figure-5 n=50 cell, either
// plain (precomputed-path delivery) or with the congestion model on (queued
// hop-by-hop walkers). The queued variant needs detection headroom for
// queueing delay, exactly as BenchmarkCongestion does.
func goldenRun(t *testing.T, proto string, queued bool) *protocol.Result {
	t.Helper()
	topo, err := topology.Standard(50, 0.05, 2053)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(proto)
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.Config{Packets: 40, Interval: 50}
	if queued {
		cfg.PacketTime = 0.2
		cfg.DetectLag = 4
	}
	s, err := protocol.NewSession(topo, eng, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !res.Complete || res.Stats.Unrecovered > 0 {
		t.Fatalf("%s queued=%v: incomplete run (unrecovered=%d complete=%v)",
			proto, queued, res.Stats.Unrecovered, res.Complete)
	}
	return res
}

// TestGoldenPurgeCell pins an SRM cell in which the engine purges stopped
// suppression timers from its calendar (package sim) and the last event of
// the run is one of them. The digest was captured before the purge existed,
// so it also pins the purge's accounting: Events counts each purged timer
// and SimTime ends on the latest purged instant, as if every stopped timer
// had stayed queued and popped as a no-op.
func TestGoldenPurgeCell(t *testing.T) {
	topo, err := topology.Standard(100, 0.1, 2053)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine("SRM")
	if err != nil {
		t.Fatal(err)
	}
	s, err := protocol.NewSession(topo, eng, protocol.Config{Packets: 40, Interval: 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if got, want := digestResult(res), "a15c333935bc19ff"; got != want {
		t.Errorf("digest %s, want %s (the stopped-timer purge changed a run's outcome)", got, want)
	}
	// The clock stops at the last event that ran; a later SimTime can only
	// come from a purged timer.
	if s.Eng.Now() >= res.SimTime {
		t.Errorf("the run ended on a live event (clock %v, SimTime %v) — the cell no longer exercises the purge",
			s.Eng.Now(), res.SimTime)
	}
}
