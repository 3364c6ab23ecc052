package fault

import (
	"rmcast/internal/graph"
	"rmcast/internal/rng"
)

// ChurnParams drives the mobility-style churn generator used by the churn
// sweep (experiment.DefaultChurn): instead of the chaos generator's uniform
// crash lottery, churn aims its crash waves at the *coordinator succession
// line* — the ranked election order of core.ElectionOrder — so a failover-
// capable protocol is forced through repeated RP re-elections, the scenario
// Baddi & El Kettani's mobile-IPv6 RP re-selection frames. Background
// blackouts model ordinary member mobility. The generated schedule is a pure
// function of (params, ranked, seed), so sweep cells stay bit-identical at
// any worker count, and the same schedule can be handed to protocols with no
// failover notion (for them, wave targets are just well-placed clients).
type ChurnParams struct {
	// Rate in [0, 1] scales the whole generator: wave count and background
	// blackout probability both grow linearly with it. Rate 0 generates an
	// empty schedule.
	Rate float64
	// Waves is the coordinator-kill wave count at Rate 1 (default 4): wave i
	// crashes ranked[i], i.e. the RP the i-th election is expected to seat.
	Waves int
	// BackgroundRate is the per-client probability (at Rate 1) of one
	// mobility blackout window during the run (default 0.15).
	BackgroundRate float64
	// DowntimeFrac scales blackout lengths: each downtime draws from
	// [0.5, 1.5]·DowntimeFrac·Span (default 0.1).
	DowntimeFrac float64
	// PermanentFrac is the fraction of coordinator-kill waves whose target
	// never recovers (default 0.3; set negative for none) — the rest come
	// back and must be re-admitted as regular peers.
	PermanentFrac float64
	// Span is the data-transmission duration (Packets·Interval), ms.
	Span float64
}

// withDefaults fills the zero-value knobs.
func (p ChurnParams) withDefaults() ChurnParams {
	if p.Waves <= 0 {
		p.Waves = 4
	}
	if p.BackgroundRate <= 0 {
		p.BackgroundRate = 0.15
	}
	if p.DowntimeFrac <= 0 {
		p.DowntimeFrac = 0.1
	}
	switch {
	case p.PermanentFrac == 0:
		p.PermanentFrac = 0.3
	case p.PermanentFrac < 0:
		p.PermanentFrac = 0
	}
	if p.Span <= 0 {
		p.Span = 1
	}
	return p
}

// GenerateChurn builds a mobility-style churn schedule. ranked is the
// coordinator succession line (core.ElectionOrder): wave i crashes
// ranked[i], with wave times spread in ascending order across
// [0.15, 0.65]·Span so each re-election has traffic to recover before the
// next wave hits its successor. Clients not consumed by a wave may suffer
// one background blackout each. Every stochastic choice draws from r in a
// fixed order (waves first, then the remaining clients in ranked order), so
// the schedule is deterministic in (params, ranked, seed).
func GenerateChurn(p ChurnParams, ranked []graph.NodeID, r *rng.Rand) *Schedule {
	p = p.withDefaults()
	s := &Schedule{}
	rate := clamp01(p.Rate)
	if rate == 0 {
		return s
	}
	waves := int(float64(p.Waves)*rate + 0.5)
	if waves > len(ranked) {
		waves = len(ranked)
	}
	for i := 0; i < waves; i++ {
		// Ascending, jittered wave instants: the i-th wave lands in the i-th
		// sub-interval of [0.15, 0.65]·Span.
		lo := 0.15 + 0.5*float64(i)/float64(waves)
		hi := 0.15 + 0.5*float64(i+1)/float64(waves)
		at := r.Uniform(lo, hi) * p.Span
		down := r.Uniform(0.5, 1.5) * p.DowntimeFrac * p.Span
		if r.Float64() < p.PermanentFrac {
			s.CrashWindow(ranked[i], at, at) // to ≤ from: down forever
			continue
		}
		s.CrashWindow(ranked[i], at, at+down)
	}
	for _, c := range ranked[waves:] {
		if r.Float64() >= p.BackgroundRate*rate {
			continue
		}
		at := r.Uniform(0.1, 0.7) * p.Span
		s.CrashWindow(c, at, at+r.Uniform(0.5, 1.5)*p.DowntimeFrac*p.Span)
	}
	return s.Normalize()
}
