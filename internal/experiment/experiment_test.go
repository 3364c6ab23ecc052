package experiment

import (
	"bytes"
	"strings"
	"testing"

	"rmcast/internal/topology"
)

func TestNewEngineNames(t *testing.T) {
	for _, name := range append(append([]string{}, PaperProtocols...), AblationProtocols...) {
		e, err := NewEngine(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e == nil {
			t.Fatalf("%s: nil engine", name)
		}
	}
	if _, err := NewEngine("BOGUS"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunSmoke(t *testing.T) {
	for _, proto := range PaperProtocols {
		res, err := Run(RunSpec{
			Routers: 40, Loss: 0.05, Protocol: proto,
			Packets: 30, Interval: 40, TopoSeed: 1, SimSeed: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if res.Stats.Losses == 0 || res.Stats.Unrecovered != 0 {
			t.Fatalf("%s: stats %+v", proto, res.Stats)
		}
		if res.AvgLatency() <= 0 || res.BandwidthPerRecovery() <= 0 {
			t.Fatalf("%s: degenerate metrics %v %v", proto,
				res.AvgLatency(), res.BandwidthPerRecovery())
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	spec := RunSpec{Routers: 40, Loss: 0.1, Protocol: "RP",
		Packets: 30, Interval: 40, TopoSeed: 3, SimSeed: 4}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats || a.Hops != b.Hops {
		t.Fatal("identical specs diverged")
	}
}

func TestGroupSizeSweepSmall(t *testing.T) {
	g := PaperFigure56()
	g.Xs, g.Packets, g.Interval, g.BaseSeed = []float64{30, 60}, 25, 40, 7
	figs, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	lat, bw := figs[0], figs[1]
	if len(lat.Rows) != 2 || len(bw.Rows) != 2 {
		t.Fatalf("row counts %d/%d", len(lat.Rows), len(bw.Rows))
	}
	for _, fig := range []*Figure{lat, bw} {
		for _, row := range fig.Rows {
			if row.X <= 0 {
				t.Fatalf("row without client count: %+v", row)
			}
			for _, p := range fig.Protocols {
				if fig.Value(row.Points[p]) <= 0 {
					t.Fatalf("%s %s: zero metric", fig.Name, p)
				}
			}
		}
	}
	// Larger topologies must report more clients.
	if lat.Rows[1].X <= lat.Rows[0].X {
		t.Fatalf("client counts not increasing: %v vs %v", lat.Rows[0].X, lat.Rows[1].X)
	}
}

func TestLossSweepSmall(t *testing.T) {
	l := PaperFigure78()
	l.Routers, l.Xs, l.Packets, l.Interval, l.BaseSeed = 40, []float64{5, 15}, 25, 40, 9
	figs, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	lat, bw := figs[0], figs[1]
	if len(lat.Rows) != 2 || len(bw.Rows) != 2 {
		t.Fatal("row counts wrong")
	}
	if lat.Rows[0].X != 5 || lat.Rows[1].X != 15 {
		t.Fatal("x values wrong")
	}
}

func TestReplicatesMergeCleanly(t *testing.T) {
	l := PaperFigure78()
	l.Routers, l.Xs, l.Packets, l.Interval, l.Replicates, l.BaseSeed = 30, []float64{10}, 20, 40, 3, 11
	figs, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := figs[0].Rows[0].Points["RP"]
	if p.Losses == 0 || p.Latency <= 0 {
		t.Fatalf("merged point degenerate: %+v", p)
	}
}

func TestAblationSweep(t *testing.T) {
	a := PaperAblation()
	a.Routers, a.Xs, a.Packets, a.Interval, a.BaseSeed = 30, []float64{10}, 20, 40, 13
	figs, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	lat := figs[0]
	for _, proto := range AblationProtocols {
		if lat.Value(lat.Rows[0].Points[proto]) <= 0 {
			t.Fatalf("%s missing from ablation", proto)
		}
	}
}

func TestFigureFormatAndCSV(t *testing.T) {
	l := PaperFigure78()
	l.Routers, l.Xs, l.Packets, l.Interval, l.BaseSeed = 30, []float64{10}, 15, 40, 15
	figs, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	lat := figs[0]
	var buf bytes.Buffer
	if err := lat.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 7", "SRM", "RMA", "RP", "RP vs SRM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := lat.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "per-link loss (%),") {
		t.Fatalf("CSV shape wrong:\n%s", buf.String())
	}
}

func TestPaperDefaults(t *testing.T) {
	g := PaperFigure56()
	if len(g.Xs) != 7 || g.Xs[0] != 50 || g.Xs[6] != 600 || g.Loss != 0.05 {
		t.Fatalf("Figure 5/6 defaults wrong: %+v", g)
	}
	l := PaperFigure78()
	if l.Routers != 500 || len(l.Xs) != 10 {
		t.Fatalf("Figure 7/8 defaults wrong: %+v", l)
	}
	a := PaperAblation()
	if a.Routers != 300 {
		t.Fatalf("ablation defaults wrong: %+v", a)
	}
}

// TestHeadlineComparisonSmall is the shape check at test scale: RP must
// beat SRM and RMA on latency, and must not exceed their bandwidth, on a
// mid-size topology at the paper's 5% loss.
func TestHeadlineComparisonSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run")
	}
	g := PaperFigure56()
	g.Xs, g.Packets, g.BaseSeed = []float64{100}, 60, 17
	figs, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	lat, bw := figs[0], figs[1]
	row := lat.Rows[0]
	rp := row.Points["RP"].Latency
	srmLat := row.Points["SRM"].Latency
	rmaLat := row.Points["RMA"].Latency
	if rp >= srmLat {
		t.Fatalf("RP latency %.2f not below SRM %.2f", rp, srmLat)
	}
	if rp >= rmaLat {
		t.Fatalf("RP latency %.2f not below RMA %.2f", rp, rmaLat)
	}
	brow := bw.Rows[0]
	if brow.Points["RP"].Bandwidth >= brow.Points["SRM"].Bandwidth {
		t.Fatalf("RP bandwidth %.2f not below SRM %.2f",
			brow.Points["RP"].Bandwidth, brow.Points["SRM"].Bandwidth)
	}
}

func TestRPImprovementHelper(t *testing.T) {
	f := &Figure{
		Metric:    "latency",
		Protocols: []string{"SRM", "RP"},
		Rows: []Row{{
			X: 1,
			Points: map[string]Point{
				"SRM": {Latency: 100},
				"RP":  {Latency: 40},
			},
		}},
	}
	if got := f.RPImprovement("SRM"); got != 0.6 {
		t.Fatalf("improvement %v, want 0.6", got)
	}
	empty := &Figure{Metric: "latency", Protocols: []string{"SRM", "RP"}}
	if empty.RPImprovement("SRM") != 0 {
		t.Fatal("empty figure should give 0")
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	if _, err := Run(RunSpec{Routers: 1, Loss: 0.05, Protocol: "RP", Packets: 5, Interval: 10}); err == nil {
		t.Fatal("tiny topology accepted")
	}
	if _, err := Run(RunSpec{Routers: 30, Loss: 0.05, Protocol: "NOPE", Packets: 5, Interval: 10}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunWithLinkStateAndTreeKind(t *testing.T) {
	res, err := Run(RunSpec{
		Routers: 40, Loss: 0.05, Protocol: "RP",
		Packets: 20, Interval: 40, TopoSeed: 3, SimSeed: 4,
		LinkState: true, RouteNoise: 0.2, Tree: topology.ShortestPathTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Unrecovered != 0 || !res.Complete {
		t.Fatalf("LSR+SPT run failed: %+v", res.Stats)
	}
}

func TestChartRendering(t *testing.T) {
	f := &Figure{
		Name:      "test figure",
		XLabel:    "x",
		YLabel:    "ms",
		Metric:    "latency",
		Protocols: []string{"SRM", "RMA", "RP"},
	}
	for i := 1; i <= 5; i++ {
		f.Rows = append(f.Rows, Row{
			X: float64(i),
			Points: map[string]Point{
				"SRM": {Latency: 100 + float64(i)},
				"RMA": {Latency: 80},
				"RP":  {Latency: 30 - float64(i)},
			},
		})
	}
	var buf bytes.Buffer
	if err := f.Chart(&buf, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"test figure", "S=SRM", "R=RP", "ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// Highest-latency protocol's glyph must appear above the lowest's.
	lines := strings.Split(out, "\n")
	firstS, firstR := -1, -1
	for i, l := range lines {
		if firstS < 0 && strings.Contains(l, "S") && strings.Contains(l, "|") {
			firstS = i
		}
		if firstR < 0 && strings.ContainsRune(l, 'R') && strings.Contains(l, "|") {
			firstR = i
		}
	}
	if firstS < 0 || firstR < 0 || firstS >= firstR {
		t.Fatalf("glyph ordering wrong (S at %d, R at %d):\n%s", firstS, firstR, out)
	}
	// Degenerate figures don't crash.
	empty := &Figure{Name: "empty", Protocols: []string{"RP"}}
	if err := empty.Chart(&buf, 5, 2); err != nil {
		t.Fatal(err)
	}
	one := &Figure{Name: "one", Metric: "latency", Protocols: []string{"RP"},
		Rows: []Row{{X: 3, Points: map[string]Point{"RP": {Latency: 5}}}}}
	if err := one.Chart(&buf, 20, 8); err != nil {
		t.Fatal(err)
	}
}

func TestMarkdownAndCI(t *testing.T) {
	l := PaperFigure78()
	l.Routers, l.Xs, l.Packets, l.Interval, l.Replicates, l.BaseSeed = 30, []float64{10}, 15, 40, 3, 77
	figs, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := figs[0].Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "| per-link loss (%) |") || !strings.Contains(out, "|---|") {
		t.Fatalf("markdown table malformed:\n%s", out)
	}
	// Three replicates ⇒ confidence intervals present.
	if !strings.Contains(out, "±") {
		t.Fatalf("no CI with 3 replicates:\n%s", out)
	}
	// Single replicate ⇒ no CI.
	l.Replicates = 1
	figs, err = l.Run()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := figs[0].Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "±") {
		t.Fatal("CI printed with one replicate")
	}
}
