package experiment

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// figureBytes renders a figure through every text emitter, so "byte
// identical" below means identical down to the formatted output the cmd
// tools print, not just DeepEqual on the structs.
func figureBytes(t *testing.T, f *Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Format(&buf); err != nil {
		t.Fatal(err)
	}
	if err := f.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reducedSweeps returns every sweep constructor's grid cut down to 40
// routers, 15 packets, two replicates (so the replicate merge runs) and two
// x values, plus the fault-free zero row for the robustness sweeps, with
// the SHA-256 of its figures as figureBytes renders them. The
// digests pin the seeds, the grid order, the merge and the figure labels of
// every sweep at once; re-record them only for an intended output change.
func reducedSweeps() []struct {
	name   string
	sweep  Sweep
	golden string
} {
	reduce := func(s Sweep, xs ...float64) Sweep {
		s.Routers, s.Xs, s.Packets, s.Replicates = 40, xs, 15, 2
		return s
	}
	return []struct {
		name   string
		sweep  Sweep
		golden string
	}{
		{"PaperFigure56", reduce(PaperFigure56(), 40, 60),
			"2f513b63f7800024134c562f28243b8489221eb4acb18263e467d6f2166b6bfa"},
		{"PaperFigure78", reduce(PaperFigure78(), 5, 10),
			"51ac442bff1894a49097fc29704daa995f4a562b8e8af2f6f4e22a6e2f3d4a28"},
		{"PaperAblation", reduce(PaperAblation(), 5, 15),
			"bfdfe27e9fdcee52bb2d28a5d69fa23ca3fd6e6a0b3c979c2c333d4dfc28e6ed"},
		{"DefaultChaos", reduce(DefaultChaos(), 0, 0.5, 1),
			"589fcb77a926556f772ae2d9dfef7793c9e5a4f23d47aa99528ee5bec2a3dec9"},
		{"DefaultAdversarial", reduce(DefaultAdversarial(), 0, 0.5, 1),
			"3e2562b028d651e0773439d6189b041b06f2774edd5746dfb3b82961b150b09d"},
		{"DefaultChurn", reduce(DefaultChurn(), 0, 0.5, 1),
			"11ecdb40e5bc377c82b44ac97b7ada5dfb6ddeae715f72c281a782976d9246b6"},
	}
}

// sweepBytes runs a sweep and renders all its figures.
func sweepBytes(t *testing.T, s Sweep) ([]*Figure, []byte) {
	t.Helper()
	figs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, f := range figs {
		out = append(out, figureBytes(t, f)...)
	}
	return figs, out
}

// TestSweepGolden pins the rendered figures of every sweep constructor.
func TestSweepGolden(t *testing.T) {
	for _, row := range reducedSweeps() {
		t.Run(row.name, func(t *testing.T) {
			_, out := sweepBytes(t, row.sweep)
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != row.golden {
				t.Fatalf("figure digest %s, want %s:\n%s", got, row.golden, out)
			}
		})
	}
}

// TestSweepParallelDeterminism asserts every sweep's worker-pool run is
// identical to its serial run, as structs and as rendered bytes: cells are
// independently seeded (fault schedules, shared mutation configs and
// RP-FAILOVER elections included), so the schedule cannot leak into the
// figures.
func TestSweepParallelDeterminism(t *testing.T) {
	for _, row := range reducedSweeps() {
		t.Run(row.name, func(t *testing.T) {
			serial := row.sweep
			serial.Parallel = 1
			want, wantBytes := sweepBytes(t, serial)
			for _, workers := range []int{2, 4, 8} {
				par := row.sweep
				par.Parallel = workers
				got, gotBytes := sweepBytes(t, par)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("parallel=%d: figures differ from serial", workers)
				}
				if !bytes.Equal(gotBytes, wantBytes) {
					t.Fatalf("parallel=%d: output bytes differ from serial", workers)
				}
			}
		})
	}
}

// TestSweepNamesFailingCell asserts a failing grid names its lowest failing
// cell by row label, protocol and replicate at any worker count.
func TestSweepNamesFailingCell(t *testing.T) {
	s := PaperFigure78()
	s.Routers, s.Xs, s.Packets, s.Replicates = 40, []float64{5, 10}, 5, 2
	s.Protocols = []string{"RP", "NO-SUCH"}
	for _, workers := range []int{1, 4} {
		s.Parallel = workers
		if _, err := s.Run(); err == nil || !strings.HasPrefix(err.Error(), "p=5% NO-SUCH rep 0: ") {
			t.Fatalf("parallel=%d: error %v, want the p=5%% NO-SUCH rep 0 cell", workers, err)
		}
	}
}

// TestRunCellsErrorIndexDeterministic asserts a failing grid reports the
// lowest failing index regardless of worker count.
func TestRunCellsErrorIndexDeterministic(t *testing.T) {
	specs := []RunSpec{
		{Routers: 40, Loss: 0.05, Protocol: "RP", Packets: 5, Interval: 50, TopoSeed: 1, SimSeed: 1},
		{Routers: 40, Loss: 0.05, Protocol: "NO-SUCH", Packets: 5, Interval: 50, TopoSeed: 1, SimSeed: 1},
		{Routers: 40, Loss: 0.05, Protocol: "ALSO-BAD", Packets: 5, Interval: 50, TopoSeed: 1, SimSeed: 1},
	}
	for _, workers := range []int{1, 4} {
		_, idx, err := runCells(specs, workers)
		if err == nil {
			t.Fatalf("parallel=%d: expected error", workers)
		}
		if idx != 1 {
			t.Fatalf("parallel=%d: failing index %d, want 1", workers, idx)
		}
	}
}
