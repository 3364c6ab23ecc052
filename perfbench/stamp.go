package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies the host and inputs a result was measured with. Results
// are pooled or compared only when their hosts match: a number from another
// CPU model, CPU count, GOMAXPROCS or Go release is not comparable.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Seed       uint64 `json:"seed"`
}

func hostStamp(seed uint64) stamp {
	return stamp{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Seed: seed}
}

func (s stamp) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d %s seed=%d", s.CPU, s.NProc, s.GOMAXPROCS, s.Go, s.Seed)
}

// host is the stamp without its seed.
func (s stamp) host() stamp {
	s.Seed = 0
	return s
}

// cpuModel reads the CPU model name, or falls back to the architecture.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// pool is a set of result files of one workload and run kind, measured on
// one host.
type pool struct {
	workload string
	traced   bool
	host     stamp
	seeds    []uint64
	values   map[string][]float64
	units    map[string]string
	failed   int
}

// loadPool reads result files and refuses to pool them unless they share
// workload, run kind and host.
func loadPool(paths []string) (*pool, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files")
	}
	p := &pool{values: map[string][]float64{}, units: map[string]string{}}
	for i, path := range paths {
		rep, err := readReport(path)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			p.workload, p.traced, p.host = rep.Workload, rep.Traced, rep.Stamp.host()
		}
		switch {
		case rep.Workload != p.workload:
			return nil, fmt.Errorf("%s: workload %s, not %s", path, rep.Workload, p.workload)
		case rep.Traced != p.traced:
			return nil, fmt.Errorf("%s: traced and untraced runs do not pool", path)
		case rep.Stamp.host() != p.host:
			return nil, fmt.Errorf("%s: host %s differs from %s", path, rep.Stamp.host(), p.host)
		}
		p.seeds = append(p.seeds, rep.Stamp.Seed)
		if !rep.Correct {
			p.failed++
		}
		for name, m := range rep.Metrics {
			p.values[name] = append(p.values[name], m.Value)
			p.units[name] = m.Unit
		}
	}
	return p, nil
}

func (p *pool) names() []string {
	out := make([]string, 0, len(p.values))
	for n := range p.values {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return math.Abs(ratio(q3-q1, median(xs)))
}

// poolMain prints, per metric, the median, the quartiles and their spread
// over the given result files.
func poolMain(paths []string, stdout, stderr io.Writer) int {
	p, err := loadPool(paths)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench pool:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s (%d runs, %d incorrect) host: %s\n", p.workload, len(p.seeds), p.failed, p.host)
	fmt.Fprintf(stdout, "%-36s %14s %14s %14s %8s %s\n", "metric", "median", "q1", "q3", "spread", "unit")
	for _, n := range p.names() {
		xs := p.values[n]
		q1, q3 := quartiles(xs)
		fmt.Fprintf(stdout, "%-36s %14.6g %14.6g %14.6g %8.4f %s\n", n, median(xs), q1, q3, spread(xs), p.units[n])
	}
	if p.failed > 0 {
		return 1
	}
	return 0
}

// compareMain compares two pools, base and new, separated by "--". They
// must come from the same host, workload and run kind, and cover the same
// seeds, so that the comparison is paired.
func compareMain(args []string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 0 {
		fmt.Fprintln(stderr, "perfbench compare: usage: compare BASE... -- NEW...")
		return 2
	}
	base, err := loadPool(args[:sep])
	if err == nil {
		var next *pool
		next, err = loadPool(args[sep+1:])
		if err == nil {
			err = comparable(base, next)
			if err == nil {
				printComparison(stdout, base, next)
				return 0
			}
		}
	}
	fmt.Fprintln(stderr, "perfbench compare:", err)
	return 1
}

func comparable(a, b *pool) error {
	switch {
	case a.workload != b.workload:
		return fmt.Errorf("workloads %s and %s differ", a.workload, b.workload)
	case a.traced != b.traced:
		return fmt.Errorf("a traced and an untraced pool do not compare")
	case a.host != b.host:
		return fmt.Errorf("hosts differ: %s against %s", a.host, b.host)
	}
	sa := append([]uint64(nil), a.seeds...)
	sb := append([]uint64(nil), b.seeds...)
	sort.Slice(sa, func(i, j int) bool { return sa[i] < sa[j] })
	sort.Slice(sb, func(i, j int) bool { return sb[i] < sb[j] })
	if fmt.Sprint(sa) != fmt.Sprint(sb) {
		return fmt.Errorf("seeds differ: %v against %v", sa, sb)
	}
	return nil
}

func printComparison(w io.Writer, base, next *pool) {
	fmt.Fprintf(w, "%s, %d seeds, host: %s\n", base.workload, len(base.seeds), base.host)
	fmt.Fprintf(w, "%-36s %14s %14s %9s %8s %8s %s\n", "metric", "base", "new", "new/base", "spread0", "spread1", "unit")
	for _, n := range base.names() {
		a, b := base.values[n], next.values[n]
		if len(b) == 0 {
			continue
		}
		ma, mb := median(a), median(b)
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %9.4f %8.4f %8.4f %s\n", n, ma, mb, ratio(mb, ma), spread(a), spread(b), base.units[n])
	}
}
