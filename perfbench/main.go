// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (workloads.go) built from a seed for a fixed time, checks every
// result it measures, and prints the metrics: the end-to-end ones by
// default, the per-layer ones from a traced run. README.md in this directory
// describes the workloads, the metrics and the baseline numbers.
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 [-out DIR]
//	perfbench pool FILE...                  pool result files of one workload
//	perfbench compare BASE... -- NEW...     compare two pools of result files
//
// The last line of a run's standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full result — host stamp,
// per-engine rows, span self times and, when traced, every span — is written
// to DIR/results. A run whose checks fail exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "pool":
			return poolMain(args[1:], stdout, stderr)
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-backbone, tree-sharded, chaos-mutation or svc-churn")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 24, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory the result files are written under")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	rep, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	path := filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := writeReport(path, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, rep, path)
	for _, p := range rep.Problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(resultLine{Correct: rep.Correct, Attempted: rep.Attempted,
		Failed: rep.Failed, Metrics: rep.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured, as written to its result file.
type report struct {
	Stamp     stamp             `json:"stamp"`
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// FailRatio is failed ÷ attempted. It is not a metric of the result
	// line, where it would read 0 on every correct run; the line carries it
	// as its failed and attempted counts.
	FailRatio float64 `json:"fail_ratio"`
	// Ungated metrics are printed and recorded but left out of the result
	// line, because their run-to-run spread exceeds any usable bound.
	Ungated  map[string]metric `json:"ungated,omitempty"`
	Notes    []string          `json:"notes,omitempty"`
	Problems []string          `json:"problems,omitempty"`
	Engines  []engineRow       `json:"engines,omitempty"`
	Cells    []cellRow         `json:"cells,omitempty"`
	Rounds   []roundRow        `json:"rounds,omitempty"`
	Layers   []layerTime       `json:"layers,omitempty"`
	Spans    []span            `json:"spans,omitempty"`
	Samples  map[string]int    `json:"samples"`
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Workload == "" {
		return nil, errors.New(path + ": not a perfbench result file")
	}
	return rep, nil
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printReport(w io.Writer, rep *report, path string) {
	kind := "end-to-end"
	if rep.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g: %s metrics\n", rep.Workload, rep.Stamp.Seed, rep.Seconds, kind)
	fmt.Fprintf(w, "host: %s\n", rep.Stamp)
	for _, n := range sortedNames(rep.Metrics) {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-36s %16.6g ratio (%d failed of %d attempted; not gated)\n", "fail_ratio", rep.FailRatio, rep.Failed, rep.Attempted)
	for _, n := range sortedNames(rep.Ungated) {
		m := rep.Ungated[n]
		fmt.Fprintf(w, "  %-36s %16.6g %s (not gated)\n", n, m.Value, m.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if len(rep.Engines) > 0 {
		fmt.Fprintf(w, "per engine: %-14s %10s %10s %8s %10s %10s %8s %8s\n",
			"protocol", "recoveries", "duplicates", "useful", "req-hops", "lat-ms", "coded", "sharded")
		for _, e := range rep.Engines {
			fmt.Fprintf(w, "            %-14s %10d %10d %8.4f %10.3f %10.3f %8d %8v\n",
				e.Protocol, e.Recoveries, e.Duplicates, e.UsefulRatio, e.RequestHopsPerRecovery,
				e.LatencyMs, e.CodedSymbols, e.Sharded)
		}
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintf(w, "span self times: %-22s %6s %12s %12s\n", "span", "count", "total-ms", "self-ms")
		for _, l := range rep.Layers {
			fmt.Fprintf(w, "                 %-22s %6d %12.3f %12.3f\n", l.Name, l.Count, l.TotalMs, l.SelfMs)
		}
	}
	fmt.Fprintf(w, "result file: %s\n", path)
}
