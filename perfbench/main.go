// Command perfbench is the repository benchmark. It drives one named
// workload through the public entry points of the layers, checks the
// outputs, and prints one JSON result as its last line:
//
//	perfbench --workload fleet-open --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics BENCHMARK.json
// names; with --trace 1 it holds the per-layer metrics, taken from a run
// that records spans around every layer call and then replays each layer's
// public functions at the workload's shape. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// specMetric is one metric declaration in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads: which metrics
// each kind of run must print, and with which units.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// scale sizes the workloads. The command always uses defaultScale; the
// tests shrink it to keep the smoke runs seconds-long.
type scale struct {
	fleetSites, fleetHosts, fleetJobs int
	relayRounds                       int
	relayPings, relayBulks            int
	// library restricts the scenario corpus to these base names (nil = every
	// non-fleet file in scenarios/).
	library []string
}

func defaultScale() scale {
	return scale{
		fleetSites: 64, fleetHosts: 64, fleetJobs: 100_000,
		relayRounds: 20, relayPings: 256, relayBulks: 2,
	}
}

// run is one benchmark invocation's state.
type run struct {
	workload string
	seed     int64
	budget   time.Duration
	root     string
	sc       scale
	tr       *tracer
	heap     *heapPeak
	out      io.Writer

	m         map[string]metric
	attempted int64
	failed    int64
	// errs are failed output checks; any one makes the result incorrect.
	errs []error
	// ledger is the fleet workload's call mix, filled by fleet runs.
	ledger *fleetLedger
}

func (r *run) set(name string, v float64, unit string) {
	r.m[name] = metric{Value: v, Unit: unit}
}

// check records a failed output check.
func (r *run) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
		fmt.Fprintf(r.out, "CHECK FAILED: %v\n", err)
	}
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"fleet-open":       func(r *run) error { return runFleet(r, false) },
	"fleet-traced":     func(r *run) error { return runFleet(r, true) },
	"relay-tcp":        runRelay,
	"scenario-library": runLibrary,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measuring time per run")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := execute(sp, root, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, defaultScale(), stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output checks failed")
		return 1
	}
	return 0
}

// execute runs one workload and assembles the result. An error means the
// benchmark could not measure at all (bad arguments, missing inputs); output
// checks that fail come back in a result marked incorrect.
func execute(sp *spec, root, workload string, seed int64, budget time.Duration, traced bool, sc scale, out io.Writer) (*result, error) {
	drive, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	host := readHost(root)
	hostLine, _ := json.Marshal(map[string]any{"host": host, "workload": workload, "seed": seed, "trace": traced})
	fmt.Fprintln(out, string(hostLine))

	r := &run{workload: workload, seed: seed, budget: budget, root: root, sc: sc, out: out, m: map[string]metric{}}
	if traced {
		r.tr = newTracer()
		// The traced run measures for about the same time as an untraced
		// one: half on the workload, the rest on the layer replays.
		r.budget /= 2
	}
	r.heap = newHeapPeak()
	cpu0 := readCPU()
	start := time.Now()
	err := drive(r)
	wall := time.Since(start)
	r.set("go.gc_cpu_share", gcShare(cpu0, readCPU()), "share")
	r.set("peak_heap_mb", float64(r.heap.close())/1e6, "MB")
	if err != nil {
		return nil, err
	}
	want := sp.EndToEnd
	if traced {
		workloadSpans := len(r.tr.spans)
		overhead := float64(workloadSpans) * float64(pairCost()) / float64(wall)
		r.logf("traced end-to-end: %s", formatMetrics(r.m, sp.EndToEnd))
		if err := replayLayers(r); err != nil {
			return nil, err
		}
		r.set("trace.overhead_share", overhead, "share")
		r.set("trace.spans", float64(workloadSpans), "count")
		r.ledgerShare()
		printSelfTimes(r)
		path := filepath.Join(root, ".bench_out", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := r.tr.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.logf("spans written to %s", path)
		want = sp.PerLayer
	}
	res := &result{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if r.attempted < 1 {
		return nil, errors.New("workload attempted no operations")
	}
	if r.failed > 0 {
		res.Correct = false
	}
	for _, w := range want {
		got, ok := r.m[w.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q was not measured", w.Name)
		}
		if got.Unit != w.Unit {
			return nil, fmt.Errorf("metric %q measured in %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
		res.Metrics[w.Name] = got
	}
	return res, nil
}

// formatMetrics renders the named metrics on one line.
func formatMetrics(m map[string]metric, names []specMetric) string {
	s := ""
	for _, n := range names {
		if v, ok := m[n.Name]; ok {
			s += fmt.Sprintf(" %s=%.6g%s", n.Name, v.Value, v.Unit)
		}
	}
	return s
}

func printSelfTimes(r *run) {
	r.logf("%-46s %9s %14s %14s", "span", "count", "total", "self")
	for _, st := range r.tr.selfTimes() {
		r.logf("%-46s %9d %14s %14s", st.Name, st.Count, st.Total.Round(time.Microsecond), st.Self.Round(time.Microsecond))
	}
}
