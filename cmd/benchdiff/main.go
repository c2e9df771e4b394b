// Command benchdiff compares two benchmark JSON files produced by
// cmd/benchjson (e.g. a committed BENCH_kernel.json baseline against a fresh
// run) and prints per-benchmark ns/op and allocs/op deltas:
//
//	make bench-json BENCH_OUT=BENCH_new.json
//	go run ./cmd/benchdiff BENCH_kernel.json BENCH_new.json
//
// The exit status makes it a regression gate: 0 when every shared benchmark
// stays within the threshold, 1 on regression, 2 on usage or parse errors.
// -threshold sets the allowed relative ns/op growth (default 0.10 = +10%).
// On a 0-alloc baseline any allocs/op increase is a regression (the 0-alloc
// hot paths are an explicit contract); nonzero alloc baselines get the same
// relative threshold, so allocation jitter in the end-to-end benchmarks does
// not flake the gate.
//
// -scenarios-old/-scenarios-new additionally (or instead) compare
// scenario-suite JSON written by `simulator run -json` over scenarios/*.yaml:
// the new suite must pass every invariant, must not have fewer scenarios or
// invariants than the committed baseline, and must not have dropped a
// baseline scenario by name — so coverage regressions in the declarative
// scenario library fail the same gate as performance regressions:
//
//	go run ./cmd/simulator run -json SCENARIOS_new.json scenarios/*.yaml
//	go run ./cmd/benchdiff -scenarios-old SCENARIOS_suite.json -scenarios-new SCENARIOS_new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Record mirrors cmd/benchjson's output shape.
type Record struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Row is one benchmark's comparison.
type Row struct {
	Name      string
	OldNs     float64
	NewNs     float64
	NsDelta   float64 // relative: (new-old)/old
	OldAllocs int64
	NewAllocs int64
	// Regressed marks rows past the threshold (or any alloc growth).
	Regressed bool
	// OnlyOld/OnlyNew mark benchmarks present in just one file.
	OnlyOld bool
	OnlyNew bool
}

// Diff compares old and new records: shared benchmarks get a delta row,
// one-sided benchmarks are flagged, and rows sort by name. threshold is the
// allowed relative ns/op growth before a row counts as regressed.
func Diff(oldRecs, newRecs []Record, threshold float64) []Row {
	old := make(map[string]Record, len(oldRecs))
	for _, r := range oldRecs {
		old[r.Name] = r
	}
	cur := make(map[string]Record, len(newRecs))
	for _, r := range newRecs {
		cur[r.Name] = r
	}
	var rows []Row
	for name, o := range old {
		n, ok := cur[name]
		if !ok {
			rows = append(rows, Row{Name: name, OldNs: o.NsPerOp, OldAllocs: o.AllocsPerOp, OnlyOld: true})
			continue
		}
		row := Row{
			Name:  name,
			OldNs: o.NsPerOp, NewNs: n.NsPerOp,
			OldAllocs: o.AllocsPerOp, NewAllocs: n.AllocsPerOp,
		}
		if o.NsPerOp > 0 {
			row.NsDelta = (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		}
		allocGrowth := n.AllocsPerOp > o.AllocsPerOp &&
			(o.AllocsPerOp == 0 ||
				float64(n.AllocsPerOp-o.AllocsPerOp)/float64(o.AllocsPerOp) > threshold)
		row.Regressed = row.NsDelta > threshold || allocGrowth
		rows = append(rows, row)
	}
	for name, n := range cur {
		if _, ok := old[name]; !ok {
			rows = append(rows, Row{Name: name, NewNs: n.NsPerOp, NewAllocs: n.AllocsPerOp, OnlyNew: true})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// Format renders the comparison table and reports whether any row regressed.
func Format(rows []Row, threshold float64) (string, bool) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %12s %12s %8s %10s %10s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")
	regressed := false
	for _, r := range rows {
		switch {
		case r.OnlyOld:
			fmt.Fprintf(&b, "%-40s %12.1f %12s %8s %10d %10s  (removed)\n",
				r.Name, r.OldNs, "-", "-", r.OldAllocs, "-")
		case r.OnlyNew:
			fmt.Fprintf(&b, "%-40s %12s %12.1f %8s %10s %10d  (new)\n",
				r.Name, "-", r.NewNs, "-", "-", r.NewAllocs)
		default:
			mark := ""
			if r.Regressed {
				mark = "  REGRESSION"
				regressed = true
			} else if r.NsDelta < -threshold {
				mark = "  improved"
			}
			fmt.Fprintf(&b, "%-40s %12.1f %12.1f %+7.1f%% %10d %10d%s\n",
				r.Name, r.OldNs, r.NewNs, r.NsDelta*100, r.OldAllocs, r.NewAllocs, mark)
		}
	}
	return b.String(), regressed
}

// ScenarioResult mirrors internal/scenario.Result's JSON shape (only the
// gated fields).
type ScenarioResult struct {
	Name       string   `json:"name"`
	Passed     bool     `json:"passed"`
	Invariants int      `json:"invariants"`
	Failures   []string `json:"failures,omitempty"`
}

// SuiteResult mirrors internal/scenario.SuiteResult's JSON shape.
type SuiteResult struct {
	Scenarios []ScenarioResult `json:"scenarios"`
}

func (s *SuiteResult) counts() (scenarios, invariants, failures int) {
	for _, sc := range s.Scenarios {
		scenarios++
		invariants += sc.Invariants
		failures += len(sc.Failures)
	}
	return
}

// SuiteSection renders the scenario suite's summary line (plus any
// violations) and reports whether the suite regressed: a failed invariant in
// the new run, fewer scenarios or invariants than the baseline, or a
// baseline scenario missing by name. old may be nil (no baseline: gate only
// on the new run's own failures).
func SuiteSection(old, cur *SuiteResult) (string, bool) {
	var b strings.Builder
	regressed := false
	scen, inv, fails := cur.counts()
	fmt.Fprintf(&b, "\nscenario suite: %d scenarios, %d invariants, %d failures", scen, inv, fails)
	if old != nil {
		oScen, oInv, _ := old.counts()
		fmt.Fprintf(&b, " (baseline: %d scenarios, %d invariants)", oScen, oInv)
		if scen < oScen {
			fmt.Fprintf(&b, "\n  REGRESSION: scenario count shrank %d -> %d", oScen, scen)
			regressed = true
		}
		if inv < oInv {
			fmt.Fprintf(&b, "\n  REGRESSION: invariant count shrank %d -> %d", oInv, inv)
			regressed = true
		}
		have := make(map[string]bool, len(cur.Scenarios))
		for _, sc := range cur.Scenarios {
			have[sc.Name] = true
		}
		for _, sc := range old.Scenarios {
			if !have[sc.Name] {
				fmt.Fprintf(&b, "\n  REGRESSION: baseline scenario %q dropped", sc.Name)
				regressed = true
			}
		}
	}
	for _, sc := range cur.Scenarios {
		if !sc.Passed {
			regressed = true
			for _, f := range sc.Failures {
				fmt.Fprintf(&b, "\n  FAIL %s: %s", sc.Name, f)
			}
		}
	}
	b.WriteString("\n")
	return b.String(), regressed
}

func loadSuite(path string) (*SuiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s SuiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func load(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "allowed relative ns/op growth before a benchmark counts as regressed")
	scenOld := flag.String("scenarios-old", "", "committed scenario-suite JSON baseline to gate coverage against")
	scenNew := flag.String("scenarios-new", "", "fresh scenario-suite JSON (simulator run -json)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-threshold 0.10] [-scenarios-old base.json -scenarios-new new.json] [old.json new.json]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	benchArgs := flag.NArg() == 2
	if (!benchArgs && (flag.NArg() != 0 || *scenNew == "")) || *threshold < 0 || math.IsNaN(*threshold) {
		flag.Usage()
		os.Exit(2)
	}
	regressed := false
	if benchArgs {
		oldRecs, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		newRecs, err := load(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		out, reg := Format(Diff(oldRecs, newRecs, *threshold), *threshold)
		fmt.Print(out)
		if reg {
			regressed = true
			fmt.Fprintf(os.Stderr, "benchdiff: regression past %.0f%% threshold\n", *threshold*100)
		}
	}
	if *scenNew != "" {
		cur, err := loadSuite(*scenNew)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		var base *SuiteResult
		if *scenOld != "" {
			if base, err = loadSuite(*scenOld); err != nil {
				fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
				os.Exit(2)
			}
		}
		out, reg := SuiteSection(base, cur)
		fmt.Print(out)
		if reg {
			regressed = true
			fmt.Fprintf(os.Stderr, "benchdiff: scenario suite regression\n")
		}
	}
	if regressed {
		os.Exit(1)
	}
}
