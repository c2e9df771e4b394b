package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"nxcluster/internal/scenario"
)

// corpusFile is one scenario file of the library.
type corpusFile struct {
	base string // file name without extension: the metric name's middle
	data []byte
}

// loadCorpus reads every scenario file under root/scenarios except the
// fleet ones (fleet-open and fleet-traced cover that layer), optionally
// restricted to the named bases.
func loadCorpus(root string, only []string) ([]corpusFile, error) {
	paths, err := filepath.Glob(filepath.Join(root, "scenarios", "*.yaml"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []corpusFile
	for _, p := range paths {
		base := strings.TrimSuffix(filepath.Base(p), ".yaml")
		if only != nil && !contains(only, base) {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		s, err := scenario.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if s.Kind == scenario.KindFleet {
			continue
		}
		out = append(out, corpusFile{base: base, data: data})
	}
	if len(out) == 0 {
		return nil, errors.New("scenario-library: no scenario files under scenarios/")
	}
	return out, nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// baselineEntry is one scenario of the committed SCENARIOS_suite.json.
type baselineEntry struct {
	Name        string `json:"name"`
	Passed      bool   `json:"passed"`
	Fingerprint string `json:"fingerprint"`
}

func loadBaseline(root string) (map[string]baselineEntry, error) {
	data, err := os.ReadFile(filepath.Join(root, "SCENARIOS_suite.json"))
	if err != nil {
		return nil, err
	}
	var suite struct {
		Scenarios []baselineEntry `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &suite); err != nil {
		return nil, fmt.Errorf("SCENARIOS_suite.json: %w", err)
	}
	out := map[string]baselineEntry{}
	for _, s := range suite.Scenarios {
		out[s.Name] = s
	}
	return out, nil
}

// checkScenario requires a run to pass every invariant and to reproduce the
// committed fingerprint.
func checkScenario(res *scenario.Result, base map[string]baselineEntry) error {
	if !res.Passed {
		return fmt.Errorf("scenario %s failed: %s", res.Name, strings.Join(res.Failures, "; "))
	}
	want, ok := base[res.Name]
	if !ok {
		return fmt.Errorf("scenario %s has no SCENARIOS_suite.json entry", res.Name)
	}
	if res.Fingerprint != want.Fingerprint {
		return fmt.Errorf("scenario %s fingerprint %q, SCENARIOS_suite.json has %q", res.Name, res.Fingerprint, want.Fingerprint)
	}
	return nil
}

// parseCorpus parses and validates every file, returning the specs and the
// seconds Parse alone took.
func parseCorpus(r *run, corpus []corpusFile) ([]*scenario.Spec, float64, error) {
	specs := make([]*scenario.Spec, len(corpus))
	var parse float64
	for i, f := range corpus {
		t0 := time.Now()
		s := r.tr.begin("scenario.Parse")
		spec, err := scenario.Parse(f.data)
		r.tr.end(s)
		parse += secondsSince(t0)
		if err == nil {
			s = r.tr.begin("scenario.Validate")
			err = scenario.Validate(spec)
			r.tr.end(s)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f.base, err)
		}
		specs[i] = spec
	}
	return specs, parse, nil
}

// libraryStats is one scenario-library measurement.
type libraryStats struct {
	setups, parses    []float64
	passes            []float64
	perFile           map[string][]float64
	attempted, failed int64
}

// setupReps is how many times the library's set-up (Parse+Validate of the
// corpus, a few milliseconds) is repeated before each pass; the median over
// the run is reported. Each repetition starts from a collected heap, as the
// fleet's builds do. Taking them through the run, not in one burst at its
// start, keeps a spell of host load there from setting the median.
const setupReps = 16

// setUp parses and validates the corpus setupReps times, recording each
// time, and returns the last specs.
func setUp(r *run, corpus []corpusFile, st *libraryStats) ([]*scenario.Spec, error) {
	var specs []*scenario.Spec
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		sp := r.tr.begin("scenario.corpus")
		got, parse, err := parseCorpus(r, corpus)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		st.setups = append(st.setups, secondsSince(t0))
		st.parses = append(st.parses, parse)
		specs = got
	}
	return specs, nil
}

// measureLibrary runs passes over the corpus in a seed-permuted order until
// budget is spent, each after a set-up. Each scenario starts from a
// collected heap; a pass's time is the sum of its scenarios' Run walls,
// steal excluded (see stopwatch).
func measureLibrary(r *run, corpus []corpusFile, budget time.Duration) (*libraryStats, error) {
	base, err := loadBaseline(r.root)
	if err != nil {
		return nil, err
	}
	st := &libraryStats{perFile: map[string][]float64{}}
	rng := rand.New(rand.NewSource(r.seed))
	deadline := time.Now().Add(budget)
	r.heap.followCollections(true)
	defer r.heap.followCollections(false)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		specs, err := setUp(r, corpus, st)
		if err != nil {
			return nil, err
		}
		var pass float64
		for _, i := range rng.Perm(len(specs)) {
			st.attempted++
			runtime.GC()
			watch := startWatch()
			s := r.tr.begin("scenario.Run/" + corpus[i].base)
			res, err := scenario.Run(specs[i])
			r.tr.end(s)
			wall := watch.seconds()
			pass += wall
			st.perFile[corpus[i].base] = append(st.perFile[corpus[i].base], wall)
			if err == nil {
				err = checkScenario(res, base)
			}
			if err != nil {
				st.failed++
				r.check(fmt.Errorf("%s: %w", corpus[i].base, err))
			}
		}
		st.passes = append(st.passes, pass)
	}
	return st, nil
}

// runLibrary is the scenario-library workload.
func runLibrary(r *run) error {
	corpus, err := loadCorpus(r.root, r.sc.library)
	if err != nil {
		return err
	}
	st, err := measureLibrary(r, corpus, r.budget)
	if err != nil {
		return err
	}
	r.attempted += st.attempted
	r.failed += st.failed
	// The latencies are those of a whole pass, what `make scenarios` waits
	// for. A percentile over the files would pick one file's time, and
	// which file moves from run to run with the host's load; a pass sums
	// all of them.
	library := median(st.passes)
	r.set("setup_s", median(st.setups), "s")
	r.set("ops_per_s", float64(len(corpus))/library, "1/s")
	r.set("op_p50_ms", library*1e3, "ms")
	r.set("op_tail_ms", percentile(st.passes, 90)*1e3, "ms")
	setLibraryLayers(r, st)
	r.logf("scenario-library: %d files, %d passes, library %.3f s (median), parse+validate %.2f ms",
		len(corpus), len(st.passes), library, median(st.setups)*1e3)
	return nil
}

// setLibraryLayers records the scenario layer metrics.
func setLibraryLayers(r *run, st *libraryStats) {
	r.set("scenario.parse_ms", median(st.parses)*1e3, "ms")
	for base, secs := range st.perFile {
		r.set("scenario."+base+"_s", median(secs), "s")
	}
}
