package scenario

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/chaos"
	"nxcluster/internal/fleet"
	"nxcluster/internal/obs"
	"nxcluster/internal/obs/causal"
)

// Result is the outcome of running one scenario. The JSON shape is the one
// cmd/benchdiff's suite gate consumes and SCENARIOS_suite.json records.
type Result struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	Passed     bool     `json:"passed"`
	Invariants int      `json:"invariants"`
	Failures   []string `json:"failures,omitempty"`
	// TraceHash is the run's FNV-64a determinism witness (hex): the full
	// observability trace for chaos, the kernel event traces for grid, the
	// time-series serialization for monitor, and the canonical result
	// fingerprint for the stateless bench sweeps.
	TraceHash string `json:"trace_hash"`
	// Fingerprint is the canonical rendering of the run's results that the
	// double run is compared on.
	Fingerprint string `json:"fingerprint"`
	ElapsedMS   int64  `json:"elapsed_ms"`
}

// SuiteResult aggregates a run over many scenario files.
type SuiteResult struct {
	Scenarios []Result `json:"scenarios"`
}

// Passed reports whether every scenario passed.
func (r *SuiteResult) Passed() bool {
	for _, s := range r.Scenarios {
		if !s.Passed {
			return false
		}
	}
	return true
}

// Counts returns total scenarios, invariants checked, and failures.
func (r *SuiteResult) Counts() (scenarios, invariants, failures int) {
	for _, s := range r.Scenarios {
		scenarios++
		invariants += s.Invariants
		failures += len(s.Failures)
	}
	return
}

// gridRun carries a grid result plus the instance shape its assertions need.
type gridRun struct {
	items, capacity int
	res             *bench.GridResult
}

// fleetRun carries a fleet result plus the config its assertions need.
type fleetRun struct {
	cfg fleet.Config
	res fleet.Result
}

// Run executes one validated scenario: the workload twice (the implicit
// determinism invariant every scenario carries), then each declared
// assertion against the first run. Harness errors — a config the runner
// rejects — come back as the error; assertion violations and determinism
// breaks are recorded as failures in the Result.
func Run(s *Spec) (*Result, error) {
	if err := s.checkShape(); err != nil {
		return nil, err
	}
	as, err := buildAsserts(s)
	if err != nil {
		return nil, err
	}
	if s.Kind == KindChaos {
		return runChaos(s, as.chaos)
	}

	run := func() (any, string, uint64, time.Duration, error) {
		switch s.Kind {
		case KindTable2:
			rows, err := bench.RunTable2(s.table2Config())
			if err != nil {
				return nil, "", 0, 0, err
			}
			fp := fingerprintTable2(rows)
			var max time.Duration
			for _, r := range rows {
				if r.Latency > max {
					max = r.Latency
				}
			}
			return rows, fp, fnvHash(fp), max, nil
		case KindTable4:
			rep, err := bench.RunKnapsack(s.table4Config())
			if err != nil {
				return nil, "", 0, 0, err
			}
			fp := fingerprintTable4(rep)
			return rep, fp, fnvHash(fp), rep.SeqTime, nil
		case KindMonitor:
			rep, err := bench.RunMonitor(s.monitorConfig(), nil)
			if err != nil {
				return nil, "", 0, 0, err
			}
			fp := fingerprintMonitor(rep)
			return rep, fp, rep.Store.Hash(), rep.Elapsed, nil
		case KindGridFTP:
			pts, err := bench.RunTransfer(s.transferConfig())
			if err != nil {
				return nil, "", 0, 0, err
			}
			fp := fingerprintTransfer(pts)
			var max time.Duration
			for _, p := range pts {
				if p.Elapsed > max {
					max = p.Elapsed
				}
			}
			return pts, fp, fnvHash(fp), max, nil
		case KindGrid:
			cfg, err := s.gridConfig()
			if err != nil {
				return nil, "", 0, 0, err
			}
			res, err := bench.RunGridKnapsack(cfg)
			if err != nil {
				return nil, "", 0, 0, err
			}
			gr := &gridRun{items: cfg.Items, capacity: cfg.Capacity, res: res}
			h := fnv.New64a()
			fmt.Fprintf(h, "%016x ", res.TraceHash)
			return gr, fingerprintGrid(res), h.Sum64(), res.Elapsed, nil
		case KindFleet:
			cfg := s.fleetConfig()
			e, err := fleet.New(cfg)
			if err != nil {
				return nil, "", 0, 0, err
			}
			if err := e.Run(); err != nil {
				return nil, "", 0, 0, err
			}
			if err := checkFleetSpans(cfg, e.Observer()); err != nil {
				return nil, "", 0, 0, err
			}
			res := e.Result()
			fr := &fleetRun{cfg: cfg, res: res}
			// The engine's own FNV fingerprint is the trace hash: it folds in
			// event counts, latency percentiles, and per-site completions.
			return fr, fingerprintFleet(res), res.Fingerprint, res.Makespan, nil
		}
		return nil, "", 0, 0, fmt.Errorf("scenario %s: unknown kind %q", s.Name, s.Kind)
	}

	v1, fp1, h1, elapsed, err := run()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	_, fp2, h2, _, err := run()
	if err != nil {
		return nil, fmt.Errorf("scenario %s (replay): %w", s.Name, err)
	}
	res := &Result{
		Name:        s.Name,
		Kind:        string(s.Kind),
		TraceHash:   fmt.Sprintf("%016x", h1),
		Fingerprint: fp1,
		ElapsedMS:   elapsed.Milliseconds(),
	}
	res.Invariants++ // the implicit determinism invariant
	if h1 != h2 {
		res.Failures = append(res.Failures, fmt.Sprintf("determinism: trace hash %016x != %016x across identical runs", h1, h2))
	} else if fp1 != fp2 {
		res.Failures = append(res.Failures, fmt.Sprintf("determinism: results diverge: %q vs %q", fp1, fp2))
	}
	for _, c := range as.other {
		res.Invariants++
		if err := c.Fn(v1); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: %v", c.Name, err))
		}
	}
	if s.SLO != nil {
		// checkShape restricts SLOs to monitor among the non-chaos kinds, so
		// v1 is the monitored report carrying both the causal trace and the
		// windowed store.
		rep := v1.(*bench.MonitorReport)
		res.Invariants += s.SLO.Objectives()
		res.Failures = append(res.Failures, s.SLO.Evaluate(rep.Obs.Events(), rep.Store)...)
	}
	res.Passed = len(res.Failures) == 0
	return res, nil
}

// runChaos delegates to chaos.RunScenario, which owns the double-run
// determinism check, the invariant sweep, and the baseline comparison.
func runChaos(s *Spec, invs []chaos.Invariant) (*Result, error) {
	cfg, err := s.chaosConfig()
	if err != nil {
		return nil, err
	}
	sc := chaos.Scenario{
		Name:       s.Name,
		Config:     cfg,
		Invariants: invs,
	}
	if s.Baseline != nil {
		bcfg, err := s.Baseline.chaosConfig()
		if err != nil {
			return nil, err
		}
		sc.Baseline = &bcfg
		if s.Compare != "" {
			cmp, err := comparatorOf(s.Compare)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
			}
			sc.Compare = cmp
		}
	}
	cres, err := chaos.RunScenario(sc)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:        cres.Name,
		Kind:        string(KindChaos),
		Passed:      cres.Passed,
		Invariants:  cres.Invariants,
		Failures:    cres.Failures,
		TraceHash:   cres.TraceHash,
		Fingerprint: fmt.Sprintf("elapsed=%dms job=%dms", cres.ElapsedMS, cres.JobDoneMS),
		ElapsedMS:   cres.ElapsedMS,
	}
	if s.SLO != nil {
		res.Invariants += s.SLO.Objectives()
		res.Failures = append(res.Failures, s.SLO.Evaluate(cres.Obs.Events(), cres.Report.Store)...)
		res.Passed = len(res.Failures) == 0
	}
	return res, nil
}

// --- canonical fingerprints ---
//
// Every float is rendered with strconv.FormatFloat(g, -1) — the shortest
// exact representation — so fingerprint equality is bit equality.

func ffloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func fingerprintTable2(rows []bench.Table2Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s|%s|lat=%d", r.Path, r.Mode(), r.Latency.Nanoseconds())
		sizes := make([]int, 0, len(r.Bandwidth))
		for s := range r.Bandwidth {
			sizes = append(sizes, s)
		}
		sort.Ints(sizes)
		for _, s := range sizes {
			fmt.Fprintf(&b, "|bw%d=%s", s, ffloat(r.Bandwidth[s]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fingerprintTable4(rep *bench.KnapsackReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seq=%d traversed=%d\n", rep.SeqTime.Nanoseconds(), rep.SeqTraversed)
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%s|p=%d|exec=%d|speedup=%s", r.System, r.Processors, r.Exec.Nanoseconds(), ffloat(r.Speedup))
		if r.Result != nil {
			fmt.Fprintf(&b, "|best=%d|traversed=%d", r.Result.Best, r.Result.TotalTraversed)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fingerprintMonitor(rep *bench.MonitorReport) string {
	best := int64(-1)
	var traversed int64
	if rep.Result != nil {
		best = rep.Result.Best
		traversed = rep.Result.TotalTraversed
	}
	return fmt.Sprintf("elapsed=%d best=%d traversed=%d windows=%d series=%d store=%016x",
		rep.Elapsed.Nanoseconds(), best, traversed, rep.Store.Windows(), rep.Store.Len(), rep.Store.Hash())
}

func fingerprintTransfer(pts []bench.TransferPoint) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "s=%d|loss=%s|bytes=%d|elapsed=%d|goodput=%s|drops=%d|rexmit=%d|cuts=%d\n",
			p.Streams, ffloat(p.LossRate), p.Bytes, p.Elapsed.Nanoseconds(), ffloat(p.Goodput),
			p.Drops, p.Retransmits, p.Cuts)
	}
	return b.String()
}

// checkFleetSpans verifies a sampled fleet run's trace: the causal layer
// must rebuild one complete fleet/job span per sampled job, ceil(jobs/K).
// Unsampled runs have nothing to check.
func checkFleetSpans(cfg fleet.Config, o *obs.Observer) error {
	if cfg.TraceSample <= 0 {
		return nil
	}
	want := (cfg.Jobs + cfg.TraceSample - 1) / cfg.TraceSample
	got := len(causal.SpanDurations(causal.Build(o.Events()), "fleet/job"))
	if got != want {
		return fmt.Errorf("trace_sample %d: causal layer rebuilt %d fleet/job spans, want %d",
			cfg.TraceSample, got, want)
	}
	return nil
}

func fingerprintFleet(res fleet.Result) string {
	return fmt.Sprintf("jobs=%d hosts=%d events=%d makespan=%d p50=%d p99=%d max=%d queued=%d ticks=%d dir=%d fp=%016x",
		res.Jobs, res.Hosts, res.Events, res.Makespan.Nanoseconds(),
		res.P50Lat.Nanoseconds(), res.P99Lat.Nanoseconds(), res.MaxLat.Nanoseconds(),
		res.QueuedPeak, res.Ticks, res.DirEntries, res.Fingerprint)
}

func fingerprintGrid(res *bench.GridResult) string {
	return fmt.Sprintf("elapsed=%d best=%d traversed=%d trace=%016x",
		res.Elapsed.Nanoseconds(), res.Best, res.Traversed, res.TraceHash)
}
