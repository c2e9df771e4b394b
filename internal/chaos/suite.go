package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nxcluster/internal/hbm"
	"nxcluster/internal/obs"
)

// Invariant is one end-of-run assertion over a chaos Report. Check returns
// nil when the invariant holds and a descriptive error when it does not.
type Invariant struct {
	Name  string
	Check func(*Report) error
}

// Scenario is one chaos experiment — what a kind=chaos scenario file
// (scenarios/chaos-*.yaml, see internal/scenario) compiles to: a Config
// (topology options, fault schedule, workload knobs), the invariants its
// report must satisfy, and optionally a Baseline config whose report the
// primary is Compared against (for "mitigation beats no-mitigation" claims).
//
// Every scenario is additionally run twice and the two runs must agree on the
// full observability trace hash and on a report fingerprint — fault injection
// must never cost reproducibility.
type Scenario struct {
	Name string
	// Config is the faulted run under test.
	Config Config
	// Baseline, when non-nil, is a second run (typically the same faults
	// without the mitigation) handed to Compare.
	Baseline *Config
	// Invariants are checked against the primary run's report.
	Invariants []Invariant
	// Compare, when set (requires Baseline), cross-checks the two reports —
	// e.g. speculation must beat the no-speculation baseline on elapsed
	// virtual time while both keep the exact optimum.
	Compare func(rep, base *Report) error
}

// ScenarioResult is the outcome of one scenario; scenario.Result is the
// JSON shape the scenario gate records.
type ScenarioResult struct {
	Name       string
	Passed     bool
	Invariants int
	Failures   []string
	// TraceHash is the FNV-64a hash of the run's full observability trace,
	// identical across the double run (hex).
	TraceHash string
	// ElapsedMS is the knapsack search's elapsed virtual time; JobDoneMS is
	// when the RMF job's Wait returned (0 if no control plane).
	ElapsedMS int64
	JobDoneMS int64
	// Report is the primary run's full outcome.
	Report *Report
	// Obs is the primary run's observer — the causal trace SLO evaluation
	// reads.
	Obs *obs.Observer
}

// fingerprint reduces a report to a canonical string so double runs can be
// compared field by field (map iteration order excluded).
func fingerprint(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v best=%d elapsed=%v traversed=%d orphans=%d",
		rep.Completed, rep.Best, rep.Elapsed, rep.TotalTraversed, rep.Orphans)
	fmt.Fprintf(&b, " reg=%d boots=%d suspectperiods=%d",
		rep.InnerRegistrations, rep.OuterBoots, rep.InnerStats.SuspectPeriods)
	fmt.Fprintf(&b, " joberr=%v requeues=%d spec=%d res=%s done=%v",
		rep.JobErr, rep.JobRequeues, rep.JobSpeculations, rep.JobResource, rep.JobDone)
	fmt.Fprintf(&b, " suspects=%d downs=%d extrajobs=%d", rep.HBMSuspects, rep.HBMDowns, rep.ExtraJobsDone)
	names := make([]string, 0, len(rep.HBM))
	for n := range rep.HBM {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, " hbm.%s=%v", n, rep.HBM[n])
	}
	return b.String()
}

// RunScenario executes one scenario: the faulted config twice (determinism
// check), the baseline once if present, then every invariant. Harness errors
// (a config the runner rejects) come back as the error; invariant violations
// and determinism breaks are recorded as failures in the result.
func RunScenario(s Scenario) (*ScenarioResult, error) {
	runWith := func(cfg Config) (*Report, *obs.Observer, error) {
		o := obs.New()
		cfg.Options.Obs = o
		rep, err := Run(cfg)
		if err != nil {
			return nil, nil, err
		}
		return rep, o, nil
	}
	rep, o1, err := runWith(s.Config)
	if err != nil {
		return nil, fmt.Errorf("chaos %s: %w", s.Name, err)
	}
	rep2, o2, err := runWith(s.Config)
	if err != nil {
		return nil, fmt.Errorf("chaos %s (replay): %w", s.Name, err)
	}
	h1, h2 := o1.Hash(), o2.Hash()
	res := &ScenarioResult{
		Name:      s.Name,
		TraceHash: fmt.Sprintf("%016x", h1),
		ElapsedMS: rep.Elapsed.Milliseconds(),
		JobDoneMS: rep.JobDone.Milliseconds(),
		Report:    rep,
		Obs:       o1,
	}
	// The determinism invariant is implicit on every scenario: identical
	// trace hash and identical report fingerprint across the double run.
	res.Invariants++
	if h1 != h2 {
		res.Failures = append(res.Failures, fmt.Sprintf("determinism: trace hash %016x != %016x across identical runs", h1, h2))
	} else if f1, f2 := fingerprint(rep), fingerprint(rep2); f1 != f2 {
		res.Failures = append(res.Failures, fmt.Sprintf("determinism: reports diverge: %q vs %q", f1, f2))
	}
	for _, inv := range s.Invariants {
		res.Invariants++
		if err := inv.Check(rep); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: %v", inv.Name, err))
		}
	}
	if s.Baseline != nil {
		base, _, err := runWith(*s.Baseline)
		if err != nil {
			return nil, fmt.Errorf("chaos %s (baseline): %w", s.Name, err)
		}
		if s.Compare != nil {
			res.Invariants++
			if err := s.Compare(rep, base); err != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("baseline-compare: %v", err))
			}
		}
	}
	res.Passed = len(res.Failures) == 0
	return res, nil
}

// --- Invariant library ---

// ExactOptimum demands the search completed with the bit-exact sequential
// optimum — the invariant the whole exercise hangs on.
func ExactOptimum() Invariant {
	return Invariant{Name: "exact-optimum", Check: func(r *Report) error {
		if !r.Completed {
			return fmt.Errorf("search did not complete before the horizon")
		}
		if r.Best != r.WantBest {
			return fmt.Errorf("best = %d, want %d", r.Best, r.WantBest)
		}
		return nil
	}}
}

// AllWorkDone demands no tree node was lost: reclaimed batches may be
// re-expanded (work grows), but the traversal can never undercount.
func AllWorkDone() Invariant {
	return Invariant{Name: "all-work-done", Check: func(r *Report) error {
		if r.TotalTraversed < r.WantNodes {
			return fmt.Errorf("traversed %d < %d: work was lost", r.TotalTraversed, r.WantNodes)
		}
		return nil
	}}
}

// NoOrphans demands no slave gave up with ErrOrphaned (the master survived).
func NoOrphans() Invariant {
	return Invariant{Name: "no-orphans", Check: func(r *Report) error {
		if r.Orphans != 0 {
			return fmt.Errorf("%d orphaned slaves", r.Orphans)
		}
		return nil
	}}
}

// NoRankErrors demands every rank's error slot is nil (killed ranks stay nil).
func NoRankErrors() Invariant {
	return Invariant{Name: "no-rank-errors", Check: func(r *Report) error {
		for i, e := range r.RankErrs {
			if e != nil {
				return fmt.Errorf("rank %d: %v", i, e)
			}
		}
		return nil
	}}
}

// Registrations bounds the inner relay's registration-session count:
// exactly 1 on a healthy or merely degraded boundary, >= 2 after a flap that
// outlives the keepalive timeout.
func Registrations(min, max int) Invariant {
	return Invariant{Name: "registrations", Check: func(r *Report) error {
		if r.InnerRegistrations < min || (max > 0 && r.InnerRegistrations > max) {
			return fmt.Errorf("registrations = %d, want [%d,%d]", r.InnerRegistrations, min, max)
		}
		return nil
	}}
}

// SuspectPeriods demands the inner relay rode out at least min keepalive
// misses as SUSPECT instead of tearing the session down.
func SuspectPeriods(min int) Invariant {
	return Invariant{Name: "suspect-periods", Check: func(r *Report) error {
		if r.InnerStats.SuspectPeriods < min {
			return fmt.Errorf("suspect periods = %d, want >= %d", r.InnerStats.SuspectPeriods, min)
		}
		return nil
	}}
}

// JobCompleted demands the RMF job's Wait returned cleanly on some resource.
func JobCompleted() Invariant {
	return Invariant{Name: "job-completed", Check: func(r *Report) error {
		if r.JobErr != nil {
			return fmt.Errorf("job error: %v", r.JobErr)
		}
		if r.JobResource == "" {
			return fmt.Errorf("job never ran")
		}
		return nil
	}}
}

// JobOffHost demands the job did NOT finish on the named (crashed or
// straggling) host.
func JobOffHost(host string) Invariant {
	return Invariant{Name: "job-off-" + host, Check: func(r *Report) error {
		if r.JobResource == host {
			return fmt.Errorf("job finished on %s", host)
		}
		return nil
	}}
}

// MinRequeues demands RMF requeued the job at least min times.
func MinRequeues(min int) Invariant {
	return Invariant{Name: "min-requeues", Check: func(r *Report) error {
		if r.JobRequeues < min {
			return fmt.Errorf("requeues = %d, want >= %d", r.JobRequeues, min)
		}
		return nil
	}}
}

// MaxRequeues bounds requeues from above (speculation scenarios promote the
// copy instead of requeueing).
func MaxRequeues(max int) Invariant {
	return Invariant{Name: "max-requeues", Check: func(r *Report) error {
		if r.JobRequeues > max {
			return fmt.Errorf("requeues = %d, want <= %d", r.JobRequeues, max)
		}
		return nil
	}}
}

// MinSpeculations demands at least min speculative copies launched.
func MinSpeculations(min int) Invariant {
	return Invariant{Name: "min-speculations", Check: func(r *Report) error {
		if r.JobSpeculations < min {
			return fmt.Errorf("speculations = %d, want >= %d", r.JobSpeculations, min)
		}
		return nil
	}}
}

// ElapsedCeiling demands the search finished within d of virtual time —
// recovery may slow the run but must not let it crawl.
func ElapsedCeiling(d time.Duration) Invariant {
	return Invariant{Name: "elapsed-ceiling", Check: func(r *Report) error {
		if r.Elapsed > d {
			return fmt.Errorf("elapsed %v > ceiling %v", r.Elapsed, d)
		}
		return nil
	}}
}

// HBMAllUp demands every monitored process is UP at the horizon (restarted
// hosts rebooted their reporters; degraded hosts were restored).
func HBMAllUp() Invariant {
	return Invariant{Name: "hbm-all-up", Check: func(r *Report) error {
		for name, h := range r.HBM {
			if h != hbm.Up {
				return fmt.Errorf("HBM %s = %v at horizon, want Up", name, h)
			}
		}
		return nil
	}}
}

// HBMSuspectsSeen demands the monitor classified at least min transitions
// into SUSPECT — the gray-failure signal.
func HBMSuspectsSeen(min int64) Invariant {
	return Invariant{Name: "hbm-suspects", Check: func(r *Report) error {
		if r.HBMSuspects < min {
			return fmt.Errorf("suspect transitions = %d, want >= %d", r.HBMSuspects, min)
		}
		return nil
	}}
}

// ExtraJobsDone demands at least min flash-crowd jobs (Config.ExtraJobs)
// completed cleanly before the horizon.
func ExtraJobsDone(min int) Invariant {
	return Invariant{Name: "extra-jobs-done", Check: func(r *Report) error {
		if r.ExtraJobsDone < min {
			return fmt.Errorf("extra jobs done = %d, want >= %d", r.ExtraJobsDone, min)
		}
		return nil
	}}
}

// HBMNoDowns demands the monitor never flapped a slow-but-alive host through
// DOWN — the point of the SUSPECT state.
func HBMNoDowns() Invariant {
	return Invariant{Name: "hbm-no-downs", Check: func(r *Report) error {
		if r.HBMDowns != 0 {
			return fmt.Errorf("down transitions = %d, want 0", r.HBMDowns)
		}
		return nil
	}}
}
