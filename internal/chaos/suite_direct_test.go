package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/hbm"
)

// tinyConfig is a small fault-free run for exercising RunScenario's
// bookkeeping without the chaos scenario files' 90s horizons.
func tinyConfig() Config {
	return Config{
		Items:    8,
		Capacity: 2,
		System:   cluster.SystemCompas,
		Horizon:  30 * time.Second,
	}
}

// TestRunScenarioFailurePath: a scenario with an impossible invariant must
// come back Passed=false with the violation recorded — not as a harness
// error.
func TestRunScenarioFailurePath(t *testing.T) {
	res, err := RunScenario(Scenario{
		Name:       "impossible-ceiling",
		Config:     tinyConfig(),
		Invariants: []Invariant{ExactOptimum(), ElapsedCeiling(time.Nanosecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("scenario with a 1ns elapsed ceiling passed")
	}
	// determinism + 2 declared invariants
	if res.Invariants != 3 {
		t.Errorf("invariants = %d, want 3", res.Invariants)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "elapsed-ceiling") {
		t.Errorf("failures = %v, want one elapsed-ceiling violation", res.Failures)
	}
	if res.Report == nil || res.TraceHash == "" {
		t.Error("failing scenario must still carry its report and trace hash")
	}
}

// TestRunScenarioBadConfig: a config the runner rejects is a harness error,
// not a failed result.
func TestRunScenarioBadConfig(t *testing.T) {
	_, err := RunScenario(Scenario{Name: "no-items", Config: Config{Horizon: time.Second}})
	if err == nil {
		t.Fatal("RunScenario accepted a zero-item config")
	}
	if !strings.Contains(err.Error(), "no-items") {
		t.Errorf("error %q does not name the scenario", err)
	}
}

// TestInvariantLibrary exercises every invariant's violation branch on
// synthetic reports — the error text is what a failing scenario reports.
func TestInvariantLibrary(t *testing.T) {
	cases := []struct {
		inv     Invariant
		rep     Report
		wantErr string
	}{
		{ExactOptimum(), Report{Completed: false}, "did not complete"},
		{ExactOptimum(), Report{Completed: true, Best: 9, WantBest: 10}, "best = 9, want 10"},
		{AllWorkDone(), Report{TotalTraversed: 5, WantNodes: 10}, "work was lost"},
		{NoOrphans(), Report{Orphans: 2}, "2 orphaned slaves"},
		{NoRankErrors(), Report{RankErrs: []error{nil, errors.New("boom")}}, "rank 1: boom"},
		{Registrations(2, 0), Report{InnerRegistrations: 1}, "registrations = 1"},
		{Registrations(1, 1), Report{InnerRegistrations: 3}, "registrations = 3"},
		{SuspectPeriods(1), Report{}, "suspect periods = 0"},
		{JobCompleted(), Report{JobErr: errors.New("lost")}, "job error: lost"},
		{JobCompleted(), Report{}, "job never ran"},
		{JobOffHost("compas00"), Report{JobResource: "compas00"}, "job finished on compas00"},
		{MinRequeues(1), Report{}, "requeues = 0, want >= 1"},
		{MaxRequeues(0), Report{JobRequeues: 2}, "requeues = 2, want <= 0"},
		{MinSpeculations(1), Report{}, "speculations = 0"},
		{ElapsedCeiling(time.Second), Report{Elapsed: 2 * time.Second}, "elapsed 2s > ceiling 1s"},
		{HBMAllUp(), Report{HBM: map[string]hbm.Health{"x": hbm.Down}}, "want Up"},
		{HBMSuspectsSeen(1), Report{}, "suspect transitions = 0"},
		{HBMNoDowns(), Report{HBMDowns: 3}, "down transitions = 3"},
		{ExtraJobsDone(5), Report{ExtraJobsDone: 4}, "extra jobs done = 4, want >= 5"},
	}
	for _, tc := range cases {
		t.Run(tc.inv.Name, func(t *testing.T) {
			err := tc.inv.Check(&tc.rep)
			if err == nil {
				t.Fatalf("%s passed on a violating report", tc.inv.Name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s error %q does not contain %q", tc.inv.Name, err, tc.wantErr)
			}
		})
	}
	// And the satisfied branches return nil.
	healthy := Report{
		Completed: true, Best: 10, WantBest: 10, TotalTraversed: 20, WantNodes: 20,
		InnerRegistrations: 1, JobResource: "compas01", JobDone: time.Second,
		HBM: map[string]hbm.Health{"x": hbm.Up},
	}
	for _, inv := range []Invariant{
		ExactOptimum(), AllWorkDone(), NoOrphans(), NoRankErrors(),
		Registrations(1, 1), JobCompleted(), JobOffHost("compas00"),
		MaxRequeues(0), ElapsedCeiling(time.Minute), HBMAllUp(), HBMNoDowns(),
		ExtraJobsDone(0),
	} {
		if err := inv.Check(&healthy); err != nil {
			t.Errorf("%s failed on a healthy report: %v", inv.Name, err)
		}
	}
}
