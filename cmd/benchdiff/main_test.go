package main

import (
	"strings"
	"testing"
)

func rec(name string, ns float64, allocs int64) Record {
	return Record{Name: name, Iterations: 100, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestDiff(t *testing.T) {
	oldRecs := []Record{
		rec("BenchmarkKernelStep", 100, 0),
		rec("BenchmarkPingPong", 1000, 5),
		rec("BenchmarkRemoved", 50, 1),
	}
	newRecs := []Record{
		rec("BenchmarkKernelStep", 105, 0), // +5%: within threshold
		rec("BenchmarkPingPong", 1200, 5),  // +20%: regression
		rec("BenchmarkAdded", 10, 0),
	}
	rows := Diff(oldRecs, newRecs, 0.10)
	want := []struct {
		name      string
		regressed bool
		onlyOld   bool
		onlyNew   bool
	}{
		{"BenchmarkAdded", false, false, true},
		{"BenchmarkKernelStep", false, false, false},
		{"BenchmarkPingPong", true, false, false},
		{"BenchmarkRemoved", false, true, false},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d: %+v", len(rows), len(want), rows)
	}
	for i, w := range want {
		r := rows[i]
		if r.Name != w.name || r.Regressed != w.regressed || r.OnlyOld != w.onlyOld || r.OnlyNew != w.onlyNew {
			t.Errorf("row %d = %+v, want %+v", i, r, w)
		}
	}
}

func TestDiffAllocGrowthAlwaysRegresses(t *testing.T) {
	// Even a tiny speedup cannot excuse a new allocation on a 0-alloc path.
	rows := Diff(
		[]Record{rec("BenchmarkKernelStep", 100, 0)},
		[]Record{rec("BenchmarkKernelStep", 90, 1)},
		0.10)
	if len(rows) != 1 || !rows[0].Regressed {
		t.Fatalf("alloc growth not flagged: %+v", rows)
	}
}

func TestDiffAllocJitterWithinThreshold(t *testing.T) {
	// On a nonzero alloc baseline, growth within the threshold is jitter
	// (parallel benchmarks have scheduling-dependent alloc counts), but
	// growth past it still regresses.
	rows := Diff(
		[]Record{rec("BenchmarkJitter", 100, 127323), rec("BenchmarkGrowth", 100, 1000)},
		[]Record{rec("BenchmarkJitter", 100, 127330), rec("BenchmarkGrowth", 100, 1200)},
		0.10)
	for _, r := range rows {
		switch r.Name {
		case "BenchmarkJitter":
			if r.Regressed {
				t.Errorf("+0.005%% alloc jitter flagged: %+v", r)
			}
		case "BenchmarkGrowth":
			if !r.Regressed {
				t.Errorf("+20%% alloc growth not flagged: %+v", r)
			}
		}
	}
}

func TestDiffZeroOldNs(t *testing.T) {
	// A zero old ns/op (malformed or placeholder record) must not divide by
	// zero or spuriously regress.
	rows := Diff(
		[]Record{rec("BenchmarkX", 0, 0)},
		[]Record{rec("BenchmarkX", 50, 0)},
		0.10)
	if rows[0].NsDelta != 0 || rows[0].Regressed {
		t.Fatalf("zero-baseline row mishandled: %+v", rows[0])
	}
}

func TestFormat(t *testing.T) {
	rows := Diff(
		[]Record{rec("BenchmarkA", 100, 0), rec("BenchmarkB", 100, 2), rec("BenchmarkGone", 10, 0)},
		[]Record{rec("BenchmarkA", 150, 0), rec("BenchmarkB", 50, 2), rec("BenchmarkNew", 20, 1)},
		0.10)
	out, regressed := Format(rows, 0.10)
	if !regressed {
		t.Fatal("regression not reported")
	}
	for _, want := range []string{
		"REGRESSION", // BenchmarkA +50%
		"improved",   // BenchmarkB -50%
		"(removed)",  // BenchmarkGone
		"(new)",      // BenchmarkNew
		"+50.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatCleanRun(t *testing.T) {
	out, regressed := Format(Diff(
		[]Record{rec("BenchmarkA", 100, 0)},
		[]Record{rec("BenchmarkA", 101, 0)},
		0.10), 0.10)
	if regressed {
		t.Fatalf("clean run flagged as regression:\n%s", out)
	}
	if !strings.Contains(out, "+1.0%") {
		t.Errorf("delta missing from output:\n%s", out)
	}
}

func suite(scens ...ScenarioResult) *SuiteResult {
	return &SuiteResult{Scenarios: scens}
}

func TestSuiteSectionClean(t *testing.T) {
	s := suite(
		ScenarioResult{Name: "partition", Passed: true, Invariants: 5},
		ScenarioResult{Name: "flap", Passed: true, Invariants: 4},
	)
	out, regressed := SuiteSection(s, s)
	if regressed {
		t.Fatalf("identical suites flagged:\n%s", out)
	}
	for _, want := range []string{"2 scenarios", "9 invariants", "0 failures", "baseline: 2 scenarios"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSuiteSectionFailuresGate(t *testing.T) {
	cur := suite(ScenarioResult{
		Name: "partition", Passed: false, Invariants: 5,
		Failures: []string{"exact-optimum: best = 9, want 10"},
	})
	// Even with no baseline, a failed invariant gates.
	out, regressed := SuiteSection(nil, cur)
	if !regressed {
		t.Fatalf("failed invariant not flagged:\n%s", out)
	}
	if !strings.Contains(out, "FAIL partition: exact-optimum") {
		t.Errorf("failure detail missing:\n%s", out)
	}
}

func TestSuiteSectionCoverageShrinkGates(t *testing.T) {
	old := suite(
		ScenarioResult{Name: "partition", Passed: true, Invariants: 5},
		ScenarioResult{Name: "flap", Passed: true, Invariants: 4},
	)
	// Same scenario count but a baseline scenario replaced by a new one,
	// and fewer total invariants: both must gate.
	cur := suite(
		ScenarioResult{Name: "partition", Passed: true, Invariants: 4},
		ScenarioResult{Name: "straggler", Passed: true, Invariants: 4},
	)
	out, regressed := SuiteSection(old, cur)
	if !regressed {
		t.Fatalf("coverage shrink not flagged:\n%s", out)
	}
	for _, want := range []string{`scenario "flap" dropped`, "invariant count shrank 9 -> 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// New scenarios on top of the baseline are growth, not regression.
	grown := suite(append(old.Scenarios, ScenarioResult{Name: "extra", Passed: true, Invariants: 3})...)
	if out, regressed := SuiteSection(old, grown); regressed {
		t.Fatalf("suite growth flagged as regression:\n%s", out)
	}
}

func TestSuiteSectionLabel(t *testing.T) {
	// The summary line names the suite and carries its counts.
	cur := suite(ScenarioResult{Name: "table4-sweep", Passed: true, Invariants: 6})
	out, regressed := SuiteSection(cur, cur)
	if regressed {
		t.Fatalf("identical suites flagged:\n%s", out)
	}
	if !strings.Contains(out, "scenario suite: 1 scenarios, 6 invariants, 0 failures") {
		t.Errorf("labeled summary missing:\n%s", out)
	}
	shrunk := suite()
	if out, regressed := SuiteSection(cur, shrunk); !regressed {
		t.Fatalf("scenario-count shrink not flagged:\n%s", out)
	} else if !strings.Contains(out, "scenario count shrank 1 -> 0") {
		t.Errorf("shrink detail missing:\n%s", out)
	}
}
