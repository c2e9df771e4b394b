package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func shippedFiles(t *testing.T) []string {
	t.Helper()
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read scenarios dir: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && (strings.HasSuffix(e.Name(), ".yaml") || strings.HasSuffix(e.Name(), ".yml") || strings.HasSuffix(e.Name(), ".json")) {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) < 10 {
		t.Fatalf("scenario library shrank: %d files, want >= 10", len(files))
	}
	return files
}

// TestShippedScenariosValidate: every shipped scenario file must parse and
// validate — host names, link names, assertion vocabulary, shape constraints
// — and declare a name no other file declares: the scenario gate and the
// committed SCENARIOS_suite.json both key scenarios by name.
func TestShippedScenariosValidate(t *testing.T) {
	declared := map[string]string{}
	for _, file := range shippedFiles(t) {
		t.Run(file, func(t *testing.T) {
			s := loadShipped(t, file)
			if err := Validate(s); err != nil {
				t.Fatal(err)
			}
			if prev, dup := declared[s.Name]; dup {
				t.Fatalf("scenario name %q is already declared by %s", s.Name, prev)
			}
			declared[s.Name] = file
		})
	}
}

// committedSuite loads SCENARIOS_suite.json, the library's committed run,
// keyed by scenario name.
func committedSuite(t *testing.T) map[string]Result {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "SCENARIOS_suite.json"))
	if err != nil {
		t.Fatalf("read committed suite: %v", err)
	}
	var suite SuiteResult
	if err := json.Unmarshal(data, &suite); err != nil {
		t.Fatalf("parse committed suite: %v", err)
	}
	byName := make(map[string]Result, len(suite.Scenarios))
	for _, r := range suite.Scenarios {
		byName[r.Name] = r
	}
	return byName
}

// regenerate is the command that rewrites the committed suite after an
// intended change to a scenario's results.
const regenerate = "go run ./cmd/simulator run -json SCENARIOS_suite.json scenarios/*.yaml"

// TestShippedScenariosRun is the determinism wall: every shipped scenario
// runs (Run itself executes each workload twice and fails on any trace-hash
// or fingerprint divergence), passes all its declared assertions, and
// reproduces the trace hash and fingerprint committed in SCENARIOS_suite.json
// — virtual-time results are host-independent, so any drift is a behaviour
// change.
func TestShippedScenariosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario library (~5s of virtual-time runs) in -short mode")
	}
	committed := committedSuite(t)
	for _, file := range shippedFiles(t) {
		t.Run(file, func(t *testing.T) {
			res, err := Run(loadShipped(t, file))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed {
				t.Fatalf("failures: %v", res.Failures)
			}
			if res.Invariants < 1 {
				t.Fatalf("invariants = %d — even a bare scenario carries the determinism invariant", res.Invariants)
			}
			want, ok := committed[res.Name]
			if !ok {
				t.Fatalf("scenario %s has no SCENARIOS_suite.json entry; regenerate it with `%s`", res.Name, regenerate)
			}
			if res.TraceHash != want.TraceHash {
				t.Errorf("scenario %s: trace_hash %s, SCENARIOS_suite.json pins %s; if intended, regenerate with `%s`",
					res.Name, res.TraceHash, want.TraceHash, regenerate)
			}
			if res.Fingerprint != want.Fingerprint {
				t.Errorf("scenario %s: fingerprint\n got    %q\n pinned %q\nif intended, regenerate with `%s`",
					res.Name, res.Fingerprint, want.Fingerprint, regenerate)
			}
		})
	}
}

// TestWorkerInvariance: the bench sweeps parallelize measurement points
// across workers, but every point runs in its own testbed — the worker
// count must never show up in the results.
func TestWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated sweeps in -short mode")
	}
	t.Run("table4", func(t *testing.T) {
		s := loadShipped(t, "table4-sweep.yaml")
		var fps []string
		for _, workers := range []int{1, 4} {
			s.Table4.Workers = workers
			res, err := Run(s)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			fps = append(fps, res.Fingerprint)
		}
		if fps[0] != fps[1] {
			t.Errorf("worker count leaked into results:\n w=1 %q\n w=4 %q", fps[0], fps[1])
		}
	})
	t.Run("gridftp", func(t *testing.T) {
		s := loadShipped(t, "gridftp-congestion.yaml")
		var fps []string
		for _, workers := range []int{1, 4} {
			s.GridFTP.Workers = workers
			res, err := Run(s)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			fps = append(fps, res.Fingerprint)
		}
		if fps[0] != fps[1] {
			t.Errorf("worker count leaked into results:\n w=1 %q\n w=4 %q", fps[0], fps[1])
		}
	})
}

// TestGOMAXPROCSInvariance: scheduler parallelism must not perturb a grid
// run — every simulated process runs on its own goroutine, but the kernel,
// not the OS scheduler, orders their events.
func TestGOMAXPROCSInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated grid solves in -short mode")
	}
	s := loadShipped(t, "grid-multi-site.yaml")
	var hashes, fps []string
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := Run(s)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !res.Passed {
			t.Fatalf("GOMAXPROCS=%d: failures: %v", procs, res.Failures)
		}
		hashes = append(hashes, res.TraceHash)
		fps = append(fps, res.Fingerprint)
	}
	if hashes[0] != hashes[1] || fps[0] != fps[1] {
		t.Errorf("GOMAXPROCS leaked into the run:\n p=1 %s %q\n p=4 %s %q",
			hashes[0], fps[0], hashes[1], fps[1])
	}
}
