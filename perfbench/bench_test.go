package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/scenario"
	"nxcluster/internal/transport"
)

// root is the repository checkout the tests run against.
const root = ".."

// smokeLibrary is the scenario subset the smoke runs use: the two fastest
// files, so a pass takes a fraction of a second.
var smokeLibrary = []string{"grid-wan-outage", "table2-rtt"}

func smokeScale() scale {
	return scale{
		fleetSites: 4, fleetHosts: 8, fleetJobs: 2000,
		relayRounds: 2, relayPings: 16, relayBulks: 1,
		library: smokeLibrary,
	}
}

// smokeSpec is BENCHMARK.json with the per-scenario metrics narrowed to the
// smoke subset (TestPerLayerScenariosMatchCorpus covers the full list).
func smokeSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var keep []specMetric
	for _, m := range sp.PerLayer {
		base := strings.TrimSuffix(strings.TrimPrefix(m.Name, "scenario."), "_s")
		if strings.HasPrefix(m.Name, "scenario.") && m.Name != "scenario.parse_ms" && !contains(smokeLibrary, base) {
			continue
		}
		keep = append(keep, m)
	}
	sp.PerLayer = keep
	return sp
}

// TestSmoke runs every workload for a second, untraced and traced, and
// requires a correct result holding exactly the metrics BENCHMARK.json
// names, each in its declared unit.
func TestSmoke(t *testing.T) {
	sp := smokeSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark drives %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w.Name, traced
			name := w + "/untraced"
			want := sp.EndToEnd
			if traced {
				name, want = w+"/traced", sp.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := execute(sp, root, w, 7, time.Second, traced, smokeScale(), &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
				}
				if !traced {
					for _, m := range want {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			})
		}
	}
}

// TestResultLine checks the last line's shape: exactly the four keys.
func TestResultLine(t *testing.T) {
	line, err := json.Marshal(&result{Correct: true, Attempted: 1, Metrics: map[string]metric{"x": {1.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(keys), line)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "fleet-open", "--trace", "2"},
		{"--workload", "fleet-open", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := realMain(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a nonzero exit and no result", args, code, out.String())
		}
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(sp, root, "no-such-workload", 1, time.Second, false, smokeScale(), &bytes.Buffer{}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestPerLayerScenariosMatchCorpus keeps BENCHMARK.json's per-scenario
// metrics in step with the non-fleet files under scenarios/.
func TestPerLayerScenariosMatchCorpus(t *testing.T) {
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := loadCorpus(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range sp.PerLayer {
		if strings.HasPrefix(m.Name, "scenario.") && strings.HasSuffix(m.Name, "_s") {
			listed[m.Name] = true
		}
	}
	for _, f := range corpus {
		if !listed["scenario."+f.base+"_s"] {
			t.Errorf("scenarios/%s.yaml has no per-layer metric", f.base)
		}
		delete(listed, "scenario."+f.base+"_s")
	}
	for name := range listed {
		t.Errorf("per-layer metric %s names no scenario file", name)
	}
	if len(corpus) != 15 {
		t.Errorf("corpus has %d non-fleet files, want 15", len(corpus))
	}
}

// --- every output check must fire on corrupted output ---------------------

func TestCheckEchoFiresOnFlippedByte(t *testing.T) {
	sent := make([]byte, pingBytes)
	rand.New(rand.NewSource(1)).Read(sent)
	got := append([]byte(nil), sent...)
	if err := checkEcho(sent, got); err != nil {
		t.Fatalf("identical echo rejected: %v", err)
	}
	got[17] ^= 0x01
	if err := checkEcho(sent, got); err == nil || !strings.Contains(err.Error(), "byte 17") {
		t.Errorf("flipped byte 17: got %v", err)
	}
	if err := checkEcho(sent, got[:10]); err == nil {
		t.Error("short echo accepted")
	}
}

// TestPingsFireOnCorruptingPeer drives the real ping path against a server
// that flips one bit of everything it echoes.
func TestPingsFireOnCorruptingPeer(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(env)
	go func() {
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(env, buf)
			if n > 0 {
				buf[0] ^= 0x80
				if _, werr := c.Write(env, buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		_ = c.Close(env)
	}()
	c, err := env.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(env)
	st := &relayStats{}
	r := &run{m: map[string]metric{}, out: &bytes.Buffer{}}
	x := &exchanger{r: r, env: env, rng: rand.New(rand.NewSource(3)), back: make([]byte, bulkBytes), st: st}
	var rtts []float64
	if err := x.pings(c, 4, &rtts); err == nil || !strings.Contains(err.Error(), "byte 0") {
		t.Errorf("corrupted echo passed the ping check: %v", err)
	}
	if st.failed != 1 {
		t.Errorf("failed = %d, want 1", st.failed)
	}
}

func TestCheckRelayBytesFires(t *testing.T) {
	if err := checkRelayBytes(4096, 4096); err != nil {
		t.Fatal(err)
	}
	if checkRelayBytes(4095, 4096) == nil || checkRelayBytes(4097, 4096) == nil {
		t.Error("byte count off by one accepted")
	}
}

func TestCheckFleetFires(t *testing.T) {
	r := &run{seed: 5, sc: smokeScale(), m: map[string]metric{}, out: &bytes.Buffer{}, heap: newHeapPeak()}
	defer r.heap.close()
	good, err := fleetOnce(r, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFleet(good, good.res.Fingerprint); err != nil {
		t.Fatalf("good run rejected: %v", err)
	}
	open, err := fleetOnce(r, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if open.res.Fingerprint != good.res.Fingerprint {
		t.Errorf("tracing changed the fingerprint: %016x vs %016x", open.res.Fingerprint, good.res.Fingerprint)
	}
	if checkFleet(good, good.res.Fingerprint^1) == nil {
		t.Error("wrong fingerprint accepted")
	}
	short := good
	short.res.Jobs--
	if checkFleet(short, good.res.Fingerprint) == nil {
		t.Error("unfinished jobs accepted")
	}
	lost := good
	lost.causalSpans--
	if checkFleet(lost, good.res.Fingerprint) == nil {
		t.Error("missing causal job span accepted")
	}
}

func TestCheckScenarioFires(t *testing.T) {
	base, err := loadBaseline(root)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "scenarios", "table2-rtt.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScenario(res, base); err != nil {
		t.Fatalf("shipped scenario rejected: %v", err)
	}
	wrong := *res
	wrong.Fingerprint += "x"
	if checkScenario(&wrong, base) == nil {
		t.Error("wrong fingerprint accepted")
	}
	failed := *res
	failed.Passed = false
	if checkScenario(&failed, base) == nil {
		t.Error("failed scenario accepted")
	}
	delete(base, res.Name)
	if checkScenario(res, base) == nil {
		t.Error("scenario without a baseline entry accepted")
	}
}

// TestLibraryFailsOnWrongBaseline runs the library workload against a copy
// of the checkout whose committed fingerprint was tampered with: the
// result must come back incorrect with the scenario counted as failed.
func TestLibraryFailsOnWrongBaseline(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "scenarios"), 0o755); err != nil {
		t.Fatal(err)
	}
	copyFile := func(rel string) []byte {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return data
	}
	copyFile("BENCHMARK.json")
	copyFile(filepath.Join("scenarios", "table2-rtt.yaml"))
	suite := copyFile("SCENARIOS_suite.json")
	tampered := bytes.Replace(suite, []byte(`"fingerprint": "RWCP-Sun`), []byte(`"fingerprint": "XWCP-Sun`), 1)
	if bytes.Equal(tampered, suite) {
		t.Fatal("table2-rtt fingerprint not found in SCENARIOS_suite.json")
	}
	if err := os.WriteFile(filepath.Join(dir, "SCENARIOS_suite.json"), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := smokeScale()
	sc.library = []string{"table2-rtt"}
	res, err := execute(sp, dir, "scenario-library", 1, time.Millisecond, false, sc, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("tampered baseline: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

func TestCheckNoLeakFires(t *testing.T) {
	base := countResources()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		<-stop
		close(done)
	}()
	if err := checkNoLeak(base, 20*time.Millisecond); err == nil {
		t.Error("blocked goroutine not reported")
	}
	close(stop)
	<-done
	if err := checkNoLeak(base, 2*time.Second); err != nil {
		t.Errorf("after the goroutine ended: %v", err)
	}
	f, err := os.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkNoLeak(base, 20*time.Millisecond); err == nil {
		t.Error("open descriptor not reported")
	}
	f.Close()
	if err := checkNoLeak(base, 2*time.Second); err != nil {
		t.Errorf("after closing the descriptor: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	tr.spans[outer].Start, tr.spans[outer].End = 0, 100
	tr.spans[inner].Start, tr.spans[inner].End = 10, 70
	got := map[string]spanStat{}
	for _, st := range tr.selfTimes() {
		got[st.Name] = st
	}
	if got["outer"].Self != 40 || got["outer"].Total != 100 || got["inner"].Self != 60 {
		t.Errorf("self times: %+v", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored"))
}

func TestQuietRounds(t *testing.T) {
	rounds := []relayRound{{p50: 1, steal: 0.3}, {p50: 2, steal: 0}, {p50: 3, steal: 0.1}, {p50: 4, steal: 0.2}, {p50: 5, steal: 0}}
	var got []float64
	for _, rd := range quietRounds(rounds) {
		got = append(got, rd.p50)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 3 {
		t.Errorf("quiet rounds: %v, want [2 5 3]", got)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if p := percentile(xs, 99); p != 5 {
		t.Errorf("p99 = %v", p)
	}
	if p := percentile(xs, 50); p != 3 {
		t.Errorf("p50 = %v", p)
	}
}
