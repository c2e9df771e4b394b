package fleet

import (
	"runtime"
	"testing"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/obs/causal"
)

func smallConfig() Config {
	return Config{
		Sites:        4,
		HostsPerSite: 8,
		CPUsPerHost:  2,
		Jobs:         2000,
		Seed:         42,
		Arrivals:     RateShape{Kind: RateConstant, Rate: 40},
		Sizes:        SizeDist{Kind: DistPareto, Alpha: 1.5, Min: 200 * time.Millisecond, Max: 30 * time.Second},
		Heartbeat:    5 * time.Second,
	}
}

func runFleet(t *testing.T, cfg Config) Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e.Result()
}

// TestEngineEndToEnd: a small fleet run completes every job, accumulates
// sane latency stats, publishes into MDS, and beats every host.
func TestEngineEndToEnd(t *testing.T) {
	cfg := smallConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := e.Result()
	if r.Jobs != cfg.Jobs {
		t.Fatalf("completed %d of %d jobs", r.Jobs, cfg.Jobs)
	}
	if r.Hosts != cfg.Sites*cfg.HostsPerSite {
		t.Fatalf("Hosts = %d, want %d", r.Hosts, cfg.Sites*cfg.HostsPerSite)
	}
	if r.Events == 0 || r.Makespan <= 0 {
		t.Fatalf("degenerate run: events=%d makespan=%v", r.Events, r.Makespan)
	}
	// Latency is bounded below by the two-way core<->host control path.
	if r.P50Lat <= 0 || r.P50Lat > r.P99Lat || r.P99Lat > r.MaxLat {
		t.Fatalf("latency ordering broken: p50=%v p99=%v max=%v", r.P50Lat, r.P99Lat, r.MaxLat)
	}
	if r.MeanLat < r.P50Lat/10 {
		t.Fatalf("mean %v implausibly small vs p50 %v", r.MeanLat, r.P50Lat)
	}
	if r.Ticks == 0 {
		t.Fatal("no heartbeat ticks fired")
	}
	// Every host beats, so none are suspect or down.
	if e.Monitor().SuspectCount() != 0 || e.Monitor().DownCount() != 0 {
		t.Fatalf("batched beats left suspects=%d down=%d",
			e.Monitor().SuspectCount(), e.Monitor().DownCount())
	}
	// MDS holds the per-site aggregates (one row per site at minimum).
	if r.DirEntries < cfg.Sites {
		t.Fatalf("directory has %d entries, want >= %d site aggregates", r.DirEntries, cfg.Sites)
	}
}

// TestEngineOverload: an arrival rate far above capacity must queue at the
// gateways (queuedPeak > 0) and still finish every job.
func TestEngineOverload(t *testing.T) {
	cfg := smallConfig()
	cfg.Jobs = 1500
	cfg.Arrivals = RateShape{Kind: RateConstant, Rate: 400} // 10x capacity
	cfg.Sizes = SizeDist{Kind: DistFixed, Mean: 2 * time.Second}
	r := runFleet(t, cfg)
	if r.Jobs != cfg.Jobs {
		t.Fatalf("completed %d of %d jobs", r.Jobs, cfg.Jobs)
	}
	if r.QueuedPeak == 0 {
		t.Fatal("10x-overload run never queued at a gateway")
	}
	if r.P99Lat <= 4*time.Second {
		t.Fatalf("overload p99 %v suspiciously small (no queueing delay?)", r.P99Lat)
	}
}

// TestEngineDeterminism: double-run fingerprint equality for the same seed
// — including under a different GOMAXPROCS — and inequality across seeds.
func TestEngineDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.Arrivals = RateShape{Kind: RateFlashCrowd, Rate: 30, Peak: 4,
		From: 10 * time.Second, To: 25 * time.Second}
	a := runFleet(t, cfg)
	b := runFleet(t, cfg)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same seed diverged: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}
	if a != b {
		t.Fatalf("full results differ despite equal fingerprints:\n%+v\n%+v", a, b)
	}

	prev := runtime.GOMAXPROCS(1)
	c := runFleet(t, cfg)
	runtime.GOMAXPROCS(prev)
	if c.Fingerprint != a.Fingerprint {
		t.Fatalf("GOMAXPROCS=1 run diverged: %016x vs %016x", c.Fingerprint, a.Fingerprint)
	}

	cfg.Seed = 43
	d := runFleet(t, cfg)
	if d.Fingerprint == a.Fingerprint {
		t.Fatal("different seeds produced the same fingerprint")
	}
}

// TestEngineTraceSampling: with TraceSample=n, exactly ceil(jobs/n) causal
// job spans open and close, and the causal layer can extract their durations.
func TestEngineTraceSampling(t *testing.T) {
	cfg := smallConfig()
	cfg.Jobs = 100
	cfg.TraceSample = 10
	cfg.Obs = obs.New()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	f := causal.Build(cfg.Obs.Events())
	durs := causal.SpanDurations(f, "fleet/job")
	if len(durs) != 10 {
		t.Fatalf("sampled %d job spans, want 10", len(durs))
	}
	for _, d := range durs {
		if d <= 0 {
			t.Fatalf("non-positive sampled job duration %v", d)
		}
	}
	if p99 := causal.Percentile(durs, 99); p99 < causal.Percentile(durs, 50) {
		t.Fatalf("p99 %v < p50", p99)
	}
}

// TestConfigValidate is the strict-decode table for fleet blocks.
func TestConfigValidate(t *testing.T) {
	ok := smallConfig()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero sites", func(c *Config) { c.Sites = 0 }},
		{"zero hosts", func(c *Config) { c.HostsPerSite = 0 }},
		{"host cap overflow", func(c *Config) { c.Sites = 1 << 12; c.HostsPerSite = 1 << 12 }},
		{"negative cpus", func(c *Config) { c.CPUsPerHost = -1 }},
		{"zero jobs", func(c *Config) { c.Jobs = 0 }},
		{"negative heartbeat", func(c *Config) { c.Heartbeat = -time.Second }},
		{"negative trace sample", func(c *Config) { c.TraceSample = -1 }},
		{"bad rate", func(c *Config) { c.Arrivals.Rate = 0 }},
		{"bad distribution", func(c *Config) { c.Sizes.Kind = "zipf" }},
	}
	for _, tc := range cases {
		cfg := smallConfig()
		tc.mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		}
	}
	// sites*hosts right at the cap stays valid.
	cfg := smallConfig()
	cfg.Sites = 1 << 10
	cfg.HostsPerSite = 1 << 10
	if err := cfg.Validate(); err != nil {
		t.Errorf("config at the host cap rejected: %v", err)
	}
}

// TestSampledTraceCostsOnlyItsSamples pins the sampled-tracing contract at
// two job counts: the observer retains exactly the sampled jobs' trees (one
// job span's begin and end plus 4 hop and 4 deliver marks each), so its
// event count and its retained heap scale with samples, not jobs.
func TestSampledTraceCostsOnlyItsSamples(t *testing.T) {
	const sample = 100
	for _, jobs := range []int{10_000, 40_000} {
		cfg := smallConfig()
		cfg.Jobs = jobs
		cfg.Arrivals = RateShape{Kind: RateConstant, Rate: 200}
		cfg.TraceSample = sample
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		o := e.Observer()
		sampled := (jobs + sample - 1) / sample
		if o.Len() != sampled*10 {
			t.Fatalf("%d jobs: observer holds %d events, want %d sampled x 10", jobs, o.Len(), sampled*10)
		}

		// What the observer alone keeps alive: the live heap with it
		// reachable, less the live heap once it is dropped.
		e = nil
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		withObs := ms.HeapAlloc
		runtime.KeepAlive(o)
		o = nil
		runtime.GC()
		runtime.ReadMemStats(&ms)
		var retained uint64
		if withObs > ms.HeapAlloc {
			retained = withObs - ms.HeapAlloc
		}
		perJob := float64(retained) / float64(jobs)
		if perJob >= 100 {
			t.Fatalf("%d jobs: observer retains %.0f B per job, want < 100", jobs, perJob)
		}
		t.Logf("%d jobs: %d events, %.1f B retained per job", jobs, sampled*10, perJob)
	}
}

// TestSampledTraceTreeShape: every sampled job's tree is one fleet/job span
// holding its four datagrams' network legs — 4 hop and 4 deliver marks,
// each parented under the job span. The run is overloaded, so jobs also
// leave the gateway queue, whose dispatch must carry their context too.
func TestSampledTraceTreeShape(t *testing.T) {
	cfg := smallConfig()
	cfg.Jobs = 500
	cfg.Arrivals = RateShape{Kind: RateConstant, Rate: 400}
	cfg.TraceSample = 10
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Result().QueuedPeak == 0 {
		t.Fatal("overloaded run never queued at a gateway")
	}
	f := causal.Build(e.Observer().Events())
	if len(f.Traces) != 50 {
		t.Fatalf("rebuilt %d traces, want 50", len(f.Traces))
	}
	for _, tr := range f.Traces {
		if len(tr.Roots) != 1 || tr.Spans != 1 || tr.Incomplete != 0 {
			t.Fatalf("trace %d: %d roots, %d spans, %d incomplete; want one complete job span",
				tr.ID, len(tr.Roots), tr.Spans, tr.Incomplete)
		}
		root := tr.Roots[0]
		if root.Label() != "fleet/job" {
			t.Fatalf("trace %d rooted at %s, want fleet/job", tr.ID, root.Label())
		}
		names := map[string]int{}
		for _, m := range tr.Marks {
			if m.Cat != "net" || m.Parent != uint64(root.ID) {
				t.Fatalf("trace %d: mark %s/%s parented at %d, want net under job span %d",
					tr.ID, m.Cat, m.Name, m.Parent, root.ID)
			}
			if m.At < root.Start || m.At > root.End {
				t.Fatalf("trace %d: %s mark at %v outside the job span [%v, %v]",
					tr.ID, m.Name, m.At, root.Start, root.End)
			}
			names[m.Name]++
		}
		if len(tr.Marks) != 8 || names["hop"] != 4 || names["deliver"] != 4 {
			t.Fatalf("trace %d marks %v, want 4 hop + 4 deliver", tr.ID, names)
		}
	}
}

// TestSampledTraceKeepsFingerprint: sampling observes, never perturbs — the
// traced run's result equals the untraced one's.
func TestSampledTraceKeepsFingerprint(t *testing.T) {
	cfg := smallConfig()
	plain := runFleet(t, cfg)
	cfg.TraceSample = 7
	traced := runFleet(t, cfg)
	if traced != plain {
		t.Fatalf("sampled run diverged:\n%+v\n%+v", traced, plain)
	}
}
