package scenario

import (
	"strings"
	"testing"
	"time"

	"nxcluster/internal/fleet"
	"nxcluster/internal/obs"
)

// minimal valid fleet scenario used as the mutation base below.
const fleetOK = `
name: t
kind: fleet
workload:
  sites: 2
  hosts_per_site: 4
  jobs: 100
  arrivals:
    kind: constant
    rate: 10
  sizes:
    kind: fixed
    mean: 1s
`

// TestFleetParseErrors is the invalid-fleet wall for the decode layer.
// Fleet blocks are strict-decoded: a spec that parses but cannot run
// (unknown distribution, non-positive rate, host-cap overflow) fails Parse
// itself, so `simulator validate` rejects it before any kernel is built.
func TestFleetParseErrors(t *testing.T) {
	fleetDoc := func(workload string) string {
		return "name: t\nkind: fleet\nworkload:\n" + workload
	}
	cases := []struct {
		name, src, wantErr string
	}{
		{"missing arrivals", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  sizes: {kind: fixed, mean: 1s}\n"),
			"workload.arrivals required"},
		{"missing sizes", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant, rate: 10}\n"),
			"workload.sizes required"},
		{"unknown size distribution", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant, rate: 10}\n  sizes: {kind: weibull, mean: 1s}\n"),
			`unknown size distribution "weibull"`},
		{"unknown rate shape", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: bursty, rate: 10}\n  sizes: {kind: fixed, mean: 1s}\n"),
			`unknown rate shape "bursty"`},
		{"non-positive rate", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant, rate: -3}\n  sizes: {kind: fixed, mean: 1s}\n"),
			"arrival rate must be > 0"},
		{"zero rate", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant}\n  sizes: {kind: fixed, mean: 1s}\n"),
			"arrival rate must be > 0"},
		{"host cap overflow", fleetDoc("  sites: 99999\n  hosts_per_site: 99999\n  jobs: 1\n  arrivals: {kind: constant, rate: 1}\n  sizes: {kind: fixed, mean: 1s}\n"),
			"exceeds the 1048576-host cap"},
		{"zero sites", fleetDoc("  sites: 0\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant, rate: 10}\n  sizes: {kind: fixed, mean: 1s}\n"),
			"sites must be >= 1"},
		{"zero jobs", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  arrivals: {kind: constant, rate: 10}\n  sizes: {kind: fixed, mean: 1s}\n"),
			"jobs must be >= 1"},
		{"negative trace sample", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  trace_sample: -1\n  arrivals: {kind: constant, rate: 10}\n  sizes: {kind: fixed, mean: 1s}\n"),
			"trace sample must be >= 0"},
		{"pareto bounds inverted", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant, rate: 10}\n  sizes: {kind: pareto, alpha: 1.5, min: 10s, max: 1s}\n"),
			"pareto needs 0 < min < max"},
		{"pareto alpha missing", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant, rate: 10}\n  sizes: {kind: pareto, min: 1s, max: 10s}\n"),
			"pareto alpha must be > 0"},
		{"lognormal sigma missing", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant, rate: 10}\n  sizes: {kind: lognormal, mu: 1}\n"),
			"lognormal sigma must be > 0"},
		{"flash-crowd peak too low", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: flash-crowd, rate: 10, peak: 1, from: 1s, to: 5s}\n  sizes: {kind: fixed, mean: 1s}\n"),
			"flash-crowd peak must be > 1"},
		{"flash-crowd window inverted", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: flash-crowd, rate: 10, peak: 3, from: 5s, to: 1s}\n  sizes: {kind: fixed, mean: 1s}\n"),
			"flash-crowd needs 0 <= from < to"},
		{"diurnal amplitude out of range", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: diurnal, rate: 10, amplitude: 1.5, period: 60s}\n  sizes: {kind: fixed, mean: 1s}\n"),
			"diurnal amplitude must be in [0, 1)"},
		{"diurnal period missing", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: diurnal, rate: 10, amplitude: 0.5}\n  sizes: {kind: fixed, mean: 1s}\n"),
			"diurnal shape needs period > 0"},
		{"unknown workload key", fleetDoc("  sites: 2\n  hostz_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant, rate: 10}\n  sizes: {kind: fixed, mean: 1s}\n"),
			`unknown key "hostz_per_site"`},
		{"unknown arrivals key", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant, rte: 10}\n  sizes: {kind: fixed, mean: 1s}\n"),
			`unknown key "rte"`},
		{"unknown sizes key", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant, rate: 10}\n  sizes: {kind: fixed, men: 1s}\n"),
			`unknown key "men"`},
		{"duration as int", fleetDoc("  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  heartbeat: 30\n  arrivals: {kind: constant, rate: 10}\n  sizes: {kind: fixed, mean: 1s}\n"),
			"must be a duration string"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestFleetValidateErrors covers the shape and assertion-vocabulary layers
// for fleet specs that decode cleanly.
func TestFleetValidateErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"topology not empty", fleetOK + "topology:\n  seed: 3\n", "the topology section must be empty"},
		{"faults unsupported", fleetOK + "faults:\n  - crash: {host: compas01, from: 1s}\n", "faults are not supported for kind fleet"},
		{"unknown fleet assertion", fleetOK + "assert:\n  - no-such-check\n", "unknown fleet assertion"},
		{"assertion arg type", fleetOK + "assert:\n  - p99-ceiling: 5\n", "must be a duration string"},
		{"assertion unwanted arg", fleetOK + "assert:\n  - all-jobs-done: 3\n", "takes no argument"},
		{"assertion negative arg", fleetOK + "assert:\n  - min-events: -1\n", "must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(tc.src))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			err = Validate(s)
			if err == nil {
				t.Fatalf("Validate passed, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestFleetDecodeDefaults pins the fleet block's implicit defaults and the
// Spec -> fleet.Config mapping the runner consumes.
func TestFleetDecodeDefaults(t *testing.T) {
	s, err := Parse([]byte(fleetOK))
	if err != nil {
		t.Fatal(err)
	}
	if s.Fleet == nil {
		t.Fatal("fleet workload not decoded")
	}
	if s.Fleet.Arrivals.Kind != "constant" {
		t.Errorf("default arrivals kind = %q, want constant", s.Fleet.Arrivals.Kind)
	}
	if s.Fleet.Sizes.Kind != "fixed" {
		t.Errorf("default sizes kind = %q, want fixed", s.Fleet.Sizes.Kind)
	}
	cfg := s.fleetConfig()
	if cfg.Sites != 2 || cfg.HostsPerSite != 4 || cfg.Jobs != 100 {
		t.Errorf("fleetConfig shape = %d x %d, %d jobs", cfg.Sites, cfg.HostsPerSite, cfg.Jobs)
	}
	if cfg.CPUsPerHost != 0 {
		t.Errorf("cpus_per_host should default to 0 (engine default), got %d", cfg.CPUsPerHost)
	}
	if cfg.Arrivals.Rate != 10 || cfg.Sizes.Mean != time.Second {
		t.Errorf("fleetConfig workload = %+v / %+v", cfg.Arrivals, cfg.Sizes)
	}
	if err := Validate(s); err != nil {
		t.Fatalf("Validate on minimal fleet spec: %v", err)
	}
}

// TestFleetTraceSampleRuns: trace_sample in a fleet scenario attaches a
// sampled observer, and the runner checks its causal rebuild — a sampled
// run passes with the same fingerprint as the unsampled one.
func TestFleetTraceSampleRuns(t *testing.T) {
	plain, err := Parse([]byte(fleetOK))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Parse([]byte(strings.Replace(fleetOK, "  jobs: 100\n", "  jobs: 100\n  trace_sample: 7\n", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if sampled.fleetConfig().TraceSample != 7 {
		t.Fatalf("trace_sample not decoded: %+v", sampled.fleetConfig())
	}
	a, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Passed || a.Fingerprint != b.Fingerprint || a.TraceHash != b.TraceHash {
		t.Fatalf("sampled run %+v diverged from unsampled %+v", b, a)
	}
}

// TestCheckFleetSpans: the runner rejects a sampled fleet trace whose
// causal rebuild does not hold exactly ceil(jobs/K) job spans.
func TestCheckFleetSpans(t *testing.T) {
	cfg := fleet.Config{Jobs: 25, TraceSample: 10}
	o := obs.New()
	for i := 0; i < 3; i++ {
		tc := o.BeginTrace(time.Duration(i), "fleet", "job", "site0")
		o.EndSpan(time.Duration(i+1), tc, "fleet", "job", "site0")
	}
	if err := checkFleetSpans(cfg, o); err != nil {
		t.Fatalf("3 spans for ceil(25/10) jobs rejected: %v", err)
	}
	o.BeginTrace(10, "fleet", "job", "site0") // never ends
	cfg.Jobs = 40
	if err := checkFleetSpans(cfg, o); err == nil {
		t.Fatal("3 complete spans for ceil(40/10) = 4 sampled jobs accepted")
	}
	if err := checkFleetSpans(fleet.Config{Jobs: 25}, nil); err != nil {
		t.Fatalf("unsampled run checked: %v", err)
	}
}
