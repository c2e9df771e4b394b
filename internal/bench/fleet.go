package bench

import (
	"fmt"
	"strings"
	"time"

	"nxcluster/internal/fleet"
	"nxcluster/internal/obs/causal"
)

// FleetReport is one fleet run plus the harness-side throughput figures: the
// engine reports virtual-time metrics only, and the harness wraps them with
// the wall clock to get simulated events and jobs per host second — the
// numbers that say whether a 10k-host / 1M-job run fits in minutes.
type FleetReport struct {
	Config fleet.Config
	Result fleet.Result
	// Wall is host time spent inside Engine.Run (build excluded).
	Wall time.Duration
	// EventsPerSec and JobsPerSec are simulated work per wall second.
	EventsPerSec float64
	JobsPerSec   float64
	// CausalP50/P99 are job-span percentiles from the causal layer, when the
	// run sampled traces (TraceSample > 0); zero otherwise. They cross-check
	// the engine's own latency accounting through the independent trace path.
	CausalP50 time.Duration
	CausalP99 time.Duration
}

// RunFleet builds and runs one fleet workload, timing the run itself. When
// cfg.TraceSample > 0 the causal percentiles come back filled from the
// engine's observer (the one in cfg.Obs, or the one the engine made).
func RunFleet(cfg fleet.Config) (*FleetReport, error) {
	e, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := e.Run(); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	r := &FleetReport{Config: cfg, Result: e.Result(), Wall: wall}
	if secs := wall.Seconds(); secs > 0 {
		r.EventsPerSec = float64(r.Result.Events) / secs
		r.JobsPerSec = float64(r.Result.Jobs) / secs
	}
	if cfg.TraceSample > 0 {
		f := causal.Build(e.Observer().Events())
		if durs := causal.SpanDurations(f, "fleet/job"); len(durs) > 0 {
			r.CausalP50 = causal.Percentile(durs, 50)
			r.CausalP99 = causal.Percentile(durs, 99)
		}
	}
	return r, nil
}

// cpusPerHost mirrors the engine's slot default so the summary header shows
// the stamped topology, not the raw (possibly zero) config field.
func cpusPerHost(cfg fleet.Config) int {
	if cfg.CPUsPerHost == 0 {
		return fleet.DefaultCPUsPerHost
	}
	return cfg.CPUsPerHost
}

// FormatFleet renders the summary table cmd/experiments prints: topology,
// throughput, and the latency profile.
func FormatFleet(r *FleetReport) string {
	var b strings.Builder
	res := r.Result
	fmt.Fprintf(&b, "Fleet run: %d sites x %d hosts (%d hosts, %d slots), %d jobs, seed %d\n",
		r.Config.Sites, r.Config.HostsPerSite, res.Hosts,
		res.Hosts*cpusPerHost(r.Config), res.Jobs, r.Config.Seed)
	fmt.Fprintf(&b, "  arrivals: %s at %.1f/s; sizes: %s (mean %s)\n",
		r.Config.Arrivals.Kind, r.Config.Arrivals.Rate,
		r.Config.Sizes.Kind, r.Config.Sizes.MeanDuration().Round(time.Millisecond))
	fmt.Fprintf(&b, "  virtual: makespan %s, %d events, %d publish ticks, dir %d entries, queued peak %d\n",
		res.Makespan.Round(time.Millisecond), res.Events, res.Ticks, res.DirEntries, res.QueuedPeak)
	fmt.Fprintf(&b, "  wall: %s  (%.2fM events/sec, %.0f jobs/sec)\n",
		r.Wall.Round(time.Millisecond), r.EventsPerSec/1e6, r.JobsPerSec)
	fmt.Fprintf(&b, "  job latency: mean %s  p50 %s  p99 %s  max %s\n",
		res.MeanLat.Round(time.Microsecond), res.P50Lat.Round(time.Microsecond),
		res.P99Lat.Round(time.Microsecond), res.MaxLat.Round(time.Microsecond))
	if r.CausalP50 > 0 {
		fmt.Fprintf(&b, "  causal job spans (1/%d sampled): p50 %s  p99 %s\n",
			r.Config.TraceSample, r.CausalP50.Round(time.Microsecond), r.CausalP99.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "  fingerprint: %016x\n", res.Fingerprint)
	return b.String()
}
