package main

import (
	"fmt"
	"runtime"
	"time"

	"nxcluster/internal/fleet"
	"nxcluster/internal/obs"
	"nxcluster/internal/obs/causal"
)

// traceSample is fleet-traced's causal sampling: one job in a hundred, the
// default `experiments -run fleet` uses.
const traceSample = 100

// fleetSetupReps is how many engines are built, and dropped, before each
// run, for set-up samples.
const fleetSetupReps = 4

// fleetSizes is the BenchmarkFleetSweep job-size law: bounded Pareto with
// alpha 1.5 between one second and five minutes.
var fleetSizes = fleet.SizeDist{Kind: fleet.DistPareto, Alpha: 1.5, Min: time.Second, Max: 5 * time.Minute}

// fleetConfig is the fleet workload for one seed: 2 slots per host and a
// constant arrival rate that keeps the slots 85% busy given the size law's
// mean, with a 30 s heartbeat. fleet-open and fleet-traced differ only in
// tracing, so the same seed must give the same fingerprint.
func fleetConfig(sc scale, seed int64, traced bool) fleet.Config {
	slots := float64(sc.fleetSites * sc.fleetHosts * fleet.DefaultCPUsPerHost)
	cfg := fleet.Config{
		Sites:        sc.fleetSites,
		HostsPerSite: sc.fleetHosts,
		Jobs:         sc.fleetJobs,
		Seed:         uint64(seed),
		Arrivals:     fleet.RateShape{Kind: fleet.RateConstant, Rate: 0.85 * slots / fleetSizes.MeanDuration().Seconds()},
		Sizes:        fleetSizes,
		Heartbeat:    30 * time.Second,
	}
	if traced {
		cfg.Obs = obs.New()
		cfg.TraceSample = traceSample
	}
	return cfg
}

// fleetLedger is one fleet run's call mix, counted from the program's own
// result. Per job the engine makes 4 SendMessage calls (dispatch core to
// gateway and gateway to host, completion host to gateway and gateway to
// core), 1 Allocate, 1 Release and 2 kernel timers (the arrival and the
// service time); per heartbeat tick it makes one BeatBatch per site, one
// Publish and one Refresh.
type fleetLedger struct {
	jobs, ticks, sites int
	obsEvents          int
	// runWall is the median host seconds from Run until the report is out.
	runWall float64
}

// fleetIter is one complete fleet run.
type fleetIter struct {
	jobs, sample int
	// wall is host seconds from Run until the report is out, steal
	// excluded (see stopwatch).
	setup, wall float64
	res         fleet.Result
	causalSpans int
	// causalP50 and causalP99 are the sampled job spans' percentiles, the
	// causal layer's cross-check of the engine's own latency figures.
	causalP50, causalP99 time.Duration
	obsEvents            int
	retained             uint64
}

// fleetOnce builds, runs and reports one fleet. measureHeap collects with
// the outputs still reachable (for the peak) and, in the traced run of
// fleet-traced, measures what the observer alone retains.
func fleetOnce(r *run, traced, measureHeap bool) (fleetIter, error) {
	cfg := fleetConfig(r.sc, r.seed, traced)
	it := fleetIter{jobs: cfg.Jobs, sample: cfg.TraceSample}
	// Start every run from a collected heap, so one run's garbage does not
	// bill the next.
	runtime.GC()
	tr := r.tr
	iter := tr.begin("fleet.iteration")
	defer tr.end(iter)

	t0 := time.Now()
	s := tr.begin("fleet.New")
	e, err := fleet.New(cfg)
	tr.end(s)
	it.setup = secondsSince(t0)
	if err != nil {
		return it, err
	}
	watch := startWatch()
	s = tr.begin("fleet.Engine.Run")
	runErr := e.Run()
	tr.end(s)
	s = tr.begin("fleet.Engine.Result")
	it.res = e.Result()
	tr.end(s)
	var forest *causal.Forest
	if cfg.Obs != nil {
		s = tr.begin("causal.Build")
		forest = causal.Build(cfg.Obs.Events())
		durs := causal.SpanDurations(forest, "fleet/job")
		it.causalP50, it.causalP99 = causal.Percentile(durs, 50), causal.Percentile(durs, 99)
		tr.end(s)
		it.causalSpans = len(durs)
		it.obsEvents = cfg.Obs.Len()
	}
	it.wall = watch.seconds()
	if runErr != nil {
		r.check(fmt.Errorf("fleet: %v", runErr))
	}
	if measureHeap {
		// The engine's state only grows until the report is out: with
		// every output reachable, this is its peak.
		r.heap.mark()
		if cfg.Obs != nil && r.tr != nil {
			e, forest = nil, nil
			runtime.GC()
			withObs := liveHeap()
			runtime.KeepAlive(cfg.Obs)
			cfg.Obs = nil
			runtime.GC()
			if without := liveHeap(); withObs > without {
				it.retained = withObs - without
			}
		}
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(forest)
	return it, nil
}

// checkFleet verifies one run: every job done, the fingerprint equal to
// the reference, and on a traced run one causal job span per sampled job.
func checkFleet(it fleetIter, ref uint64) error {
	if it.res.Jobs != it.jobs {
		return fmt.Errorf("fleet: %d of %d jobs done", it.res.Jobs, it.jobs)
	}
	if it.res.Fingerprint != ref {
		return fmt.Errorf("fleet: fingerprint %016x, reference %016x", it.res.Fingerprint, ref)
	}
	if it.sample > 0 {
		want := (it.jobs + it.sample - 1) / it.sample
		if it.causalSpans != want {
			return fmt.Errorf("fleet: causal layer rebuilt %d job spans, %d jobs were sampled", it.causalSpans, want)
		}
	}
	return nil
}

// runFleet drives fleet-open (traced=false) or fleet-traced: whole fleet
// runs back to back until the budget is spent. fleet-traced first runs the
// same seed untraced; every traced run must reproduce that fingerprint.
func runFleet(r *run, traced bool) error {
	deadline := time.Now().Add(r.budget)
	var ref uint64
	refSet := false
	if traced {
		it, err := fleetOnce(r, false, false)
		if err != nil {
			return err
		}
		ref, refSet = it.res.Fingerprint, true
	}
	// Every run of one seed is identical in virtual time (the fingerprint
	// check enforces it), so the first run's counts stand for all of them.
	var setups, rates, walls []float64
	var first fleetIter
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		// Set-up takes ~10 ms against seconds for a run, so each run comes
		// with extra set-up samples. Taking them all through the budget,
		// not in one burst at its start, keeps a spell of host load there
		// from setting the median.
		for j := 0; j < fleetSetupReps; j++ {
			runtime.GC()
			t0 := time.Now()
			s := r.tr.begin("fleet.New")
			_, err := fleet.New(fleetConfig(r.sc, r.seed, traced))
			r.tr.end(s)
			if err != nil {
				return err
			}
			setups = append(setups, secondsSince(t0))
		}
		it, err := fleetOnce(r, traced, i == 0)
		if err != nil {
			return err
		}
		if !refSet {
			ref, refSet = it.res.Fingerprint, true
		}
		r.check(checkFleet(it, ref))
		r.attempted += int64(it.jobs)
		r.failed += int64(it.jobs - it.res.Jobs)
		setups = append(setups, it.setup)
		walls = append(walls, it.wall)
		rates = append(rates, float64(it.res.Jobs)/it.wall)
		if i == 0 {
			first = it
		}
	}
	res := first.res
	r.set("setup_s", median(setups), "s")
	r.set("ops_per_s", median(rates), "1/s")
	r.set("op_p50_ms", float64(res.P50Lat)/1e6, "ms")
	r.set("op_tail_ms", float64(res.P99Lat)/1e6, "ms")
	jobs := float64(res.Jobs)
	r.set("sim.events_per_job", float64(res.Events)/jobs, "count")
	r.set("obs.events_per_job", float64(first.obsEvents)/jobs, "count")
	r.set("obs.retained_bytes_per_job", float64(first.retained)/jobs, "B")
	r.set("fleet.ticks", float64(res.Ticks), "count")
	r.set("fleet.dir_entries", float64(res.DirEntries), "count")
	r.ledger = &fleetLedger{jobs: res.Jobs, ticks: res.Ticks, sites: res.Sites, obsEvents: first.obsEvents, runWall: median(walls)}
	r.logf("fleet: %d runs of %d jobs on %d hosts; %.0f jobs/s (median), New %.1f ms, vjob p50 %v p99 %v, %d events, fingerprint %016x",
		len(rates), res.Jobs, res.Hosts, median(rates), median(setups)*1e3, res.P50Lat, res.P99Lat, res.Events, res.Fingerprint)
	if first.causalSpans > 0 {
		r.logf("fleet: %d sampled job spans, causal p50 %v p99 %v", first.causalSpans, first.causalP50, first.causalP99)
	}
	return nil
}
