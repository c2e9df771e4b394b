package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/fleet"
	"nxcluster/internal/hbm"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/mds"
	"nxcluster/internal/obs"
	"nxcluster/internal/obs/causal"
	"nxcluster/internal/rmf"
	"nxcluster/internal/sim"
)

// reps is how many times each replay repeats its timed loop; the median
// repetition is reported.
const reps = 5

// timeReps runs fn reps times and returns the median of its per-op costs
// in nanoseconds. fn returns how many operations it timed.
func timeReps(fn func() (int, error)) (float64, error) {
	var costs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		n, err := fn()
		if err != nil {
			return 0, err
		}
		costs = append(costs, float64(time.Since(t0))/float64(n))
	}
	return median(costs), nil
}

// replayLayers runs in the traced run after the workload. Each replay
// drives one layer's public functions directly at the fleet workload's
// shape, so every traced run reports the same per-call costs whatever its
// workload. The relay and scenario layers are measured by their own
// workload's traced run and replayed briefly by the others.
func replayLayers(r *run) error {
	for _, rp := range []struct {
		name string
		fn   func(*run) error
	}{
		{"sim", replaySim},
		{"simnet", replaySimnet},
		{"rmf", replayShard},
		{"hbm", replayHBM},
		{"mds", replayMDS},
		{"obs", replayObs},
		{"causal", replayCausal},
		{"knapsack", replayKnapsack},
	} {
		s := r.tr.begin("replay." + rp.name)
		err := rp.fn(r)
		r.tr.end(s)
		if err != nil {
			return fmt.Errorf("replay %s: %w", rp.name, err)
		}
	}
	if r.workload != "relay-tcp" {
		s := r.tr.begin("replay.relay")
		st, err := measureRelay(r, 1, time.Second, 128, 1)
		r.tr.end(s)
		if err != nil {
			return fmt.Errorf("replay relay: %w", err)
		}
		if st.failed > 0 {
			r.check(fmt.Errorf("replay relay: %d of %d operations failed", st.failed, st.attempted))
		}
		setRelayLayers(r, st)
	}
	if r.workload != "scenario-library" {
		corpus, err := loadCorpus(r.root, r.sc.library)
		if err != nil {
			return err
		}
		s := r.tr.begin("replay.scenario")
		st, err := measureLibrary(r, corpus, 0)
		r.tr.end(s)
		if err != nil {
			return fmt.Errorf("replay scenario: %w", err)
		}
		setLibraryLayers(r, st)
	}
	if r.ledger == nil {
		// Counts the fleet workloads take from their own runs; the other
		// workloads do not exercise these layers.
		for _, name := range []string{"sim.events_per_job", "obs.events_per_job", "fleet.ticks", "fleet.dir_entries"} {
			r.set(name, 0, "count")
		}
		r.set("obs.retained_bytes_per_job", 0, "B")
	}
	return nil
}

// fleetSlots is the fleet workload's slot count.
func fleetSlots(sc scale) int { return sc.fleetSites * sc.fleetHosts * fleet.DefaultCPUsPerHost }

// holdTimer re-arms itself with a pseudo-random delay until its budget of
// firings is spent: the classic hold model of a timer queue at constant
// depth.
type holdTimer struct {
	rng  *fleet.RNG
	left int
}

func (h *holdTimer) OnEvent(k *sim.Kernel) {
	if h.left > 0 {
		h.left--
		k.AfterEvent(time.Duration(1+h.rng.Intn(20_000_000_000)), h)
	}
}

// replaySim: nanoseconds per kernel event with as many timers pending as
// the fleet keeps in service at 85% occupancy.
func replaySim(r *run) error {
	depth := fleetSlots(r.sc) * 85 / 100
	ns, err := timeReps(func() (int, error) {
		k := sim.New()
		h := &holdTimer{rng: fleet.NewRNG(uint64(r.seed) + 1), left: 300_000}
		for i := 0; i < depth; i++ {
			k.AfterEvent(time.Duration(1+h.rng.Intn(20_000_000_000)), h)
		}
		if err := k.Run(); err != nil {
			return 0, err
		}
		return int(k.Events()), nil
	})
	r.set("sim.step_ns", ns, "ns")
	return err
}

// replaySimnet: nanoseconds per SendMessage including its delivery, over
// the fleet topology's four route kinds in equal measure.
func replaySimnet(r *run) error {
	fl := cluster.NewFleet(cluster.FleetOptions{Sites: r.sc.fleetSites, HostsPerSite: r.sc.fleetHosts, Seed: uint64(r.seed)})
	rng := fleet.NewRNG(uint64(r.seed) + 2)
	const batch = 1024
	type route struct{ src, dst string }
	routes := make([]route, 64*batch)
	for i := range routes {
		s, h := rng.Intn(r.sc.fleetSites), rng.Intn(r.sc.fleetHosts)
		gw, host := fl.Gateways[s], fl.Hosts[s][h]
		switch i % 4 {
		case 0:
			routes[i] = route{cluster.FleetCore, gw}
		case 1:
			routes[i] = route{gw, host}
		case 2:
			routes[i] = route{host, gw}
		default:
			routes[i] = route{gw, cluster.FleetCore}
		}
	}
	delivered := 0
	deliver := func() { delivered++ }
	ns, err := timeReps(func() (int, error) {
		delivered = 0
		for i := 0; i < len(routes); i += batch {
			for _, rt := range routes[i : i+batch] {
				if err := fl.Net.SendMessage(rt.src, rt.dst, 256, deliver); err != nil {
					return 0, err
				}
			}
			if err := fl.K.Run(); err != nil {
				return 0, err
			}
		}
		if delivered != len(routes) {
			return 0, fmt.Errorf("delivered %d of %d messages", delivered, len(routes))
		}
		return len(routes), nil
	})
	r.set("simnet.send_ns", ns, "ns")
	return err
}

// replayShard: nanoseconds per Release+Allocate pair on one site's shard
// held at 85% occupancy.
func replayShard(r *run) error {
	sh := rmf.NewUniformShard(r.sc.fleetHosts, fleet.DefaultCPUsPerHost)
	occupied := r.sc.fleetHosts * fleet.DefaultCPUsPerHost * 85 / 100
	held := make([]int, 0, occupied)
	for len(held) < occupied {
		h, ok := sh.Allocate()
		if !ok {
			return errors.New("shard full before 85% occupancy")
		}
		held = append(held, h)
	}
	rng := fleet.NewRNG(uint64(r.seed) + 3)
	picks := make([]int, 1<<16)
	for i := range picks {
		picks[i] = rng.Intn(len(held))
	}
	const n = 1 << 18
	ns, err := timeReps(func() (int, error) {
		for i := 0; i < n; i++ {
			j := picks[i&(len(picks)-1)]
			sh.Release(held[j])
			h, ok := sh.Allocate()
			if !ok {
				return 0, errors.New("allocate failed right after a release")
			}
			held[j] = h
		}
		return n, nil
	})
	r.set("rmf.alloc_release_ns", ns, "ns")
	return err
}

// fleetHostNames is every host name of the fleet shape, by site.
func fleetHostNames(sc scale) [][]string {
	names := make([][]string, sc.fleetSites)
	for s := range names {
		names[s] = make([]string, sc.fleetHosts)
		for h := range names[s] {
			names[s][h] = cluster.FleetHost(s, h)
		}
	}
	return names
}

// replayHBM: microseconds per BeatBatch of one site's hosts, every site
// beating once per 30 s tick as the fleet engine does.
func replayHBM(r *run) error {
	names := fleetHostNames(r.sc)
	mon := hbm.NewMonitor(30 * time.Second)
	tick := 0
	ns, err := timeReps(func() (int, error) {
		for t := 0; t < 8; t++ {
			tick++
			now := time.Duration(tick) * 30 * time.Second
			for _, site := range names {
				mon.BeatBatch(now, site)
			}
		}
		return 8 * len(names), nil
	})
	r.set("hbm.beat_batch_us", ns/1e3, "us")
	return err
}

// replayMDS: microseconds per heartbeat tick of MDS publishing: one
// aggregate row per site plus host rows, as the fleet engine sends them.
// After the first tick (which publishes every host) one host in eight is
// taken to change state class per tick and is republished; the rest are
// TTL-refreshed.
func replayMDS(r *run) error {
	names := fleetHostNames(r.sc)
	const ticks = 16
	rows := make([][]mds.StatusRow, ticks+1)
	refresh := make([][]string, ticks+1)
	for t := range rows {
		for s, site := range names {
			rows[t] = append(rows[t], mds.StatusRow{Name: cluster.FleetSite(s), Attrs: map[string][]string{
				"objectclass": {"GridSite"}, "hosts": {fmt.Sprint(len(site))},
				"running": {fmt.Sprint(t)}, "queued": {"0"}, "done": {fmt.Sprint(t * 10)},
			}})
			for h, name := range site {
				if t == 0 || (h+t)%8 == 0 {
					rows[t] = append(rows[t], mds.StatusRow{Name: name, Attrs: map[string][]string{
						"objectclass": {"GridHost"}, "class": {"busy"}, "load": {fmt.Sprint(t % 3)},
					}})
				} else {
					refresh[t] = append(refresh[t], name)
				}
			}
		}
	}
	var costs []float64
	for rep := 0; rep < reps; rep++ {
		pub := mds.NewPublisher(mds.NewDirectory(), "ou=fleet, o=grid", 90*time.Second)
		pub.Publish(0, rows[0])
		t0 := time.Now()
		for t := 1; t <= ticks; t++ {
			now := time.Duration(t) * 30 * time.Second
			pub.Publish(now, rows[t])
			pub.Refresh(now, refresh[t])
		}
		costs = append(costs, float64(time.Since(t0))/ticks)
	}
	r.set("mds.tick_us", median(costs)/1e3, "us")
	return nil
}

// replayObs: nanoseconds per recorded event, the per-hop instant simnet
// emits when an observer is attached, buffer growth included.
func replayObs(r *run) error {
	const n = 200_000
	ns, err := timeReps(func() (int, error) {
		o := obs.New()
		for i := 0; i < n; i++ {
			o.Emit(time.Duration(i), "net", "hop", "fs000-gw>fs000h000", obs.Int("bytes", 256))
		}
		if o.Len() != n {
			return 0, fmt.Errorf("observer holds %d of %d events", o.Len(), n)
		}
		return n, nil
	})
	r.set("obs.emit_ns", ns, "ns")
	return err
}

// replayCausal: nanoseconds per event for causal.Build over a sampled fleet
// trace (16 x 32 hosts, 20k jobs, one in a hundred traced).
func replayCausal(r *run) error {
	cfg := fleetConfig(scale{fleetSites: 16, fleetHosts: 32, fleetJobs: 20_000}, r.seed, true)
	e, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	if err := e.Run(); err != nil {
		return err
	}
	events := cfg.Obs.Events()
	want := (cfg.Jobs + cfg.TraceSample - 1) / cfg.TraceSample
	ns, err := timeReps(func() (int, error) {
		f := causal.Build(events)
		if got := len(causal.SpanDurations(f, "fleet/job")); got != want {
			return 0, fmt.Errorf("rebuilt %d job spans, want %d", got, want)
		}
		return len(events), nil
	})
	r.set("causal.build_ns_per_event", ns, "ns")
	return err
}

// replayKnapsack: nanoseconds per traversed node of the sequential
// branch-and-bound on the paper's normalized instance (50 items), solved
// repeatedly until a million nodes have been traversed.
func replayKnapsack(r *run) error {
	const items, capacity = 50, 4
	in := knapsack.Normalized(items, capacity)
	profits := make([]int, 0, items)
	for _, it := range in.Items {
		profits = append(profits, int(it.Profit))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(profits)))
	want := int64(0)
	for _, p := range profits[:capacity] {
		want += int64(p)
	}
	ns, err := timeReps(func() (int, error) {
		var total int64
		for total < 1_000_000 {
			best, nodes := knapsack.Solve(in)
			if best != want {
				return 0, fmt.Errorf("optimum %d, want %d", best, want)
			}
			total += nodes
		}
		return int(total), nil
	})
	r.set("knapsack.node_ns", ns, "ns")
	return err
}

// ledgerShare reconciles the fleet run's wall time with its call mix: the
// counts the engine reports times each layer's replayed per-call cost,
// over the measured Run wall.
func (r *run) ledgerShare() {
	l := r.ledger
	if l == nil {
		r.set("fleet.ledger_share", 0, "share")
		return
	}
	v := func(name string) float64 { return r.m[name].Value }
	parts := []struct {
		name string
		ns   float64
	}{
		{"simnet (4 sends/job)", float64(l.jobs) * 4 * v("simnet.send_ns")},
		{"sim (2 timers/job)", float64(l.jobs) * 2 * v("sim.step_ns")},
		{"rmf (1 alloc+release/job)", float64(l.jobs) * v("rmf.alloc_release_ns")},
		{"hbm (1 batch/site/tick)", float64(l.ticks*l.sites) * v("hbm.beat_batch_us") * 1e3},
		{"mds (1 publish+refresh/tick)", float64(l.ticks) * v("mds.tick_us") * 1e3},
		{"obs (emit per event)", float64(l.obsEvents) * v("obs.emit_ns")},
		{"causal (build per event)", float64(l.obsEvents) * v("causal.build_ns_per_event")},
	}
	wall := l.runWall * 1e9
	var sum float64
	for _, p := range parts {
		sum += p.ns
		r.logf("ledger %-30s %10.2f ms  %5.1f%% of Run", p.name, p.ns/1e6, 100*p.ns/wall)
	}
	r.logf("ledger %-30s %10.2f ms  %5.1f%% of Run (%.2f ms)", "total", sum/1e6, 100*sum/wall, wall/1e6)
	r.set("fleet.ledger_share", sum/wall, "share")
}
