// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated testbed.
//
//	experiments                      # everything
//	experiments -run table2          # one experiment
//	experiments -run table4 -capacity 5
//
// Valid -run values: table2, table3, table4, table5, table6, figure1,
// figure2, figure3, figure4, figure5, sweep (bandwidth vs message size),
// decomp (per-hop latency decomposition of the Table 2 points), ktrace
// (wide-area knapsack run with tracing and a metrics snapshot), monitor
// (wide-area knapsack run with the live monitoring plane), gridftp
// (parallel-stream bulk transfers through the proxy over a congestion-
// modeled WAN), fleet (open-loop fleet-scale run: -fleet-sites x
// -fleet-hosts hosts absorbing -fleet-jobs heavy-tailed jobs at ~0.85
// utilization, reporting jobs/sec, events/sec and p50/p99 job latency from
// sampled causal traces), all. The gray-failure chaos scenarios are scenario
// files (scenarios/chaos-*.yaml) and run under cmd/simulator.
//
// Tracing (decomp and ktrace only; runs stay deterministic in virtual time):
//
//	experiments -run decomp -trace decomp.jsonl
//	experiments -run ktrace -trace-chrome knap.json   # chrome://tracing, Perfetto
//
// Monitoring (per-interval time-series, ASCII dashboard, GIS host table):
//
//	experiments -run monitor
//	experiments -run monitor -monitor-html report.html -monitor-jsonl ts.jsonl
//
// Profiling the simulator itself (any -run value):
//
//	experiments -run table4 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/fleet"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/obs"
)

func main() {
	run := flag.String("run", "all", "experiment to run")
	items := flag.Int("items", 50, "knapsack items (paper: 50)")
	capacity := flag.Int("capacity", 4, "knapsack capacity; controls tree size (4 = ~2.6M nodes, 5 = ~20.6M)")
	rounds := flag.Int("rounds", 4, "rounds per Table 2 measurement")
	workers := flag.Int("workers", 0, "host threads for independent simulations (0 = GOMAXPROCS, 1 = sequential); virtual-time results are identical either way")
	traceOut := flag.String("trace", "", "write the run's event trace as JSONL (decomp, ktrace)")
	traceChrome := flag.String("trace-chrome", "", "write the run's event trace in Chrome trace_event format (ktrace)")
	monitorInterval := flag.Duration("monitor-interval", time.Second, "virtual-time sampling window for -run monitor")
	monitorHTML := flag.String("monitor-html", "", "write the monitor run's HTML/SVG report to this file")
	monitorJSONL := flag.String("monitor-jsonl", "", "write the monitor run's time-series as JSONL to this file")
	monitorAll := flag.Bool("monitor-all", false, "show every series on the dashboard, not just the wide-area headline set")
	fleetSites := flag.Int("fleet-sites", 32, "sites in the -run fleet topology")
	fleetHosts := flag.Int("fleet-hosts", 32, "hosts per site in the -run fleet topology")
	fleetJobs := flag.Int("fleet-jobs", 100_000, "open-loop jobs for -run fleet")
	fleetSeed := flag.Uint64("fleet-seed", 1, "arrival/size RNG seed for -run fleet")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("experiments: cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("experiments: cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatalf("experiments: cpuprofile: %v", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatalf("experiments: memprofile: %v", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("experiments: memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("experiments: memprofile: %v", err)
			}
		}()
	}

	kcfg := bench.KnapsackConfig{Items: *items, Capacity: *capacity, Workers: *workers}

	var knapReport *bench.KnapsackReport
	needKnap := func() *bench.KnapsackReport {
		if knapReport == nil {
			start := time.Now()
			r, err := bench.RunKnapsack(kcfg)
			if err != nil {
				log.Fatalf("experiments: knapsack sweep: %v", err)
			}
			fmt.Fprintf(os.Stderr, "[knapsack sweep: %d items, capacity %d, %d nodes/run, host time %v]\n",
				*items, *capacity, knapsack.NormalizedTreeNodes(*items, *capacity), time.Since(start).Round(time.Millisecond))
			knapReport = r
		}
		return knapReport
	}

	section := func(s string, err error) {
		if err != nil {
			log.Fatalf("experiments: %v", err)
		}
		fmt.Println(s)
	}

	want := func(name string) bool { return *run == "all" || *run == name }

	if want("figure1") {
		s, err := bench.Figure1()
		section(s, err)
	}
	if want("figure2") {
		s, err := bench.Figure2()
		section(s, err)
	}
	if want("figure3") {
		s, err := bench.Figure3()
		section(s, err)
	}
	if want("figure4") {
		s, err := bench.Figure4()
		section(s, err)
	}
	if want("figure5") {
		s, err := bench.Figure5()
		section(s, err)
	}
	if want("sweep") {
		sweeps, err := bench.RunBandwidthSweep(bench.Table2Config{Rounds: *rounds, Workers: *workers})
		if err != nil {
			log.Fatalf("experiments: sweep: %v", err)
		}
		fmt.Println(bench.FormatSweep(sweeps))
	}
	if want("table2") {
		rows, err := bench.RunTable2(bench.Table2Config{Rounds: *rounds, Workers: *workers})
		if err != nil {
			log.Fatalf("experiments: table2: %v", err)
		}
		fmt.Println(bench.FormatTable2(rows))
	}
	if want("table3") {
		fmt.Println(bench.FormatTable3())
	}
	if *run == "decomp" {
		ds, err := bench.RunDecomposition(bench.Table2Config{Workers: *workers})
		if err != nil {
			log.Fatalf("experiments: decomp: %v", err)
		}
		fmt.Println(bench.FormatDecomposition(ds))
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				log.Fatalf("experiments: %v", err)
			}
			// Concatenated JSONL, one section per point; each point's
			// timestamps restart at its own kernel's zero.
			for _, d := range ds {
				if err := d.Obs.WriteJSONL(f); err != nil {
					log.Fatalf("experiments: trace: %v", err)
				}
			}
			if err := f.Close(); err != nil {
				log.Fatalf("experiments: trace: %v", err)
			}
		}
	}
	if *run == "gridftp" {
		start := time.Now()
		pts, err := bench.RunTransfer(bench.TransferConfig{Workers: *workers})
		if err != nil {
			log.Fatalf("experiments: gridftp: %v", err)
		}
		fmt.Fprintf(os.Stderr, "[gridftp sweep: %d points, host time %v]\n",
			len(pts), time.Since(start).Round(time.Millisecond))
		fmt.Println(bench.FormatTransfer(pts))
	}
	if *run == "ktrace" {
		o := obs.New()
		res, err := bench.RunKnapsackTraced(bench.KnapsackConfig{Items: *items, Capacity: *capacity}, o)
		if err != nil {
			log.Fatalf("experiments: ktrace: %v", err)
		}
		fmt.Printf("wide-area knapsack (traced): best %d, %d nodes, %s virtual time, %d trace events\n",
			res.Best, res.TotalTraversed, res.Elapsed, o.Len())
		fmt.Println(o.Metrics().Format())
		writeTrace := func(path string, write func(w io.Writer) error) {
			if path == "" {
				return
			}
			f, err := os.Create(path)
			if err != nil {
				log.Fatalf("experiments: %v", err)
			}
			if err := write(f); err != nil {
				log.Fatalf("experiments: trace: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("experiments: trace: %v", err)
			}
		}
		writeTrace(*traceOut, o.WriteJSONL)
		writeTrace(*traceChrome, o.WriteChromeTrace)
	}
	if *run == "monitor" {
		start := time.Now()
		rep, err := bench.RunMonitor(bench.MonitorConfig{
			KnapsackConfig: kcfg,
			Interval:       *monitorInterval,
		}, nil)
		if err != nil {
			log.Fatalf("experiments: monitor: %v", err)
		}
		fmt.Fprintf(os.Stderr, "[monitored run: %d windows, %d series, host time %v]\n",
			rep.Store.Windows(), rep.Store.Len(), time.Since(start).Round(time.Millisecond))
		filter := bench.DefaultMonitorFilter
		if *monitorAll {
			filter = nil
		}
		fmt.Println(bench.FormatMonitor(rep, filter))
		writeOut := func(path string, write func(w io.Writer) error) {
			if path == "" {
				return
			}
			f, err := os.Create(path)
			if err != nil {
				log.Fatalf("experiments: monitor: %v", err)
			}
			if err := write(f); err != nil {
				log.Fatalf("experiments: monitor: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("experiments: monitor: %v", err)
			}
		}
		writeOut(*monitorJSONL, rep.Store.WriteJSONL)
		writeOut(*monitorHTML, func(w io.Writer) error {
			title := fmt.Sprintf("Wide-area monitored run: %d items, capacity %d", *items, *capacity)
			return rep.Store.WriteHTML(w, title, bench.MonitorHTMLOptions(*monitorAll))
		})
	}
	if *run == "fleet" {
		sizes := fleet.SizeDist{Kind: fleet.DistPareto, Alpha: 1.5, Min: time.Second, Max: 5 * time.Minute}
		// Open-loop rate sized to ~0.85 fleet utilization: slots over the
		// distribution's analytic mean service time.
		slots := float64(*fleetSites) * float64(*fleetHosts) * 2
		rate := 0.85 * slots / sizes.MeanDuration().Seconds()
		start := time.Now()
		rep, err := bench.RunFleet(fleet.Config{
			Sites:        *fleetSites,
			HostsPerSite: *fleetHosts,
			Jobs:         *fleetJobs,
			Seed:         *fleetSeed,
			Arrivals:     fleet.RateShape{Kind: fleet.RateConstant, Rate: rate},
			Sizes:        sizes,
			Heartbeat:    30 * time.Second,
			TraceSample:  100,
		})
		if err != nil {
			log.Fatalf("experiments: fleet: %v", err)
		}
		fmt.Fprintf(os.Stderr, "[fleet run: %d sites x %d hosts, %d jobs, host time %v]\n",
			*fleetSites, *fleetHosts, *fleetJobs, time.Since(start).Round(time.Millisecond))
		fmt.Println(bench.FormatFleet(rep))
	}
	if want("table4") {
		fmt.Println(bench.FormatTable4(needKnap()))
	}
	if want("table5") {
		fmt.Println(bench.FormatTable5(needKnap()))
	}
	if want("table6") {
		fmt.Println(bench.FormatTable6(needKnap()))
	}

	switch *run {
	case "all", "sweep", "table2", "table3", "table4", "table5", "table6",
		"figure1", "figure2", "figure3", "figure4", "figure5", "decomp", "ktrace", "monitor", "gridftp", "fleet":
	default:
		log.Fatalf("experiments: unknown -run %q", *run)
	}
}
