package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the middle of xs (mean of the two middles for even
// lengths); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank p-th percentile of xs; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// secondsSince is the wall time since t0 in seconds.
func secondsSince(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// stolenSeconds is the time the hypervisor has kept this machine's virtual
// CPUs from running, summed over CPUs, read from /proc/stat (0 where the
// kernel does not report it). /proc/stat counts in USER_HZ ticks, which
// Linux fixes at 100 per second.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100
}

// stopwatch times a unit of work that keeps one CPU busy. On a shared host
// other tenants' load shows up as steal time, which stretches a unit's
// wall time without the program doing more work; seconds subtracts it, so
// a neighbour's burst does not read as a regression. Steal comes in 10 ms
// ticks, so only units of a tenth of a second or more are timed this way.
type stopwatch struct {
	t0     time.Time
	stolen float64
}

func startWatch() stopwatch { return stopwatch{t0: time.Now(), stolen: stolenSeconds()} }

// seconds is the wall time since start minus the steal since start. Steal
// on a CPU the unit was not using can make the difference too small, so it
// is kept to at least half the wall time.
func (w stopwatch) seconds() float64 {
	wall := secondsSince(w.t0)
	return math.Max(wall-(stolenSeconds()-w.stolen), wall/2)
}

// --- spans -------------------------------------------------------------

// span is one timed call recorded by the benchmark around a public entry
// point of a layer.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run. It is only called from
// the benchmark's main goroutine; a nil *tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes returns per-name totals, where a span's self time is its
// duration minus the durations of its direct children. Sorted by self time,
// largest first.
func (t *tracer) selfTimes() []spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanStat{}
	for i, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - child[i])
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// pairCost measures what one begin/end pair costs, for the tracing
// overhead estimate.
func pairCost() time.Duration {
	const n = 200_000
	var costs []float64
	for r := 0; r < 5; r++ {
		t := newTracer()
		t.spans = make([]span, 0, n)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t.end(t.begin("x"))
		}
		costs = append(costs, float64(time.Since(t0))/n)
	}
	return time.Duration(median(costs))
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- heap and GC ---------------------------------------------------------

// heapPeak tracks the largest live heap the workload reaches. mark forces
// a collection at a point where the workload's live data peaks and
// samples /gc/heap/live:bytes there. Where no such point can be reached
// from outside (inside scenario.Run), follow samples right after every
// collection instead, through a finalizer re-armed each cycle; this costs
// nothing between collections. Collections are not sampled by default: one
// that lands during a buffer's growth copy sees the old and new arrays
// together, or does not, at random, and the peak would jitter by half a
// buffer.
type heapPeak struct {
	mu     sync.Mutex
	max    uint64
	stop   bool
	follow bool
}

func newHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	sentinel := new([16]byte)
	runtime.SetFinalizer(sentinel, func(*[16]byte) {
		h.mu.Lock()
		stop, follow := h.stop, h.follow
		h.mu.Unlock()
		if follow {
			h.record(liveHeap())
		}
		if !stop {
			h.arm()
		}
	})
}

func (h *heapPeak) record(live uint64) {
	h.mu.Lock()
	if live > h.max {
		h.max = live
	}
	h.mu.Unlock()
}

// followCollections turns sampling after every collection on or off.
func (h *heapPeak) followCollections(on bool) {
	h.mu.Lock()
	h.follow = on
	h.mu.Unlock()
}

// mark collects now and samples the live heap.
func (h *heapPeak) mark() {
	runtime.GC()
	h.record(liveHeap())
}

// close stops re-arming and returns the peak in bytes.
func (h *heapPeak) close() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stop = true
	return h.max
}

// liveHeap reads the live heap as of the last completed collection.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// cpuClock reads cumulative GC and total CPU seconds of this process.
type cpuClock struct{ gc, total float64 }

func readCPU() cpuClock {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var c cpuClock
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// gcShare is the GC's share of CPU time between two readings.
func gcShare(a, b cpuClock) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}

// --- host record ---------------------------------------------------------

// hostRecord says which machine and which code produced a result, so
// results from different hosts or sources are never compared silently.
type hostRecord struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_hash"`
}

func readHost(root string) hostRecord {
	h := hostRecord{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		SourceHash: sourceHash(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash is an FNV-64a digest over the paths and contents of every Go
// source and go.mod under root (dot-directories skipped). A checkout that
// is not a git repository still identifies the code it measured.
func sourceHash(root string) string {
	h := fnv.New64a()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// --- leak accounting -----------------------------------------------------

// openFDs counts this process's open file descriptors.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// resources is a goroutine and descriptor count.
type resources struct{ goroutines, fds int }

func countResources() resources {
	return resources{goroutines: runtime.NumGoroutine(), fds: openFDs()}
}

// checkNoLeak waits up to settle for the goroutine and descriptor counts to
// fall back to base, and reports what is still held if they do not.
func checkNoLeak(base resources, settle time.Duration) error {
	deadline := time.Now().Add(settle)
	for {
		now := countResources()
		if now.goroutines <= base.goroutines && now.fds <= base.fds {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leak: %d goroutines and %d fds still held after close (before: %d, %d; after: %d, %d)",
				now.goroutines-base.goroutines, now.fds-base.fds,
				base.goroutines, base.fds, now.goroutines, now.fds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
