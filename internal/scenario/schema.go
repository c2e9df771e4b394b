package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind selects a scenario's experiment archetype — each maps onto one of the
// hand-wired `experiments -run` code paths.
type Kind string

const (
	// KindChaos runs the Table 4 knapsack workload on the recovery-enabled
	// testbed under a fault schedule with the full invariant library
	// (internal/chaos.Run).
	KindChaos Kind = "chaos"
	// KindTable2 measures the paper's Table 2 latency/bandwidth points
	// (bench.RunTable2).
	KindTable2 Kind = "table2"
	// KindTable4 runs the full Table 4 execution-time sweep across the
	// paper's systems (bench.RunKnapsack).
	KindTable4 Kind = "table4"
	// KindMonitor runs the wide-area knapsack with the live monitoring plane
	// attached (bench.RunMonitor).
	KindMonitor Kind = "monitor"
	// KindGridFTP sweeps parallel-stream transfers against WAN loss
	// (bench.RunTransfer).
	KindGridFTP Kind = "gridftp"
	// KindGrid runs one wide-grid knapsack solve across the Figure 5
	// testbed plus topology.extra_sites grid sites (bench.RunGridKnapsack).
	KindGrid Kind = "grid"
	// KindFleet runs the open-loop fleet-scale workload engine: N sites x M
	// hosts behind hierarchical routing, sharded allocation, and a batched
	// control plane (fleet.New / bench.RunFleet).
	KindFleet Kind = "fleet"
)

// validKinds lists every kind for error messages, in display order.
var validKinds = []Kind{KindChaos, KindTable2, KindTable4, KindMonitor, KindGridFTP, KindGrid, KindFleet}

// Spec is a fully decoded scenario file.
type Spec struct {
	Name     string
	Desc     string
	Kind     Kind
	Topology TopologySpec
	Faults   []FaultSpec
	Asserts  []AssertSpec

	// SLO, when non-nil, is the scenario's service-level-objective block:
	// latency percentiles over causal trace legs, throughput floors and
	// error budgets over the sampled time-series (chaos and monitor kinds).
	SLO *SLOSpec

	// Exactly one of the following is non-nil, matching Kind.
	Chaos   *ChaosWorkload
	Table2  *Table2Workload
	Table4  *Table4Workload
	Monitor *MonitorWorkload
	GridFTP *GridFTPWorkload
	Grid    *GridWorkload
	Fleet   *FleetWorkload

	// Baseline, for chaos scenarios, is a second spec produced by deep-
	// merging the file's `baseline:` patch over the scenario document —
	// typically the same faults without the mitigation. Compare names the
	// cross-check applied between the two runs.
	Baseline *Spec
	Compare  string
}

// TopologySpec adjusts testbed construction (cluster.Options).
type TopologySpec struct {
	// ExtraSites adds grid sites beyond Figure 5.
	ExtraSites int
	// OpenFirewall reproduces the paper's temporarily-opened baseline.
	OpenFirewall bool
	// Secret enables authenticated relay control channels.
	Secret string
	// Seed seeds the kernel RNG (backoff jitter etc.).
	Seed uint64
	// RelayPerBuffer / RelayBufBytes override relay calibration.
	RelayPerBuffer time.Duration
	RelayBufBytes  int
	// WAN overrides the IMnet link.
	WAN WANSpec
	// Flow enables the TCP-Reno congestion model.
	Flow *FlowSpec
}

// WANSpec overrides the wide-area link (zero values keep calibration).
type WANSpec struct {
	Latency   time.Duration
	Bandwidth int64
	Loss      float64
}

// FlowSpec configures the congestion model.
type FlowSpec struct {
	Seed uint64
}

// ChaosWorkload mirrors chaos.Config's workload knobs.
type ChaosWorkload struct {
	Items        int
	Capacity     int
	System       string // compas | etl-o2k | local | wide
	UseProxy     bool
	Horizon      time.Duration
	ControlPlane bool
	JobRuntime   time.Duration
	JobCompute   bool
	// ExtraJobs submits a burst of additional RMF jobs (flash crowds).
	ExtraJobs int
	FT        FTSpec
	Keepalive KeepaliveSpec
	Recovery  *RecoverySpec
	// SuspectWindow / BeatCost / HBMLateAfter / HBMDownAfter tune the
	// gray-failure monitoring (see chaos.Config).
	SuspectWindow time.Duration
	BeatCost      time.Duration
	HBMLateAfter  time.Duration
	HBMDownAfter  time.Duration
}

// FTSpec mirrors knapsack.FTParams (with the embedded Params knobs).
type FTSpec struct {
	Interval       int
	StealUnit      int
	NodeCost       time.Duration
	SlaveTimeout   time.Duration
	StealTimeout   time.Duration
	StealRetries   int
	HeartbeatEvery time.Duration
}

// KeepaliveSpec mirrors proxy.KeepaliveConfig.
type KeepaliveSpec struct {
	Interval   time.Duration
	Timeout    time.Duration
	MissBudget int
}

// RecoverySpec mirrors rmf.RecoveryPolicy.
type RecoverySpec struct {
	StatusRetries  int
	SpeculateAfter time.Duration
}

// Table2Workload mirrors bench.Table2Config.
type Table2Workload struct {
	Rounds  int
	Sizes   []int
	Workers int
}

// Table4Workload mirrors bench.KnapsackConfig.
type Table4Workload struct {
	Items    int
	Capacity int
	Workers  int
}

// MonitorWorkload mirrors bench.MonitorConfig.
type MonitorWorkload struct {
	Items    int
	Capacity int
	Interval time.Duration
}

// GridFTPWorkload mirrors bench.TransferConfig.
type GridFTPWorkload struct {
	FileSize  int
	Streams   []int
	LossRates []float64
	Seed      uint64
	Workers   int
}

// GridWorkload mirrors bench.GridConfig.
type GridWorkload struct {
	Items    int
	Capacity int
	UseProxy bool
}

// FleetWorkload mirrors fleet.Config. The nested arrival and size blocks
// are decoded strictly and the whole block is validated with
// fleet.Config.Validate at parse time, so malformed fleet scenarios —
// unknown distribution, non-positive rate, sites x hosts past the host cap —
// fail `simulator validate` with a field-named error.
type FleetWorkload struct {
	Sites        int
	HostsPerSite int
	CPUsPerHost  int
	Jobs         int
	Seed         uint64
	Heartbeat    time.Duration
	TraceSample  int
	Arrivals     ArrivalsSpec
	Sizes        SizesSpec
}

// ArrivalsSpec mirrors fleet.RateShape.
type ArrivalsSpec struct {
	Kind      string
	Rate      float64
	Amplitude float64
	Period    time.Duration
	Peak      float64
	From, To  time.Duration
}

// SizesSpec mirrors fleet.SizeDist.
type SizesSpec struct {
	Kind      string
	Mean      time.Duration
	Alpha     float64
	Min, Max  time.Duration
	Mu, Sigma float64
}

// FaultSpec is one declarative fault-schedule entry.
type FaultSpec struct {
	// Kind is the entry key: crash, outage, flap, degrade, slow, partition.
	Kind string
	// Host targets crash/slow; A/B name duplex link ends (outage/flap);
	// Src/Dst name the directed link for degrade.
	Host     string
	A, B     string
	Src, Dst string
	// From/To bound the fault window. For degrade, slow and partition a
	// missing `to` (or to == 0) leaves the fault in place permanently; for
	// crash, outage and flap `to` is required.
	From, To time.Duration
	// Period/Duty parameterize flap.
	Period time.Duration
	Duty   float64
	// ExtraLatency/Loss parameterize degrade.
	ExtraLatency time.Duration
	Loss         float64
	// Factor parameterizes slow.
	Factor float64
	// GroupA/GroupB parameterize partition; entries may use the aliases
	// "$rwcp-side" and "$etl-side" for the canonical Figure 5 halves.
	GroupA, GroupB []string
}

// AssertSpec is one end-of-run assertion: a bare name, or a name with an
// argument ("elapsed-ceiling: 60s", "registrations: {min: 1, max: 1}").
type AssertSpec struct {
	Name string
	Arg  any
}

// --- strict generic-value decoding ---

// object wraps a decoded map for strict field access: every key must be
// consumed, unknown keys error with the valid key set.
type object struct {
	path string
	m    map[string]any
	// used records every key the decoder asked for, true once present and
	// consumed; the asked keys are the valid key set finish reports.
	used map[string]bool
}

func asObject(v any, path string) (*object, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: %s must be a mapping, got %s", path, typeName(v))
	}
	return &object{path: path, m: m, used: map[string]bool{}}, nil
}

func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case map[string]any:
		return "mapping"
	case []any:
		return "list"
	case string:
		return "string"
	case bool:
		return "bool"
	case int64:
		return "integer"
	case float64:
		return "number"
	}
	return fmt.Sprintf("%T", v)
}

func (o *object) has(key string) bool {
	_, ok := o.m[key]
	return ok
}

func (o *object) take(key string) (any, bool) {
	v, ok := o.m[key]
	o.used[key] = o.used[key] || ok
	return v, ok
}

// finish errors on any unconsumed (unknown) key.
func (o *object) finish() error {
	var unknown []string
	for k := range o.m {
		if !o.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	valid := make([]string, 0, len(o.used))
	for k := range o.used {
		valid = append(valid, k)
	}
	sort.Strings(valid)
	return fmt.Errorf("scenario: %s: unknown key %q (valid keys: %s)",
		o.path, unknown[0], strings.Join(valid, ", "))
}

func (o *object) str(key string, def string) (string, error) {
	v, ok := o.take(key)
	if !ok || v == nil {
		return def, nil
	}
	s, isStr := v.(string)
	if !isStr {
		return "", fmt.Errorf("scenario: %s.%s must be a string, got %s", o.path, key, typeName(v))
	}
	return s, nil
}

func (o *object) boolean(key string, def bool) (bool, error) {
	v, ok := o.take(key)
	if !ok || v == nil {
		return def, nil
	}
	b, isBool := v.(bool)
	if !isBool {
		return false, fmt.Errorf("scenario: %s.%s must be true or false, got %s", o.path, key, typeName(v))
	}
	return b, nil
}

func (o *object) integer(key string, def int64) (int64, error) {
	v, ok := o.take(key)
	if !ok || v == nil {
		return def, nil
	}
	return coerceInt(v, o.path+"."+key)
}

// count decodes a non-negative integer. Counts use 0 for "default"; a
// negative one means nothing, so it is rejected here, at the key that holds
// it, rather than failing the run far from the mistake.
func (o *object) count(key string) (int, error) {
	n, err := o.integer(key, 0)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("scenario: %s.%s must be >= 0, got %d", o.path, key, n)
	}
	return int(n), nil
}

func coerceInt(v any, path string) (int64, error) {
	switch t := v.(type) {
	case int64:
		return t, nil
	case float64:
		if t == float64(int64(t)) {
			return int64(t), nil
		}
	}
	return 0, fmt.Errorf("scenario: %s must be an integer, got %s", path, typeName(v))
}

func (o *object) float(key string, def float64) (float64, error) {
	v, ok := o.take(key)
	if !ok || v == nil {
		return def, nil
	}
	return coerceFloat(v, o.path+"."+key)
}

func coerceFloat(v any, path string) (float64, error) {
	switch t := v.(type) {
	case int64:
		return float64(t), nil
	case float64:
		return t, nil
	}
	return 0, fmt.Errorf("scenario: %s must be a number, got %s", path, typeName(v))
}

// duration decodes a Go duration string ("250ms"). Negative durations are
// rejected everywhere in the schema — no field means anything with one.
func (o *object) duration(key string, def time.Duration) (time.Duration, error) {
	v, ok := o.take(key)
	if !ok || v == nil {
		return def, nil
	}
	return coerceDuration(v, o.path+"."+key)
}

func coerceDuration(v any, path string) (time.Duration, error) {
	s, isStr := v.(string)
	if !isStr {
		return 0, fmt.Errorf("scenario: %s must be a duration string like \"250ms\", got %s", path, typeName(v))
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("scenario: %s: invalid duration %q", path, s)
	}
	if d < 0 {
		return 0, fmt.Errorf("scenario: %s: negative duration %q", path, s)
	}
	return d, nil
}

func (o *object) strings(key string) ([]string, error) {
	v, ok := o.take(key)
	if !ok || v == nil {
		return nil, nil
	}
	seq, isSeq := v.([]any)
	if !isSeq {
		return nil, fmt.Errorf("scenario: %s.%s must be a list of strings, got %s", o.path, key, typeName(v))
	}
	out := make([]string, 0, len(seq))
	for i, e := range seq {
		s, isStr := e.(string)
		if !isStr {
			return nil, fmt.Errorf("scenario: %s.%s[%d] must be a string, got %s", o.path, key, i, typeName(e))
		}
		out = append(out, s)
	}
	return out, nil
}

func (o *object) ints(key string) ([]int, error) {
	v, ok := o.take(key)
	if !ok || v == nil {
		return nil, nil
	}
	seq, isSeq := v.([]any)
	if !isSeq {
		return nil, fmt.Errorf("scenario: %s.%s must be a list of integers, got %s", o.path, key, typeName(v))
	}
	out := make([]int, 0, len(seq))
	for i, e := range seq {
		n, err := coerceInt(e, fmt.Sprintf("%s.%s[%d]", o.path, key, i))
		if err != nil {
			return nil, err
		}
		out = append(out, int(n))
	}
	return out, nil
}

func (o *object) floats(key string) ([]float64, error) {
	v, ok := o.take(key)
	if !ok || v == nil {
		return nil, nil
	}
	seq, isSeq := v.([]any)
	if !isSeq {
		return nil, fmt.Errorf("scenario: %s.%s must be a list of numbers, got %s", o.path, key, typeName(v))
	}
	out := make([]float64, 0, len(seq))
	for i, e := range seq {
		f, err := coerceFloat(e, fmt.Sprintf("%s.%s[%d]", o.path, key, i))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// child returns the sub-object at key, or nil when absent/null.
func (o *object) child(key string) (*object, error) {
	v, ok := o.take(key)
	if !ok || v == nil {
		return nil, nil
	}
	return asObject(v, o.path+"."+key)
}

// Parse decodes and validates one scenario document. The returned Spec is
// ready to Compile and Run. Parse never panics on malformed input.
func Parse(data []byte) (*Spec, error) {
	doc, err := parseDocument(data)
	if err != nil {
		return nil, err
	}
	return decodeSpec(doc, true)
}

func decodeSpec(doc any, allowBaseline bool) (*Spec, error) {
	root, err := asObject(doc, "scenario")
	if err != nil {
		return nil, err
	}
	s := &Spec{}
	if s.Name, err = root.str("name", ""); err != nil {
		return nil, err
	}
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: missing required key \"name\"")
	}
	if s.Desc, err = root.str("desc", ""); err != nil {
		return nil, err
	}
	kindStr, err := root.str("kind", "")
	if err != nil {
		return nil, err
	}
	if kindStr == "" {
		return nil, fmt.Errorf("scenario %s: missing required key \"kind\" (one of: %s)", s.Name, kindList())
	}
	s.Kind = Kind(kindStr)
	if !validKind(s.Kind) {
		return nil, fmt.Errorf("scenario %s: unknown kind %q (one of: %s)", s.Name, kindStr, kindList())
	}

	if topo, err := root.child("topology"); err != nil {
		return nil, err
	} else if topo != nil {
		if err := decodeTopology(topo, &s.Topology); err != nil {
			return nil, err
		}
	}

	wl, ok := root.take("workload")
	if !ok || wl == nil {
		return nil, fmt.Errorf("scenario %s: missing required key \"workload\" (kind %s needs one)", s.Name, s.Kind)
	}
	wobj, err := asObject(wl, "workload")
	if err != nil {
		return nil, err
	}
	if err := decodeWorkload(wobj, s); err != nil {
		return nil, err
	}

	if err := decodeFaults(root, s); err != nil {
		return nil, err
	}
	if err := decodeAsserts(root, s); err != nil {
		return nil, err
	}
	if err := decodeSLO(root, s); err != nil {
		return nil, err
	}

	baseline, hasBaseline := root.take("baseline")
	compare, err := root.str("compare", "")
	if err != nil {
		return nil, err
	}
	s.Compare = compare
	if hasBaseline && baseline != nil {
		if !allowBaseline {
			return nil, fmt.Errorf("scenario %s: baseline cannot itself declare a baseline", s.Name)
		}
		if s.Kind != KindChaos {
			return nil, fmt.Errorf("scenario %s: baseline is only supported for kind chaos", s.Name)
		}
		patch, ok := baseline.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("scenario: baseline must be a mapping, got %s", typeName(baseline))
		}
		// The baseline inherits the document minus the primary-run-only
		// sections: its own baseline/compare, the assertions, and the SLO
		// block (objectives judge the mitigated run, not the control).
		merged := deepMerge(pruneKeys(doc.(map[string]any), "baseline", "compare", "assert", "slo"), patch)
		base, err := decodeSpec(merged, false)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: baseline: %w", s.Name, err)
		}
		s.Baseline = base
	}
	if s.Compare != "" && s.Baseline == nil {
		return nil, fmt.Errorf("scenario %s: compare %q requires a baseline", s.Name, s.Compare)
	}
	if err := root.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

func validKind(k Kind) bool {
	for _, v := range validKinds {
		if k == v {
			return true
		}
	}
	return false
}

func kindList() string {
	parts := make([]string, len(validKinds))
	for i, k := range validKinds {
		parts[i] = string(k)
	}
	return strings.Join(parts, ", ")
}

// pruneKeys shallow-copies m without the named keys.
func pruneKeys(m map[string]any, keys ...string) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	for _, k := range keys {
		delete(out, k)
	}
	return out
}

// deepMerge overlays patch onto base: mappings merge recursively, everything
// else (lists included) replaces wholesale. A null patch value deletes the
// base key, so a baseline can strip a mitigation ("recovery: null").
func deepMerge(base, patch map[string]any) map[string]any {
	out := make(map[string]any, len(base)+len(patch))
	for k, v := range base {
		out[k] = v
	}
	for k, pv := range patch {
		if pv == nil {
			delete(out, k)
			continue
		}
		if pm, ok := pv.(map[string]any); ok {
			if bm, ok := out[k].(map[string]any); ok {
				out[k] = deepMerge(bm, pm)
				continue
			}
		}
		out[k] = pv
	}
	return out
}

func decodeTopology(o *object, t *TopologySpec) error {
	var err error
	fail := func(e error) bool {
		if e != nil && err == nil {
			err = e
		}
		return err != nil
	}
	if t.ExtraSites, err = o.count("extra_sites"); fail(err) {
		return err
	}
	var n int64
	if t.OpenFirewall, err = o.boolean("open_firewall", false); fail(err) {
		return err
	}
	if t.Secret, err = o.str("secret", ""); fail(err) {
		return err
	}
	if n, err = o.integer("seed", 0); fail(err) {
		return err
	}
	t.Seed = uint64(n)
	if t.RelayPerBuffer, err = o.duration("relay_per_buffer", 0); fail(err) {
		return err
	}
	if n, err = o.integer("relay_buf_bytes", 0); fail(err) {
		return err
	}
	t.RelayBufBytes = int(n)
	wan, err := o.child("wan")
	if err != nil {
		return err
	}
	if wan != nil {
		if t.WAN.Latency, err = wan.duration("latency", 0); err != nil {
			return err
		}
		if n, err = wan.integer("bandwidth", 0); err != nil {
			return err
		}
		t.WAN.Bandwidth = n
		if t.WAN.Loss, err = wan.float("loss", 0); err != nil {
			return err
		}
		if t.WAN.Loss < 0 || t.WAN.Loss > 1 {
			return fmt.Errorf("scenario: topology.wan.loss %v outside [0,1] — loss is a probability", t.WAN.Loss)
		}
		if err = wan.finish(); err != nil {
			return err
		}
	}
	flow, err := o.child("flow")
	if err != nil {
		return err
	}
	if flow != nil {
		t.Flow = &FlowSpec{}
		if n, err = flow.integer("seed", 1); err != nil {
			return err
		}
		t.Flow.Seed = uint64(n)
		if err = flow.finish(); err != nil {
			return err
		}
	}
	return o.finish()
}

func decodeWorkload(o *object, s *Spec) error {
	switch s.Kind {
	case KindChaos:
		return decodeChaosWorkload(o, s)
	case KindTable2:
		return decodeTable2Workload(o, s)
	case KindTable4:
		return decodeTable4Workload(o, s)
	case KindMonitor:
		return decodeMonitorWorkload(o, s)
	case KindGridFTP:
		return decodeGridFTPWorkload(o, s)
	case KindGrid:
		return decodeGridWorkload(o, s)
	case KindFleet:
		return decodeFleetWorkload(o, s)
	}
	return fmt.Errorf("scenario %s: unknown kind %q", s.Name, s.Kind)
}

func decodeChaosWorkload(o *object, s *Spec) error {
	w := &ChaosWorkload{}
	var err error
	var n int64
	if w.Items, err = o.count("items"); err != nil {
		return err
	}
	if w.Capacity, err = o.count("capacity"); err != nil {
		return err
	}
	if w.System, err = o.str("system", "wide"); err != nil {
		return err
	}
	if w.UseProxy, err = o.boolean("use_proxy", true); err != nil {
		return err
	}
	if w.Horizon, err = o.duration("horizon", 0); err != nil {
		return err
	}
	if w.ControlPlane, err = o.boolean("control_plane", false); err != nil {
		return err
	}
	if w.JobRuntime, err = o.duration("job_runtime", 0); err != nil {
		return err
	}
	if w.JobCompute, err = o.boolean("job_compute", false); err != nil {
		return err
	}
	if n, err = o.integer("extra_jobs", 0); err != nil {
		return err
	}
	w.ExtraJobs = int(n)
	if w.SuspectWindow, err = o.duration("suspect_window", 0); err != nil {
		return err
	}
	if w.BeatCost, err = o.duration("beat_cost", 0); err != nil {
		return err
	}
	hbm, err := o.child("hbm")
	if err != nil {
		return err
	}
	if hbm != nil {
		if w.HBMLateAfter, err = hbm.duration("late_after", 0); err != nil {
			return err
		}
		if w.HBMDownAfter, err = hbm.duration("down_after", 0); err != nil {
			return err
		}
		if err = hbm.finish(); err != nil {
			return err
		}
	}
	ft, err := o.child("ft")
	if err != nil {
		return err
	}
	if ft != nil {
		if n, err = ft.integer("interval", 0); err != nil {
			return err
		}
		w.FT.Interval = int(n)
		if n, err = ft.integer("steal_unit", 0); err != nil {
			return err
		}
		w.FT.StealUnit = int(n)
		if w.FT.NodeCost, err = ft.duration("node_cost", 0); err != nil {
			return err
		}
		if w.FT.SlaveTimeout, err = ft.duration("slave_timeout", 0); err != nil {
			return err
		}
		if w.FT.StealTimeout, err = ft.duration("steal_timeout", 0); err != nil {
			return err
		}
		if n, err = ft.integer("steal_retries", 0); err != nil {
			return err
		}
		w.FT.StealRetries = int(n)
		if w.FT.HeartbeatEvery, err = ft.duration("heartbeat_every", 0); err != nil {
			return err
		}
		if err = ft.finish(); err != nil {
			return err
		}
	}
	ka, err := o.child("keepalive")
	if err != nil {
		return err
	}
	if ka != nil {
		if w.Keepalive.Interval, err = ka.duration("interval", 0); err != nil {
			return err
		}
		if w.Keepalive.Timeout, err = ka.duration("timeout", 0); err != nil {
			return err
		}
		if n, err = ka.integer("miss_budget", 0); err != nil {
			return err
		}
		w.Keepalive.MissBudget = int(n)
		if err = ka.finish(); err != nil {
			return err
		}
	}
	rec, err := o.child("recovery")
	if err != nil {
		return err
	}
	if rec != nil {
		w.Recovery = &RecoverySpec{}
		if n, err = rec.integer("status_retries", 0); err != nil {
			return err
		}
		w.Recovery.StatusRetries = int(n)
		if w.Recovery.SpeculateAfter, err = rec.duration("speculate_after", 0); err != nil {
			return err
		}
		if err = rec.finish(); err != nil {
			return err
		}
	}
	if err = o.finish(); err != nil {
		return err
	}
	s.Chaos = w
	return nil
}

func decodeTable2Workload(o *object, s *Spec) error {
	w := &Table2Workload{}
	var err error
	var n int64
	if n, err = o.integer("rounds", 0); err != nil {
		return err
	}
	w.Rounds = int(n)
	if w.Sizes, err = o.ints("sizes"); err != nil {
		return err
	}
	if n, err = o.integer("workers", 0); err != nil {
		return err
	}
	w.Workers = int(n)
	if err = o.finish(); err != nil {
		return err
	}
	s.Table2 = w
	return nil
}

func decodeTable4Workload(o *object, s *Spec) error {
	w := &Table4Workload{}
	var err error
	var n int64
	if w.Items, err = o.count("items"); err != nil {
		return err
	}
	if w.Capacity, err = o.count("capacity"); err != nil {
		return err
	}
	if n, err = o.integer("workers", 0); err != nil {
		return err
	}
	w.Workers = int(n)
	if err = o.finish(); err != nil {
		return err
	}
	s.Table4 = w
	return nil
}

func decodeMonitorWorkload(o *object, s *Spec) error {
	w := &MonitorWorkload{}
	var err error
	if w.Items, err = o.count("items"); err != nil {
		return err
	}
	if w.Capacity, err = o.count("capacity"); err != nil {
		return err
	}
	if w.Interval, err = o.duration("interval", 0); err != nil {
		return err
	}
	if err = o.finish(); err != nil {
		return err
	}
	s.Monitor = w
	return nil
}

func decodeGridFTPWorkload(o *object, s *Spec) error {
	w := &GridFTPWorkload{}
	var err error
	var n int64
	if n, err = o.integer("file_size", 0); err != nil {
		return err
	}
	w.FileSize = int(n)
	if w.Streams, err = o.ints("streams"); err != nil {
		return err
	}
	if w.LossRates, err = o.floats("loss_rates"); err != nil {
		return err
	}
	for _, l := range w.LossRates {
		if l < 0 || l > 1 {
			return fmt.Errorf("scenario: workload.loss_rates entry %v outside [0,1] — loss is a probability", l)
		}
	}
	if n, err = o.integer("seed", 0); err != nil {
		return err
	}
	w.Seed = uint64(n)
	if n, err = o.integer("workers", 0); err != nil {
		return err
	}
	w.Workers = int(n)
	if err = o.finish(); err != nil {
		return err
	}
	s.GridFTP = w
	return nil
}

func decodeGridWorkload(o *object, s *Spec) error {
	w := &GridWorkload{}
	var err error
	if w.Items, err = o.count("items"); err != nil {
		return err
	}
	if w.Capacity, err = o.count("capacity"); err != nil {
		return err
	}
	if w.UseProxy, err = o.boolean("use_proxy", false); err != nil {
		return err
	}
	if err = o.finish(); err != nil {
		return err
	}
	s.Grid = w
	return nil
}

func decodeFleetWorkload(o *object, s *Spec) error {
	w := &FleetWorkload{}
	var err error
	var n int64
	if n, err = o.integer("sites", 0); err != nil {
		return err
	}
	w.Sites = int(n)
	if n, err = o.integer("hosts_per_site", 0); err != nil {
		return err
	}
	w.HostsPerSite = int(n)
	if n, err = o.integer("cpus_per_host", 0); err != nil {
		return err
	}
	w.CPUsPerHost = int(n)
	if n, err = o.integer("jobs", 0); err != nil {
		return err
	}
	w.Jobs = int(n)
	if n, err = o.integer("seed", 0); err != nil {
		return err
	}
	w.Seed = uint64(n)
	if w.Heartbeat, err = o.duration("heartbeat", 0); err != nil {
		return err
	}
	if n, err = o.integer("trace_sample", 0); err != nil {
		return err
	}
	w.TraceSample = int(n)

	arr, err := o.child("arrivals")
	if err != nil {
		return err
	}
	if arr == nil {
		return fmt.Errorf("scenario %s: workload.arrivals required (the open-loop rate process)", s.Name)
	}
	if w.Arrivals.Kind, err = arr.str("kind", "constant"); err != nil {
		return err
	}
	if w.Arrivals.Rate, err = arr.float("rate", 0); err != nil {
		return err
	}
	if w.Arrivals.Amplitude, err = arr.float("amplitude", 0); err != nil {
		return err
	}
	if w.Arrivals.Period, err = arr.duration("period", 0); err != nil {
		return err
	}
	if w.Arrivals.Peak, err = arr.float("peak", 0); err != nil {
		return err
	}
	if w.Arrivals.From, err = arr.duration("from", 0); err != nil {
		return err
	}
	if w.Arrivals.To, err = arr.duration("to", 0); err != nil {
		return err
	}
	if err = arr.finish(); err != nil {
		return err
	}

	sz, err := o.child("sizes")
	if err != nil {
		return err
	}
	if sz == nil {
		return fmt.Errorf("scenario %s: workload.sizes required (the job service-time distribution)", s.Name)
	}
	if w.Sizes.Kind, err = sz.str("kind", "fixed"); err != nil {
		return err
	}
	if w.Sizes.Mean, err = sz.duration("mean", 0); err != nil {
		return err
	}
	if w.Sizes.Alpha, err = sz.float("alpha", 0); err != nil {
		return err
	}
	if w.Sizes.Min, err = sz.duration("min", 0); err != nil {
		return err
	}
	if w.Sizes.Max, err = sz.duration("max", 0); err != nil {
		return err
	}
	if w.Sizes.Mu, err = sz.float("mu", 0); err != nil {
		return err
	}
	if w.Sizes.Sigma, err = sz.float("sigma", 0); err != nil {
		return err
	}
	if err = sz.finish(); err != nil {
		return err
	}

	if err = o.finish(); err != nil {
		return err
	}
	s.Fleet = w
	// Strict decode: a fleet block that parses but cannot run (unknown
	// distribution, rate <= 0, sites x hosts past the host cap) is a parse
	// error, not a deferred run failure.
	if err := s.fleetConfig().Validate(); err != nil {
		return fmt.Errorf("scenario %s: workload: %w", s.Name, err)
	}
	return nil
}

func decodeFaults(root *object, s *Spec) error {
	v, ok := root.take("faults")
	if !ok || v == nil {
		return nil
	}
	seq, isSeq := v.([]any)
	if !isSeq {
		return fmt.Errorf("scenario: faults must be a list, got %s", typeName(v))
	}
	for i, e := range seq {
		path := fmt.Sprintf("faults[%d]", i)
		m, isMap := e.(map[string]any)
		if !isMap || len(m) != 1 {
			return fmt.Errorf("scenario: %s must be a single-key mapping like \"- crash: {...}\"", path)
		}
		var kind string
		var body any
		for k, b := range m {
			kind, body = k, b
		}
		o, err := asObject(body, path+"."+kind)
		if err != nil {
			return err
		}
		f, err := decodeFault(kind, o)
		if err != nil {
			return err
		}
		s.Faults = append(s.Faults, f)
	}
	return nil
}

func decodeFault(kind string, o *object) (FaultSpec, error) {
	f := FaultSpec{Kind: kind}
	var err error
	windowed := func(requireTo bool) error {
		if f.From, err = o.duration("from", 0); err != nil {
			return err
		}
		if requireTo && !o.has("to") {
			return fmt.Errorf("scenario: %s: missing required key \"to\" (%s needs a bounded window)", o.path, kind)
		}
		if f.To, err = o.duration("to", 0); err != nil {
			return err
		}
		if o.has("to") && f.To <= f.From {
			if requireTo {
				return fmt.Errorf("scenario: %s: window to %v <= from %v — %s windows must end after they start", o.path, f.To, f.From, kind)
			}
			return fmt.Errorf("scenario: %s: window to %v <= from %v — omit \"to\" for a permanent %s", o.path, f.To, f.From, kind)
		}
		return nil
	}
	switch kind {
	case "crash":
		if f.Host, err = o.str("host", ""); err != nil {
			return f, err
		}
		if f.Host == "" {
			return f, fmt.Errorf("scenario: %s: missing required key \"host\"", o.path)
		}
		// A crash without "to" is permanent (no restart).
		if err = windowed(false); err != nil {
			return f, err
		}
	case "outage", "flap":
		if f.A, err = o.str("a", ""); err != nil {
			return f, err
		}
		if f.B, err = o.str("b", ""); err != nil {
			return f, err
		}
		if f.A == "" || f.B == "" {
			return f, fmt.Errorf("scenario: %s: needs both link ends \"a\" and \"b\"", o.path)
		}
		if err = windowed(true); err != nil {
			return f, err
		}
		if kind == "flap" {
			if f.Period, err = o.duration("period", 0); err != nil {
				return f, err
			}
			if f.Duty, err = o.float("duty", 0); err != nil {
				return f, err
			}
			if f.Period <= 0 {
				return f, fmt.Errorf("scenario: %s: flap needs period > 0", o.path)
			}
			if f.Duty <= 0 || f.Duty >= 1 {
				return f, fmt.Errorf("scenario: %s: flap duty %v outside (0,1)", o.path, f.Duty)
			}
		}
	case "degrade":
		if f.Src, err = o.str("src", ""); err != nil {
			return f, err
		}
		if f.Dst, err = o.str("dst", ""); err != nil {
			return f, err
		}
		if f.Src == "" || f.Dst == "" {
			return f, fmt.Errorf("scenario: %s: degrade is directional — needs \"src\" and \"dst\"", o.path)
		}
		if f.ExtraLatency, err = o.duration("extra_latency", 0); err != nil {
			return f, err
		}
		if f.Loss, err = o.float("loss", 0); err != nil {
			return f, err
		}
		if f.Loss < 0 || f.Loss >= 1 {
			return f, fmt.Errorf("scenario: %s: degrade loss %v outside [0,1)", o.path, f.Loss)
		}
		if err = windowed(false); err != nil {
			return f, err
		}
	case "slow":
		if f.Host, err = o.str("host", ""); err != nil {
			return f, err
		}
		if f.Host == "" {
			return f, fmt.Errorf("scenario: %s: missing required key \"host\"", o.path)
		}
		if f.Factor, err = o.float("factor", 0); err != nil {
			return f, err
		}
		if f.Factor <= 0 {
			return f, fmt.Errorf("scenario: %s: slow factor %v must be > 0", o.path, f.Factor)
		}
		if err = windowed(false); err != nil {
			return f, err
		}
	case "partition":
		if f.GroupA, err = o.strings("a"); err != nil {
			return f, err
		}
		if f.GroupB, err = o.strings("b"); err != nil {
			return f, err
		}
		if len(f.GroupA) == 0 || len(f.GroupB) == 0 {
			return f, fmt.Errorf("scenario: %s: partition needs non-empty groups \"a\" and \"b\"", o.path)
		}
		if err = windowed(false); err != nil {
			return f, err
		}
	default:
		return f, fmt.Errorf("scenario: %s: unknown fault kind %q (one of: crash, outage, flap, degrade, slow, partition)", o.path, kind)
	}
	return f, o.finish()
}

func decodeAsserts(root *object, s *Spec) error {
	v, ok := root.take("assert")
	if !ok || v == nil {
		return nil
	}
	seq, isSeq := v.([]any)
	if !isSeq {
		return fmt.Errorf("scenario: assert must be a list, got %s", typeName(v))
	}
	for i, e := range seq {
		path := fmt.Sprintf("assert[%d]", i)
		switch t := e.(type) {
		case string:
			s.Asserts = append(s.Asserts, AssertSpec{Name: t})
		case map[string]any:
			if len(t) != 1 {
				return fmt.Errorf("scenario: %s must be a bare name or a single-key mapping", path)
			}
			for k, arg := range t {
				s.Asserts = append(s.Asserts, AssertSpec{Name: k, Arg: arg})
			}
		default:
			return fmt.Errorf("scenario: %s must be a name or \"name: arg\", got %s", path, typeName(e))
		}
	}
	return nil
}
