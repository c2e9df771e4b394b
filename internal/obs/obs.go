// Package obs is the deterministic, virtual-time observability layer: every
// timestamp is simulation time (never wall clock), every record is appended
// from kernel-driven code — which executes one process at a time — so a trace
// is a pure function of the simulated run. Two runs of the same scenario
// produce bit-identical traces regardless of GOMAXPROCS or how many
// independent simulations execute concurrently on host threads (each kernel
// owns its own Observer).
//
// The layer has three parts:
//
//   - structured tracing (this file): instant events and begin/end spans,
//     categorized (net, relay, proxy, rmf, hbm, knap, xfer, proc) and stamped
//     with sim time, exported as JSONL and Chrome trace_event JSON;
//   - metrics (metrics.go): an allocation-free registry of counters, gauges
//     and power-of-two histograms with a snapshot table printer;
//   - export (export.go): deterministic serialization and hashing.
//
// # Overhead contract
//
// Disabled is the default, and disabled means free: the no-op observer is a
// nil *Observer, every instrumentation site guards with a nil check before
// building any event, and cached *Counter handles are nil too (Add on a nil
// counter is a branch and a return). The zero-alloc regression tests in
// internal/sim and internal/simnet pin this. Enabling tracing must never
// change virtual-time results: instrumentation only reads the clock, it
// never sleeps, computes, or schedules.
//
// Sampled tracing pays only for its samples: an observer in traced-only mode
// (TracedOnly) refuses every event outside a trace tree, and the per-hop
// sites in internal/simnet test Admits before building fields, so an
// untraced datagram's hops cost a branch each — the same zero allocations
// as a nil observer.
package obs

import "time"

// Field is one key/value annotation on an event. Only strings and int64s are
// representable, which keeps serialization trivially deterministic.
type Field struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// Str builds a string field.
func Str(k, v string) Field { return Field{Key: k, Str: v, IsStr: true} }

// Int builds an integer field.
func Int(k string, v int64) Field { return Field{Key: k, Int: v} }

// Phase markers, mirroring the Chrome trace_event "ph" values.
const (
	PhaseInstant = byte('i')
	PhaseBegin   = byte('B')
	PhaseEnd     = byte('E')
)

// Event is one trace record. At is virtual time. Track names the timeline
// the event belongs to (a host name, a link name, or host/process). ID links
// a PhaseEnd to its PhaseBegin. Trace and Parent, when nonzero, place the
// event in a causal span tree: Trace identifies the tree (one per traced
// job) and Parent is the span ID of the enclosing span. Untraced events
// keep both zero and serialize exactly as they did before tracing existed.
type Event struct {
	At     time.Duration
	Ph     byte
	Cat    string
	Name   string
	Track  string
	ID     uint64
	Trace  uint64
	Parent uint64
	Fields []Field
}

// SpanID identifies an open span returned by Begin.
type SpanID uint64

// TraceContext places work in a causal span tree: Trace identifies the tree
// (minted once per traced job) and Span is the current enclosing span. The
// zero TraceContext means "untraced" — every API accepting a parent treats
// it as plain flat instrumentation, so call sites never need to guard.
// Contexts flow out of band only (process environments, connection
// baggage and simnet datagram records), never in wire bytes, so enabling
// tracing cannot perturb simulated timing.
type TraceContext struct {
	Trace uint64
	Span  SpanID
}

// Traced reports whether the context belongs to a trace tree.
func (tc TraceContext) Traced() bool { return tc.Trace != 0 }

// Observer collects a run's trace and metrics. It belongs to exactly one
// simulation kernel: all appends happen from that kernel's cooperatively
// scheduled code, so no locking is needed and event order is deterministic.
// A nil *Observer is the no-op sink; every method is nil-safe, but hot paths
// should still guard with Enabled (or a direct nil check) so that argument
// construction costs nothing when tracing is off.
type Observer struct {
	events    []Event
	metrics   Metrics
	nextID    uint64
	nextTrace uint64
	// tracedOnly drops every event outside a trace tree (see TracedOnly).
	tracedOnly bool
}

// New creates an enabled observer.
func New() *Observer { return &Observer{} }

// FromEvents wraps an existing event slice (e.g. one parsed back from a
// JSONL export) so the exporters can re-serialize it. The observer takes
// ownership of the slice.
func FromEvents(events []Event) *Observer { return &Observer{events: events} }

// Enabled reports whether events are being recorded.
func (o *Observer) Enabled() bool { return o != nil }

// TracedOnly switches o to traced-only admission: from now on it records
// only events inside a trace tree (BeginTrace roots and everything parented
// under a traced context) and drops flat instrumentation — Emit, Begin/End,
// and EmitCtx or BeginChild with the zero parent — without consuming span
// IDs. A sampled run then retains its samples' trees and nothing else.
// Metrics are unaffected. Nil-safe.
func (o *Observer) TracedOnly() {
	if o != nil {
		o.tracedOnly = true
	}
}

// Admits reports whether an event under tc would be recorded: false on the
// nil observer, and for untraced contexts in traced-only mode. Hot paths
// test it before building field slices, so a refused event costs a branch.
func (o *Observer) Admits(tc TraceContext) bool {
	return o != nil && (!o.tracedOnly || tc.Traced())
}

// Emit records an instant event.
func (o *Observer) Emit(at time.Duration, cat, name, track string, fields ...Field) {
	if o == nil || o.tracedOnly {
		return
	}
	o.events = append(o.events, Event{At: at, Ph: PhaseInstant, Cat: cat, Name: name, Track: track, Fields: fields})
}

// Begin opens a span and returns its ID (0 when disabled or traced-only).
func (o *Observer) Begin(at time.Duration, cat, name, track string, fields ...Field) SpanID {
	if o == nil || o.tracedOnly {
		return 0
	}
	o.nextID++
	id := o.nextID
	o.events = append(o.events, Event{At: at, Ph: PhaseBegin, Cat: cat, Name: name, Track: track, ID: id, Fields: fields})
	return SpanID(id)
}

// End closes the span opened by Begin. Cat, name and track are repeated so
// the end record is self-describing (and so Chrome's flow view pairs them).
func (o *Observer) End(at time.Duration, id SpanID, cat, name, track string, fields ...Field) {
	if o == nil || id == 0 {
		return
	}
	o.events = append(o.events, Event{At: at, Ph: PhaseEnd, Cat: cat, Name: name, Track: track, ID: uint64(id), Fields: fields})
}

// BeginTrace opens the root span of a fresh trace tree: it mints a new trace
// ID from the observer's deterministic counter and returns the context
// children parent under. The zero context comes back when disabled.
func (o *Observer) BeginTrace(at time.Duration, cat, name, track string, fields ...Field) TraceContext {
	if o == nil {
		return TraceContext{}
	}
	o.nextTrace++
	o.nextID++
	id := o.nextID
	o.events = append(o.events, Event{At: at, Ph: PhaseBegin, Cat: cat, Name: name, Track: track,
		ID: id, Trace: o.nextTrace, Fields: fields})
	return TraceContext{Trace: o.nextTrace, Span: SpanID(id)}
}

// BeginChild opens a span causally under parent and returns the child
// context. With the zero parent it degrades to a plain flat span (identical
// bytes to Begin), so instrumentation sites call it unconditionally whether
// or not a trace is flowing through them.
func (o *Observer) BeginChild(at time.Duration, parent TraceContext, cat, name, track string, fields ...Field) TraceContext {
	if !o.Admits(parent) {
		return TraceContext{}
	}
	o.nextID++
	id := o.nextID
	o.events = append(o.events, Event{At: at, Ph: PhaseBegin, Cat: cat, Name: name, Track: track,
		ID: id, Trace: parent.Trace, Parent: uint64(parent.Span), Fields: fields})
	return TraceContext{Trace: parent.Trace, Span: SpanID(id)}
}

// BeginSpan joins parent when it carries a trace and roots a fresh trace
// otherwise: the right call for layers that are a job's entry point when
// invoked directly but a leg of a larger trace when an upstream layer
// (e.g. a gatekeeper relaying an RSL submit) already carries context.
func (o *Observer) BeginSpan(at time.Duration, parent TraceContext, cat, name, track string, fields ...Field) TraceContext {
	if parent.Traced() {
		return o.BeginChild(at, parent, cat, name, track, fields...)
	}
	return o.BeginTrace(at, cat, name, track, fields...)
}

// EndSpan closes a span opened by BeginTrace, BeginChild, or BeginSpan.
func (o *Observer) EndSpan(at time.Duration, tc TraceContext, cat, name, track string, fields ...Field) {
	o.End(at, tc.Span, cat, name, track, fields...)
}

// EmitCtx records an instant event causally tied to parent (a requeue or
// speculation marker inside a job's tree). Zero parent = plain Emit.
func (o *Observer) EmitCtx(at time.Duration, parent TraceContext, cat, name, track string, fields ...Field) {
	if !o.Admits(parent) {
		return
	}
	o.events = append(o.events, Event{At: at, Ph: PhaseInstant, Cat: cat, Name: name, Track: track,
		Trace: parent.Trace, Parent: uint64(parent.Span), Fields: fields})
}

// Events returns the recorded trace in emission order. The slice is owned by
// the observer; callers must not mutate it.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	return o.events
}

// Len reports the number of recorded events.
func (o *Observer) Len() int {
	if o == nil {
		return 0
	}
	return len(o.events)
}

// Metrics returns the observer's metric registry (nil when disabled; the
// registry's constructors are nil-safe and hand back nil instruments, whose
// update methods are no-ops).
func (o *Observer) Metrics() *Metrics {
	if o == nil {
		return nil
	}
	return &o.metrics
}

// carrier is implemented by execution environments that carry an observer
// (simnet.Env does; the real-TCP env does not, so production protocol code
// stays uninstrumented at zero cost).
type carrier interface{ Observer() *Observer }

// From extracts the observer carried by v (typically a transport.Env),
// returning nil — the no-op observer — when v carries none. Protocol layers
// call this once per operation or connection, never per byte.
func From(v interface{}) *Observer {
	if c, ok := v.(carrier); ok {
		return c.Observer()
	}
	return nil
}

// ctxCarrier is implemented by execution environments that carry an ambient
// trace context (simnet.Env does; children inherit it at spawn time).
type ctxCarrier interface{ TraceContext() TraceContext }

// ctxSetter is the writable half of the ambient-context carrier.
type ctxSetter interface{ SetTraceContext(TraceContext) }

// CtxOf extracts the ambient trace context carried by v (typically a
// transport.Env), returning the zero context when v carries none. Like From,
// call it once per operation, never per byte.
func CtxOf(v interface{}) TraceContext {
	if c, ok := v.(ctxCarrier); ok {
		return c.TraceContext()
	}
	return TraceContext{}
}

// SetCtx installs tc as v's ambient trace context so spans opened later in
// the same process (and in processes it spawns) parent under it. It reports
// whether v supports a context.
func SetCtx(v interface{}, tc TraceContext) bool {
	if s, ok := v.(ctxSetter); ok {
		s.SetTraceContext(tc)
		return true
	}
	return false
}

// baggageCarrier is implemented by connections that carry trace baggage
// (simnet conns do: the baggage is shared with the peer endpoint, so a
// server reads the context its dialer attached — out of band, never in the
// simulated byte stream).
type baggageCarrier interface{ TraceBaggage() TraceContext }

// baggageSetter is the writable half of the connection-baggage carrier.
type baggageSetter interface{ SetTraceBaggage(TraceContext) }

// BaggageOf extracts the trace baggage attached to conn, or the zero
// context.
func BaggageOf(conn interface{}) TraceContext {
	if c, ok := conn.(baggageCarrier); ok {
		return c.TraceBaggage()
	}
	return TraceContext{}
}

// SetBaggage attaches tc to conn (and, for simnet conns, to the peer
// endpoint) so the accepting side can parent its spans under the caller's.
// It reports whether conn supports baggage.
func SetBaggage(conn interface{}, tc TraceContext) bool {
	if s, ok := conn.(baggageSetter); ok {
		s.SetTraceBaggage(tc)
		return true
	}
	return false
}
