// Package obs is the observability spine of the instrumentation
// pipeline: hierarchical spans (start/end, parent, attributes) and named
// counters, delivered to pluggable sinks. One *Ctx is threaded explicitly
// through every pipeline stage — compile, assemble, link, plan, tool-image
// build, apply, run — replacing the ad-hoc time.Now() plumbing that used
// to live in internal/figures.
//
// The zero cost of disabled observability is a design requirement: a nil
// *Ctx is valid and means "off". Every method is a no-op on a nil
// receiver, so call sites never branch and the instrumented hot paths pay
// only a nil check.
//
// Metrics is the package's one aggregate: counters, log2 histograms and
// per-name span count and total. Every context tree keeps one for
// itself (Ctx.Metrics), and the -metrics snapshot, the bench JSON and
// the live /metrics endpoint all render that type, so they cannot
// disagree. Other sinks choose what else to keep: TraceSink records
// every span for a Chrome trace_event export, StreamSink broadcasts
// live events, Nop discards everything.
//
// All sinks and counters are safe for concurrent use; the suite fan-out
// ends spans from many goroutines at once.
package obs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Attr is one key/value attribute attached to a span. Values are stored
// as strings so every sink renders them identically and deterministically.
type Attr struct {
	Key string
	Val string
}

// String builds a string attribute.
func String(key, val string) Attr { return Attr{Key: key, Val: val} }

// Int builds an integer attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Val: strconv.FormatInt(val, 10)} }

// Bool builds a boolean attribute.
func Bool(key string, val bool) Attr { return Attr{Key: key, Val: strconv.FormatBool(val)} }

// SpanData is a completed span as delivered to sinks. Start and Dur are
// relative to the owning Ctx's epoch (the New call).
type SpanData struct {
	ID     uint64 // unique within one Ctx tree, starting at 1
	Parent uint64 // 0 for top-level spans
	Track  uint64 // ID of the top-level ancestor (trace-viewer row)
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Attrs  []Attr
}

// Sink receives completed spans. Implementations must be safe for
// concurrent use; SpanEnd is called once per span, at End time.
type Sink interface {
	SpanEnd(sd SpanData)
}

// SpanBeginSink is an optional Sink extension: sinks that also implement
// it are notified when a span OPENS (Dur is zero in the delivered
// SpanData; attributes added later via SetAttr appear only at SpanEnd).
// The live event stream uses this to show work in flight.
type SpanBeginSink interface {
	SpanBegin(sd SpanData)
}

// CounterSink is an optional Sink extension: sinks that also implement
// it receive every Count call as a delta, in call order per goroutine.
// The process-wide registry and the live event stream aggregate these
// without polling the Ctx.
type CounterSink interface {
	CounterAdd(name string, delta int64)
}

// HistogramSink is an optional Sink extension: sinks that also implement
// it receive every Observe call.
type HistogramSink interface {
	HistogramObserve(name string, v int64)
}

// Nop is the do-nothing sink. Observability with only a Nop sink (or,
// cheaper, a nil *Ctx) has near-zero overhead.
type Nop struct{}

// SpanEnd discards the span.
func (Nop) SpanEnd(SpanData) {}

// root is the shared state of one Ctx tree.
type root struct {
	clock  func() time.Duration // monotonic time since the epoch
	m      *Metrics             // the tree's own aggregate, also sinks[0]
	sinks  []Sink
	nextID atomic.Uint64

	// The optional sink extensions, split out once at New so the hot
	// paths (Start, Count, Observe) fan out without type assertions.
	beginSinks   []SpanBeginSink
	counterSinks []CounterSink
	histSinks    []HistogramSink
}

// Ctx is the stage context threaded through the pipeline. It names a
// position in the span tree: Start opens a child span of the current
// position and returns the context for work inside it. A nil *Ctx
// disables observability; all methods are no-ops on nil.
type Ctx struct {
	r      *root
	parent uint64 // current parent span ID (0 = top level)
	track  uint64 // track of the enclosing top-level span (0 = none yet)
}

// New returns a fresh context delivering completed spans to its own
// Metrics aggregate and then to the given sinks. The epoch for span
// timestamps is the moment of the call.
func New(sinks ...Sink) *Ctx {
	start := time.Now()
	return newCtx(func() time.Duration { return time.Since(start) }, sinks...)
}

// newCtx builds a context over an explicit clock; tests inject a fixed
// one to get byte-identical output.
func newCtx(clock func() time.Duration, sinks ...Sink) *Ctx {
	r := &root{clock: clock, m: NewMetrics()}
	r.sinks = append([]Sink{r.m}, sinks...)
	for _, s := range r.sinks {
		if b, ok := s.(SpanBeginSink); ok {
			r.beginSinks = append(r.beginSinks, b)
		}
		if c, ok := s.(CounterSink); ok {
			r.counterSinks = append(r.counterSinks, c)
		}
		if h, ok := s.(HistogramSink); ok {
			r.histSinks = append(r.histSinks, h)
		}
	}
	return &Ctx{r: r}
}

// Enabled reports whether observability is on.
func (c *Ctx) Enabled() bool { return c != nil }

// Metrics returns the aggregate of every span, counter and histogram
// recorded anywhere in the context's tree. Nil on a nil context.
func (c *Ctx) Metrics() *Metrics {
	if c == nil {
		return nil
	}
	return c.r.m
}

// Span is one open span. End completes it and delivers it to the sinks.
// A nil *Span (from a nil Ctx) is valid; SetAttr and End are no-ops.
type Span struct {
	r      *root
	id     uint64
	parent uint64
	track  uint64
	name   string
	start  time.Duration
	attrs  []Attr
	ended  atomic.Bool
}

// Start opens a span named name under the current position and returns
// the child context (for work inside the span) and the span itself.
// Both are nil when c is nil.
func (c *Ctx) Start(name string, attrs ...Attr) (*Ctx, *Span) {
	if c == nil {
		return nil, nil
	}
	id := c.r.nextID.Add(1)
	track := c.track
	if track == 0 {
		track = id
	}
	sp := &Span{
		r:      c.r,
		id:     id,
		parent: c.parent,
		track:  track,
		name:   name,
		start:  c.r.clock(),
		attrs:  attrs,
	}
	for _, b := range c.r.beginSinks {
		b.SpanBegin(SpanData{
			ID:     sp.id,
			Parent: sp.parent,
			Track:  sp.track,
			Name:   sp.name,
			Start:  sp.start,
			Attrs:  sp.attrs,
		})
	}
	return &Ctx{r: c.r, parent: id, track: track}, sp
}

// SetAttr attaches attributes to the span; call before End. Safe on nil.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End completes the span and delivers it to every sink. Ending twice (or
// ending a nil span) is a no-op.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	sd := SpanData{
		ID:     s.id,
		Parent: s.parent,
		Track:  s.track,
		Name:   s.name,
		Start:  s.start,
		Dur:    s.r.clock() - s.start,
		Attrs:  s.attrs,
	}
	for _, sink := range s.r.sinks {
		sink.SpanEnd(sd)
	}
}

// Count adds delta to the named counter. Counters aggregate in the
// tree's own Metrics (and in every other CounterSink), so every stage
// reports through the same context the spans use. Safe on nil and for
// concurrent use.
func (c *Ctx) Count(name string, delta int64) {
	if c == nil {
		return
	}
	for _, s := range c.r.counterSinks {
		s.CounterAdd(name, delta)
	}
}

// Counters returns a snapshot of every counter, sorted by name (so any
// rendering of it is deterministic). Nil on a nil context.
func (c *Ctx) Counters() []Counter {
	if c == nil {
		return nil
	}
	return c.r.m.Counters()
}

// Observe records one value into the named histogram. Histograms have
// fixed log-scale (power-of-two) buckets, so the aggregate — unlike a
// quantile sketch — is a deterministic function of the observed values,
// and identical runs render identical snapshots. Safe on nil and for
// concurrent use.
func (c *Ctx) Observe(name string, v int64) {
	if c == nil {
		return
	}
	for _, s := range c.r.histSinks {
		s.HistogramObserve(name, v)
	}
}

// Histograms returns a snapshot of every histogram, sorted by name, with
// only non-empty buckets listed (in ascending value order). Nil on a nil
// context.
func (c *Ctx) Histograms() []Hist {
	if c == nil {
		return nil
	}
	return c.r.m.Histograms()
}
