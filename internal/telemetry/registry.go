// Package telemetry is the live-observability subsystem: a process-wide
// metric registry aggregating every obs context's counters, histograms,
// and span totals (plus lazily-polled gauges), rendered in Prometheus
// text exposition format, and an embedded HTTP debug server (`atom
// -debug-addr`) serving /metrics, a streaming NDJSON event feed,
// net/http/pprof, and /healthz. It is the substrate a future `atom
// serve` daemon mounts verbatim: everything here is long-lived and safe
// for concurrent use, and nothing blocks the instrumentation pipeline —
// metric updates are lock-scoped counters and the event stream drops
// rather than stalls.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"atom/internal/obs"
)

// Registry aggregates the process's telemetry: an event-fed
// obs.Metrics, the aggregate every obs context keeps for itself (attach
// Sink() to each context that should be visible), plus gauges polled at
// render time. All methods are safe for concurrent use.
type Registry struct {
	sink *obs.Metrics

	mu     sync.Mutex
	gauges map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sink: obs.NewMetrics(), gauges: map[string]func() int64{}}
}

// Sink returns the registry's event-fed aggregate. Pass it to obs.New;
// one registry aggregates any number of live and completed contexts.
func (r *Registry) Sink() *obs.Metrics { return r.sink }

// SetGauge registers (or replaces) a lazily-polled gauge: fn is invoked
// on every render, under no registry lock, and must be safe for
// concurrent use. A nil fn removes the gauge.
func (r *Registry) SetGauge(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fn == nil {
		delete(r.gauges, name)
		return
	}
	r.gauges[name] = fn
}

// gaugeSnapshot polls every gauge, returning name-sorted rows.
func (r *Registry) gaugeSnapshot() []obs.Counter {
	r.mu.Lock()
	fns := make(map[string]func() int64, len(r.gauges))
	for n, fn := range r.gauges {
		fns[n] = fn
	}
	r.mu.Unlock()
	out := make([]obs.Counter, 0, len(fns))
	for n, fn := range fns {
		out = append(out, obs.Counter{Name: n, Value: fn()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MetricName maps an obs name onto its Prometheus metric name: the
// "atom." prefix (when present) is dropped, every character outside
// [a-zA-Z0-9_] becomes '_', and the result is rooted under "atom_". So
// "store.image.hit" -> "atom_store_image_hit" and "atom.sites" ->
// "atom_sites". Counters additionally get the "_total" suffix the
// exposition format reserves for monotonic series.
func MetricName(name string) string {
	name = strings.TrimPrefix(name, "atom.")
	var b strings.Builder
	b.WriteString("atom_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): counters as `atom_<name>_total`, obs log2
// histograms as native Prometheus histograms with power-of-two `le`
// bucket bounds, span aggregates as the
// `atom_span_count_total`/`atom_span_seconds_total` labelled families,
// then gauges. Sections render in that fixed order and each is sorted
// by name, so the output ordering is a deterministic function of the
// metric set — two scrapes differ only in values, never in shape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder

	for _, c := range r.sink.Counters() {
		m := MetricName(c.Name) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", m, m, c.Value)
	}

	for _, h := range r.sink.Histograms() {
		m := MetricName(h.Name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", m)
		// The exposition format wants cumulative buckets; obs buckets
		// are disjoint [Lo,Hi) ranges, so accumulate while walking them
		// in ascending order (Histograms guarantees it).
		cum := uint64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", m, bk.Hi, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", m, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", m, h.Count)
	}

	if stats := r.sink.Spans(); len(stats) > 0 {
		b.WriteString("# TYPE atom_span_count_total counter\n")
		for _, s := range stats {
			fmt.Fprintf(&b, "atom_span_count_total{span=%q} %d\n", s.Name, s.Count)
		}
		b.WriteString("# TYPE atom_span_seconds_total counter\n")
		for _, s := range stats {
			fmt.Fprintf(&b, "atom_span_seconds_total{span=%q} %.9f\n", s.Name, s.Total.Seconds())
		}
	}

	for _, g := range r.gaugeSnapshot() {
		m := MetricName(g.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", m, m, g.Value)
	}

	_, err := io.WriteString(w, b.String())
	return err
}
