// Package telemetry serves one invocation's obs.Metrics live: a
// Prometheus text rendering of it (WritePrometheus) and an embedded HTTP
// debug server (`atom -debug-addr`) with /metrics, /healthz and
// net/http/pprof. The server renders the very object the -metrics
// snapshot writes, so a scrape and the snapshot cannot disagree; there
// is no second, process-wide aggregate.
package telemetry

import (
	"fmt"
	"io"
	"strings"

	"atom/internal/obs"
)

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

// WritePrometheus renders m in Prometheus text exposition format
// (version 0.0.4): counters as `atom_<name>_total`, obs log2 histograms
// as native Prometheus histograms with power-of-two `le` bucket bounds,
// then span aggregates as the
// `atom_span_count_total`/`atom_span_seconds_total` labelled families.
// Sections render in that fixed order and each is sorted by name, so
// the output ordering is a deterministic function of the metric set —
// two scrapes differ only in values, never in shape.
func WritePrometheus(w io.Writer, m *obs.Metrics) error {
	var b strings.Builder

	for _, c := range m.Counters() {
		name := MetricName(c.Name) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, c.Value)
	}

	for _, h := range m.Histograms() {
		name := MetricName(h.Name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		// The exposition format wants cumulative buckets; obs buckets
		// are disjoint [Lo,Hi) ranges, so accumulate while walking them
		// in ascending order (Histograms guarantees it).
		cum := uint64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", name, bk.Hi, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", name, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", name, h.Count)
	}

	if stats := m.Spans(); len(stats) > 0 {
		b.WriteString("# TYPE atom_span_count_total counter\n")
		for _, s := range stats {
			fmt.Fprintf(&b, "atom_span_count_total{span=%q} %d\n", s.Name, s.Count)
		}
		b.WriteString("# TYPE atom_span_seconds_total counter\n")
		for _, s := range stats {
			fmt.Fprintf(&b, "atom_span_seconds_total{span=%q} %.9f\n", s.Name, s.Total.Seconds())
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}
