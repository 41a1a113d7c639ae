package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metrics is the one metric aggregate: named counters, log2 histograms,
// and per-name span count and total, all under one lock. Every Ctx tree
// feeds its own (Ctx.Metrics), and nothing else feeds one. Totals only
// ever grow (for non-negative counter deltas), the monotonicity a
// Prometheus counter requires.
//
// All methods are safe for concurrent use, so a scrape handler may read
// it while the pipeline writes.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*histData
	spans    map[string]SpanStat
}

// newMetrics returns an empty aggregate.
func newMetrics() *Metrics {
	return &Metrics{
		counters: map[string]int64{},
		hists:    map[string]*histData{},
		spans:    map[string]SpanStat{},
	}
}

// spanEnd folds the completed span into its per-name count and total.
func (m *Metrics) spanEnd(sd SpanData) {
	m.mu.Lock()
	s := m.spans[sd.Name]
	s.Name = sd.Name
	s.Count++
	s.Total += sd.Dur
	m.spans[sd.Name] = s
	m.mu.Unlock()
}

// add adds delta to the named counter.
func (m *Metrics) add(name string, delta int64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// observe folds one value into the named histogram.
func (m *Metrics) observe(name string, v int64) {
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &histData{}
		m.hists[name] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// Counter is one named counter value.
type Counter struct {
	Name  string
	Value int64
}

// Counters returns a snapshot of every counter, sorted by name.
func (m *Metrics) Counters() []Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Counter, 0, len(m.counters))
	for _, n := range sortedKeys(m.counters) {
		out = append(out, Counter{Name: n, Value: m.counters[n]})
	}
	return out
}

// Counter returns the current value of one named counter.
func (m *Metrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Histograms returns a snapshot of every histogram, sorted by name, with
// only non-empty buckets listed (in ascending value order).
func (m *Metrics) Histograms() []Hist {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Hist, 0, len(m.hists))
	for _, n := range sortedKeys(m.hists) {
		out = append(out, m.hists[n].snapshot(n))
	}
	return out
}

// SpanStat is one per-name span aggregate.
type SpanStat struct {
	Name  string
	Count int64
	Total time.Duration
}

// Spans returns the per-name span aggregates sorted by name.
func (m *Metrics) Spans() []SpanStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SpanStat, 0, len(m.spans))
	for _, n := range sortedKeys(m.spans) {
		out = append(out, m.spans[n])
	}
	return out
}

// sortedKeys returns a map's keys in ascending order, so no rendering
// ever leaks map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteTo renders the plain-text snapshot behind `cmd/atom -metrics`:
// span aggregates, counters, then histograms (omitted when there are
// none). Every section is sorted by name, so the output is a
// deterministic function of the aggregated data.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	b.WriteString("# spans: name count total_ms\n")
	for _, s := range m.Spans() {
		fmt.Fprintf(&b, "%-32s %8d %12.3f\n", s.Name, s.Count, float64(s.Total.Nanoseconds())/1e6)
	}
	b.WriteString(FormatCounters(m.Counters()))
	if hists := m.Histograms(); len(hists) > 0 {
		b.WriteString(formatHistograms(hists))
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// FormatCounters renders counters as text, one per line. The input is
// already sorted (Counters guarantees it), so identical runs produce
// byte-identical output — the property the determinism tests pin down.
func FormatCounters(counters []Counter) string {
	var b strings.Builder
	b.WriteString("# counters: name value\n")
	for _, c := range counters {
		fmt.Fprintf(&b, "%-32s %12d\n", c.Name, c.Value)
	}
	return b.String()
}

// formatHistograms renders histogram snapshots as text: one header line
// per histogram followed by its non-empty buckets. The input is already
// sorted (Histograms guarantees it) and bucket boundaries are fixed,
// so identical observations produce byte-identical output.
func formatHistograms(hists []Hist) string {
	var b strings.Builder
	b.WriteString("# histograms: name count sum min max\n")
	for _, h := range hists {
		fmt.Fprintf(&b, "%-32s %12d %12d %12d %12d\n", h.Name, h.Count, h.Sum, h.Min, h.Max)
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "  %-30s %12d\n", fmt.Sprintf("[%d,%d)", bk.Lo, bk.Hi), bk.Count)
		}
	}
	return b.String()
}

// numHistBuckets is the fixed bucket count of every histogram: bucket 0
// holds values <= 0 (range [0,1)), bucket b >= 1 holds values in
// [2^(b-1), 2^b). A positive int64 has at most 63 significant bits, so 64
// buckets cover the full range.
const numHistBuckets = 64

// histData is the live (locked) state of one histogram.
type histData struct {
	buckets  [numHistBuckets]uint64
	count    uint64
	sum      int64
	min, max int64
}

// histBucketOf returns the bucket index for a value.
func histBucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// observe folds one value into the histogram. The caller holds the lock
// guarding h.
func (h *histData) observe(v int64) {
	h.buckets[histBucketOf(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
}

// HistBucket is one non-empty bucket of a histogram snapshot: Count
// observations fell in the value range [Lo, Hi).
type HistBucket struct {
	Lo, Hi uint64
	Count  uint64
}

// Hist is a snapshot of one named histogram.
type Hist struct {
	Name     string
	Count    uint64
	Sum      int64
	Min, Max int64 // observed extremes (both zero when Count is 0)
	Buckets  []HistBucket
}

// snapshot renders the histogram's current state with only non-empty
// buckets listed, in ascending value order. The caller holds the lock
// guarding h.
func (h *histData) snapshot(name string) Hist {
	s := Hist{Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for b, cnt := range h.buckets {
		if cnt == 0 {
			continue
		}
		lo, hi := uint64(0), uint64(1)
		if b > 0 {
			lo, hi = uint64(1)<<(b-1), uint64(1)<<b
		}
		s.Buckets = append(s.Buckets, HistBucket{Lo: lo, Hi: hi, Count: cnt})
	}
	return s
}
