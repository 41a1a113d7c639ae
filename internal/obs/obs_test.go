package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a clock that advances by step on every reading, so
// span timestamps are a deterministic function of call order.
func fixedClock(step time.Duration) func() time.Duration {
	var t time.Duration
	return func() time.Duration {
		t += step
		return t
	}
}

// TestSpanNesting drives a table of span-tree shapes and checks the
// parent/track bookkeeping the trace export relies on.
func TestSpanNesting(t *testing.T) {
	cases := []struct {
		name string
		run  func(c *Ctx)
		want map[string]string // span name -> parent span name ("" = root)
	}{
		{
			name: "flat",
			run: func(c *Ctx) {
				_, a := c.Start("a")
				a.End()
				_, b := c.Start("b")
				b.End()
			},
			want: map[string]string{"a": "", "b": ""},
		},
		{
			name: "nested",
			run: func(c *Ctx) {
				cc, a := c.Start("a")
				ccc, b := cc.Start("b")
				_, d := ccc.Start("c")
				d.End()
				b.End()
				a.End()
			},
			want: map[string]string{"a": "", "b": "a", "c": "b"},
		},
		{
			name: "siblings-under-parent",
			run: func(c *Ctx) {
				cc, p := c.Start("p")
				_, x := cc.Start("x")
				x.End()
				_, y := cc.Start("y")
				y.End()
				p.End()
			},
			want: map[string]string{"p": "", "x": "p", "y": "p"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := &TraceSink{}
			c := newCtx(fixedClock(time.Millisecond), ts)
			tc.run(c)
			spans := ts.Spans()
			byID := map[uint64]SpanData{}
			for _, s := range spans {
				byID[s.ID] = s
			}
			got := map[string]string{}
			for _, s := range spans {
				parent := ""
				if s.Parent != 0 {
					parent = byID[s.Parent].Name
				}
				got[s.Name] = parent
				// Track must always be the top-level ancestor.
				top := s
				for top.Parent != 0 {
					top = byID[top.Parent]
				}
				if s.Track != top.ID {
					t.Errorf("span %s: track %d, want top-level ancestor %d", s.Name, s.Track, top.ID)
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d spans %v, want %d", len(got), got, len(tc.want))
			}
			for name, parent := range tc.want {
				if got[name] != parent {
					t.Errorf("span %s: parent %q, want %q", name, got[name], parent)
				}
			}
		})
	}
}

// TestSpanTiming checks that durations are measured between Start and End
// and that double-End is idempotent.
func TestSpanTiming(t *testing.T) {
	ts := &TraceSink{}
	c := newCtx(fixedClock(time.Millisecond), ts)
	_, sp := c.Start("work") // start at 1ms
	sp.End()                 // end at 2ms
	sp.End()                 // ignored
	spans := ts.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1 (double End must not deliver twice)", len(spans))
	}
	if spans[0].Start != time.Millisecond || spans[0].Dur != time.Millisecond {
		t.Errorf("span start %v dur %v, want 1ms and 1ms", spans[0].Start, spans[0].Dur)
	}
}

// TestCounters exercises counter accounting, including concurrent adds.
func TestCounters(t *testing.T) {
	cases := []struct {
		name string
		add  []Counter // sequence of (name, delta) adds
		want []Counter // expected sorted snapshot
	}{
		{
			name: "accumulate",
			add:  []Counter{{"a", 1}, {"b", 10}, {"a", 2}},
			want: []Counter{{"a", 3}, {"b", 10}},
		},
		{
			name: "sorted-output",
			add:  []Counter{{"z", 1}, {"m", 1}, {"a", 1}},
			want: []Counter{{"a", 1}, {"m", 1}, {"z", 1}},
		},
		{
			name: "negative-deltas",
			add:  []Counter{{"n", 5}, {"n", -2}},
			want: []Counter{{"n", 3}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			for _, a := range tc.add {
				c.Count(a.Name, a.Value)
			}
			got := c.Counters()
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("counter %d: got %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}

	t.Run("concurrent", func(t *testing.T) {
		c := New()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					c.Count("shared", 1)
				}
			}()
		}
		wg.Wait()
		if got := c.Counters(); len(got) != 1 || got[0].Value != 8000 {
			t.Errorf("got %v, want [{shared 8000}]", got)
		}
	})
}

// TestNilCtx checks the no-op contract: every operation on a nil context
// (and the nil spans it hands out) must be safe.
func TestNilCtx(t *testing.T) {
	var c *Ctx
	if c.Enabled() {
		t.Error("nil ctx reports enabled")
	}
	cc, sp := c.Start("x", String("k", "v"))
	if cc != nil || sp != nil {
		t.Fatal("nil ctx Start must return nils")
	}
	sp.SetAttr(Int("n", 1))
	sp.End()
	c.Count("n", 1)
	if got := c.Counters(); got != nil {
		t.Errorf("nil ctx counters = %v, want nil", got)
	}
}

// BenchmarkDisabled measures the disabled-observability overhead the
// pipeline pays on every instrumented call site.
func BenchmarkDisabled(b *testing.B) {
	var c *Ctx
	for i := 0; i < b.N; i++ {
		cc, sp := c.Start("x")
		cc.Count("n", 1)
		sp.End()
	}
}

// TestTraceRoundTrip exports a trace and parses it back.
func TestTraceRoundTrip(t *testing.T) {
	ts := &TraceSink{}
	c := newCtx(fixedClock(time.Millisecond), ts)
	cc, outer := c.Start("outer", String("tool", "cache"))
	_, inner := cc.Start("inner", Int("sites", 42))
	inner.End()
	outer.End()

	data, err := ts.MarshalTrace()
	if err != nil {
		t.Fatal(err)
	}
	evs, err := ParseTrace(data)
	if err != nil {
		t.Fatalf("ParseTrace: %v\n%s", err, data)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Name != "outer" || evs[1].Name != "inner" {
		t.Errorf("event order %q, %q; want outer, inner (start order)", evs[0].Name, evs[1].Name)
	}
	if evs[0].Args["tool"] != "cache" || evs[1].Args["sites"] != "42" {
		t.Errorf("args not preserved: %v %v", evs[0].Args, evs[1].Args)
	}
	if _, err := ParseTrace([]byte("not json")); err == nil {
		t.Error("ParseTrace accepted garbage")
	}
	if _, err := ParseTrace([]byte(`{"traceEvents":[{"ph":"X"}]}`)); err == nil {
		t.Error("ParseTrace accepted a nameless event")
	}
}

// TestDeterministicEmission replays identical span and counter streams
// into fresh sinks and requires byte-identical rendered output — the
// property that makes metric files diffable across runs.
func TestDeterministicEmission(t *testing.T) {
	emit := func() (trace, metrics, counters []byte) {
		ts := &TraceSink{}
		c := newCtx(fixedClock(time.Millisecond), ts)
		// Span names deliberately out of sorted order.
		for _, name := range []string{"zeta", "alpha", "mid", "alpha"} {
			_, sp := c.Start(name, String("k", name))
			sp.End()
		}
		c.Count("z.last", 3)
		c.Count("a.first", 1)
		c.Count("a.first", 1)
		c.Observe("h.depth", 3)
		c.Observe("h.depth", 900)
		tr, err := ts.MarshalTrace()
		if err != nil {
			t.Fatal(err)
		}
		var mbuf bytes.Buffer
		if _, err := c.Metrics().WriteTo(&mbuf); err != nil {
			t.Fatal(err)
		}
		return tr, mbuf.Bytes(), []byte(FormatCounters(c.Counters()))
	}
	t1, m1, c1 := emit()
	t2, m2, c2 := emit()
	if !bytes.Equal(t1, t2) {
		t.Errorf("trace output differs between identical runs:\n%s\n--\n%s", t1, t2)
	}
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics output differs between identical runs:\n%s\n--\n%s", m1, m2)
	}
	if !bytes.Equal(c1, c2) {
		t.Errorf("counter output differs between identical runs:\n%s\n--\n%s", c1, c2)
	}
	// Counters must render in sorted order regardless of insertion order.
	want := "# counters: name value\n" +
		fmt.Sprintf("%-32s %12d\n", "a.first", 2) +
		fmt.Sprintf("%-32s %12d\n", "z.last", 3)
	if string(c1) != want {
		t.Errorf("counter rendering:\n%q\nwant:\n%q", c1, want)
	}
}

// TestHistogramBuckets checks the log2 bucketing: each observation lands
// in the [2^(b-1), 2^b) bucket, non-positive values in [0, 1).
func TestHistogramBuckets(t *testing.T) {
	c := New(Nop{})
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, 7, 8, 1024, 1025} {
		c.Observe("lat", v)
	}
	hists := c.Histograms()
	if len(hists) != 1 {
		t.Fatalf("got %d histograms, want 1", len(hists))
	}
	h := hists[0]
	if h.Name != "lat" || h.Count != 10 {
		t.Fatalf("got %q count=%d, want lat count=10", h.Name, h.Count)
	}
	if h.Min != -5 || h.Max != 1025 {
		t.Errorf("min/max = %d/%d, want -5/1025", h.Min, h.Max)
	}
	if h.Sum != -5+0+1+2+3+4+7+8+1024+1025 {
		t.Errorf("sum = %d", h.Sum)
	}
	want := map[[2]uint64]uint64{
		{0, 1}:       2, // -5, 0
		{1, 2}:       1, // 1
		{2, 4}:       2, // 2, 3
		{4, 8}:       2, // 4, 7
		{8, 16}:      1, // 8
		{1024, 2048}: 2, // 1024, 1025
	}
	if len(h.Buckets) != len(want) {
		t.Fatalf("got %d non-empty buckets, want %d: %+v", len(h.Buckets), len(want), h.Buckets)
	}
	for _, b := range h.Buckets {
		if want[[2]uint64{b.Lo, b.Hi}] != b.Count {
			t.Errorf("bucket [%d,%d) count=%d, want %d", b.Lo, b.Hi, b.Count, want[[2]uint64{b.Lo, b.Hi}])
		}
	}
}

// TestHistogramNilAndOrder: nil contexts swallow observations, and
// snapshots come back sorted by name for deterministic rendering.
func TestHistogramNilAndOrder(t *testing.T) {
	var nilCtx *Ctx
	nilCtx.Observe("x", 1) // must not panic
	if got := nilCtx.Histograms(); got != nil {
		t.Errorf("nil ctx histograms = %v, want nil", got)
	}

	c := New(Nop{})
	c.Observe("zeta", 1)
	c.Observe("alpha", 2)
	c.Observe("mid", 3)
	hists := c.Histograms()
	var names []string
	for _, h := range hists {
		names = append(names, h.Name)
	}
	if fmt.Sprint(names) != "[alpha mid zeta]" {
		t.Errorf("histogram order = %v, want sorted by name", names)
	}
	// Child contexts aggregate into the root, like counters do.
	child, sp := c.Start("phase")
	child.Observe("alpha", 10)
	sp.End()
	for _, h := range c.Histograms() {
		if h.Name == "alpha" && h.Count != 2 {
			t.Errorf("alpha count = %d after child observe, want 2", h.Count)
		}
	}
}
