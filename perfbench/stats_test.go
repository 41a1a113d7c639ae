package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 4}, 2},
		{[]float64{2, 8, 4}, 4},
		{[]float64{0.5, 2}, 1},
	} {
		if got := geomean(c.in); !near(got, c.want) {
			t.Errorf("geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{7, 1, 3, 9, 5, 2, 8, 4, 10, 6}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median(xs[:5]); got != 5 {
		t.Errorf("median of odd count = %v, want 5", got)
	}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 7 {
		t.Error("percentile reordered its input")
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{1000, 99.9, 99},   // 99.9 leaves 1, 99 leaves 10
		{1000, 95, 95},     // capped by the limit
		{220, 95, 95},      // 209 of 220: 11 beyond
		{200, 95, 95},      // exactly 10 beyond
		{199, 95, 90},      // 95 would leave 9
		{100, 95, 90},      // 95 leaves 5, 90 leaves 10
		{40, 95, 75},       // 90 leaves 4, 75 leaves 10
		{20, 95, 50},       // only the median leaves 10
		{5, 95, 50},        // too few for any tail: the median
		{0, 95, 50},        // no samples
		{10000, 100, 99.9}, // 99.9 leaves 10
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name string
		kids []interval
		want float64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{0, 10}, {90, 100}}, 80},
		{"nested", []interval{{10, 50}, {20, 30}}, 60},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"identical", []interval{{10, 20}, {10, 20}}, 90},
		{"chain", []interval{{60, 70}, {10, 30}, {25, 45}, {40, 50}}, 50},
		{"sticking out", []interval{{-10, 10}, {95, 120}}, 85},
		{"outside", []interval{{-20, -10}, {100, 110}}, 100},
		{"covering", []interval{{-5, 105}}, 0},
	} {
		if got := selfTime(parent, c.kids); !near(got, c.want) {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// computeSelf subtracts only direct children: a grandchild's time is
// already inside its parent's interval.
func TestComputeSelfTree(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, Dur: 50},
		{ID: 3, Parent: 2, Name: "a1", Start: 20, Dur: 30},
		{ID: 4, Parent: 1, Name: "b", Start: 50, Dur: 30}, // overlaps a
		{ID: 5, Parent: 3, Name: "a1x", Start: 25, Dur: 5},
	}
	computeSelf(spans)
	for i, want := range []float64{30, 20, 25, 30, 5} {
		if !near(spans[i].Self, want) {
			t.Errorf("%s: self = %v, want %v", spans[i].Name, spans[i].Self, want)
		}
	}
}

// layer sums program spans' self time per name over one kind of
// operation, and counts those operations.
func TestTracerLayer(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Op: 1, Name: opInstrument, Bench: true, Dur: 10},
		{ID: 2, Parent: 1, Op: 1, Name: "atom.plan", Dur: 4},
		{ID: 3, Op: 2, Name: opImageBuild, Bench: true, Dur: 10},
		{ID: 4, Parent: 3, Op: 2, Name: "atom.plan", Dur: 1},
		{ID: 5, Op: 3, Name: opInstrument, Bench: true, Dur: 10},
		{ID: 6, Parent: 5, Op: 3, Name: "atom.plan", Dur: 2},
	}}
	computeSelf(tr.spans)
	n, self := tr.layer(opInstrument)
	if n != 2 || self["atom.plan"] != 6 || self[opInstrument] != 0 {
		t.Errorf("layer = %d, %v; want 2 operations, atom.plan 6 and no benchmark spans", n, self)
	}
}

func TestFailFracCounting(t *testing.T) {
	var tl tally
	if tl.failFrac() != 0 {
		t.Error("fail_frac of nothing attempted is not 0")
	}
	bad := errors.New("mismatch")
	for i, err := range []error{nil, bad, nil, nil, bad, nil, nil, nil} {
		if got := tl.count(err); got != (err == nil) {
			t.Errorf("count #%d reported %v", i, got)
		}
	}
	if tl.attempted != 8 || tl.failed != 2 || tl.failFrac() != 0.25 {
		t.Errorf("tally = %+v, fail_frac %v; want 8 attempted, 2 failed, 0.25", tl, tl.failFrac())
	}
}

// A failing operation is counted and logged, and the run goes on.
func TestBenchOkCountsFailures(t *testing.T) {
	var log nopWriter
	b := &bench{log: &log}
	b.ok(nil, "a")
	b.ok(errors.New("vm: fault"), "running branch/queens")
	b.ok(nil, "b")
	if b.ops.attempted != 3 || b.ops.failed != 1 || len(b.failures) != 1 || log.n == 0 {
		t.Errorf("ops %+v, failures %q, logged %d bytes", b.ops, b.failures, log.n)
	}
}

type nopWriter struct{ n int }

func (w *nopWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func TestCompareRuns(t *testing.T) {
	ref := &runOut{exit: 0, stdout: []byte("ok\n"), files: map[string][]byte{"app.out": []byte("x")}}
	good := func() *runOut {
		return &runOut{exit: 0, stdout: []byte("ok\n"), files: map[string][]byte{"app.out": []byte("x"), "branch.out": []byte("report")}}
	}
	if err := compareRuns(ref, good(), "branch"); err != nil {
		t.Errorf("matching run rejected: %v", err)
	}
	for name, mutate := range map[string]func(*runOut){
		"exit code":      func(r *runOut) { r.exit = 1 },
		"stdout":         func(r *runOut) { r.stdout = []byte("ok?\n") },
		"app file":       func(r *runOut) { r.files["app.out"] = []byte("y") },
		"missing file":   func(r *runOut) { delete(r.files, "app.out") },
		"extra file":     func(r *runOut) { r.files["junk"] = nil },
		"empty report":   func(r *runOut) { r.files["branch.out"] = nil },
		"missing report": func(r *runOut) { delete(r.files, "branch.out") },
	} {
		r := good()
		mutate(r)
		if compareRuns(ref, r, "branch") == nil {
			t.Errorf("%s: mismatch not reported", name)
		}
	}
}

func TestDeterministicDiffs(t *testing.T) {
	mk := func() *result {
		return &result{
			EndToEnd: map[string]float64{"text_ratio": 1.5, "icount_ratio": 2, "setup_s": 1},
			PerLayer: map[string]float64{"core.sites": 10, "core.regs_per_site": 1.25},
			Programs: []progRow{{Program: "queens", Icount: 100}},
			Pairs:    []pairRow{{Tool: "branch", Program: "queens", Icount: 300}, {Tool: "cache", Program: "queens"}},
		}
	}
	a, b := mk(), mk()
	b.EndToEnd["setup_s"] = 2 // a timing, not a deterministic field
	if d := deterministicDiffs(a, b); len(d) != 0 {
		t.Errorf("equal fields differ: %v", d)
	}
	b.Pairs[0].Icount = 301
	b.Pairs[1].Icount = 900 // ran in b only
	b.PerLayer["core.regs_per_site"] = 1.5
	if d := deterministicDiffs(a, b); len(d) != 3 {
		t.Errorf("got %d differences, want 3: %v", len(d), d)
	}
}

// A run whose calibration loop takes twice the reference time on median
// reports its times halved and its rates doubled; ratios stay.
func TestAtReferenceSpeed(t *testing.T) {
	p := &speedProbe{calib: []float64{2 * refCalibMS, refCalibMS / 4, 2 * refCalibMS}}
	scale := p.scale()
	if !near(scale, 0.5) {
		t.Fatalf("scale = %v, want 0.5", scale)
	}
	for _, c := range []struct {
		v    float64
		unit string
		want float64
	}{{10, "ms", 5}, {2, "s", 1}, {100, "Minst/s", 200}, {3, "ratio", 3}, {7, "count", 7}} {
		if got := atReferenceSpeed(c.v, c.unit, scale); !near(got, c.want) {
			t.Errorf("atReferenceSpeed(%v, %q) = %v, want %v", c.v, c.unit, got, c.want)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs())
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not defined", w.Name)
		}
	}
}
