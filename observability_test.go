package atom

import (
	"bytes"
	"testing"

	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/rtl"
	"atom/internal/vm"
)

// obsTestSrc is a small application with enough structure (a call, a
// loop, memory traffic) to exercise every pipeline stage.
const obsTestSrc = `
#include <stdio.h>
int sum(int *a, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s = s + a[i];
	return s;
}
int main() {
	int a[8];
	for (int i = 0; i < 8; i++) a[i] = i * 3;
	printf("%d\n", sum(a, 8));
	return 0;
}
`

func buildObsApp(t *testing.T) *Executable {
	t.Helper()
	app, err := BuildProgram(map[string]string{"obsapp.c": obsTestSrc})
	if err != nil {
		t.Fatalf("BuildProgram: %v", err)
	}
	return app
}

// spanIndex makes parent-chain queries over a recorded trace.
type spanIndex struct {
	byID map[uint64]obs.SpanData
}

func indexSpans(spans []obs.SpanData) spanIndex {
	idx := spanIndex{byID: map[uint64]obs.SpanData{}}
	for _, sd := range spans {
		idx.byID[sd.ID] = sd
	}
	return idx
}

// hasAncestor reports whether the span has an ancestor with the name.
func (x spanIndex) hasAncestor(sd obs.SpanData, name string) bool {
	for p := sd.Parent; p != 0; {
		a, ok := x.byID[p]
		if !ok {
			return false
		}
		if a.Name == name {
			return true
		}
		p = a.Parent
	}
	return false
}

func names(spans []obs.SpanData) map[string]int {
	m := map[string]int{}
	for _, sd := range spans {
		m[sd.Name]++
	}
	return m
}

func attrVal(sd obs.SpanData, key string) string {
	for _, a := range sd.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TestObservabilitySpanTree checks the span hierarchy a cold and a warm
// instrumentation run produce: on a cold run the analysis-routine
// compiles nest inside the tool-image build, and on a warm run the image
// build is absent entirely while the per-program apply still happens.
func TestObservabilitySpanTree(t *testing.T) {
	app := buildObsApp(t)
	tool, err := ToolByName("prof")
	if err != nil {
		t.Fatal(err)
	}
	core.ResetImageCache(build.ScopeMemory)
	rtl.ResetObjectCache(build.ScopeMemory)

	cold := &obs.TraceSink{}
	ctx := obs.New(cold)
	if _, err := core.InstrumentCtx(ctx, app, tool, Options{}); err != nil {
		t.Fatalf("cold InstrumentCtx: %v", err)
	}
	spans := cold.Spans()
	idx := indexSpans(spans)
	have := names(spans)
	for _, want := range []string{"atom.plan", "atom.image.build", "atom.apply", "cache.get",
		"cc.compile", "cc.func", "asm.assemble", "link.link", "link.rebase",
		"om.build", "om.summary", "om.layout", "om.finish", "rtl.objects"} {
		if have[want] == 0 {
			t.Errorf("cold trace: no %q span (have %v)", want, have)
		}
	}
	// Compile spans from the analysis-routine build nest inside the image
	// build; the apply stage is disjoint from it.
	foundNested := false
	for _, sd := range spans {
		switch sd.Name {
		case "cc.compile":
			if idx.hasAncestor(sd, "rtl.objects") && idx.hasAncestor(sd, "atom.image.build") {
				foundNested = true
			}
		case "atom.apply":
			if idx.hasAncestor(sd, "atom.image.build") {
				t.Errorf("atom.apply nested inside atom.image.build")
			}
		case "atom.image.build":
			if out := attrVal(idx.byID[sd.Parent], "outcome"); out != "miss" {
				t.Errorf("cold image build under cache.get outcome %q, want miss", out)
			}
		}
	}
	if !foundNested {
		t.Errorf("no cc.compile span nested under rtl.objects and atom.image.build")
	}

	// Warm run: a fresh context against warm caches.
	warm := &obs.TraceSink{}
	wctx := obs.New(warm)
	if _, err := core.InstrumentCtx(wctx, app, tool, Options{}); err != nil {
		t.Fatalf("warm InstrumentCtx: %v", err)
	}
	wspans := warm.Spans()
	whave := names(wspans)
	if whave["atom.image.build"] != 0 {
		t.Errorf("warm trace: image rebuilt (%d atom.image.build spans)", whave["atom.image.build"])
	}
	if whave["atom.apply"] == 0 {
		t.Errorf("warm trace: no atom.apply span")
	}
	hit := false
	for _, sd := range wspans {
		if sd.Name == "cache.get" && attrVal(sd, "outcome") == "hit" {
			hit = true
		}
	}
	if !hit {
		t.Errorf("warm trace: no cache.get span with outcome=hit")
	}
}

// TestObservabilityCounters checks that pipeline and VM counters flow
// into the context, and that two identical warm runs render their
// counters byte-identically (the determinism contract -metrics relies
// on).
func TestObservabilityCounters(t *testing.T) {
	app := buildObsApp(t)
	tool, err := ToolByName("prof")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Instrument(app, tool, Options{}); err != nil { // warm all caches
		t.Fatal(err)
	}

	render := func() ([]byte, uint64) {
		ctx := obs.New()
		res, err := core.InstrumentCtx(ctx, app, tool, Options{})
		if err != nil {
			t.Fatalf("InstrumentCtx: %v", err)
		}
		m, err := vm.New(res.Exe, vm.Config{Obs: ctx})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		counters := ctx.Counters()
		get := func(name string) int64 {
			for _, c := range counters {
				if c.Name == name {
					return c.Value
				}
			}
			return -1
		}
		if got := get("vm.icount"); got != int64(m.Icount) {
			t.Errorf("vm.icount counter = %d, machine Icount = %d", got, m.Icount)
		}
		if get("atom.sites") <= 0 {
			t.Errorf("atom.sites counter = %d, want > 0", get("atom.sites"))
		}
		if get("atom.bytes_marshalled") <= 0 {
			t.Errorf("atom.bytes_marshalled counter = %d, want > 0", get("atom.bytes_marshalled"))
		}
		if get("store.image.hit") <= 0 {
			t.Errorf("store.image.hit counter = %d on a warm run, want > 0", get("store.image.hit"))
		}
		if get("vm.syscalls") <= 0 {
			t.Errorf("vm.syscalls counter = %d, want > 0", get("vm.syscalls"))
		}
		return []byte(obs.FormatCounters(counters)), m.Icount
	}

	out1, ic1 := render()
	out2, ic2 := render()
	if ic1 != ic2 {
		t.Fatalf("icount differs across identical runs: %d vs %d", ic1, ic2)
	}
	if !bytes.Equal(out1, out2) {
		t.Errorf("counter rendering differs across identical warm runs:\n--- run 1\n%s--- run 2\n%s", out1, out2)
	}
}

// TestFailSoftFlush instruments a batch where one application is
// invalid and requires every observability artifact to still be
// complete and well-formed: the failure must neither lose the good
// application's result nor corrupt the trace or metrics streams.
func TestFailSoftFlush(t *testing.T) {
	good, err := rtl.BuildProgram("good.c", obsTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Executable{} // not linked: instrumentation must reject it

	ts := &obs.TraceSink{}
	ctx := obs.New(ts)

	tool, err := ToolByName("branch")
	if err != nil {
		t.Fatal(err)
	}
	results, errs := core.InstrumentMany(ctx, []*Executable{good, bad}, nil, core.Tool(tool), core.Options{}, 2, nil)
	if errs[0] != nil || results[0] == nil {
		t.Fatalf("good app failed alongside bad one: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("invalid app instrumented without error")
	}

	// The trace must marshal and parse even though a span subtree ended
	// in failure.
	data, err := ts.MarshalTrace()
	if err != nil {
		t.Fatalf("trace flush after failure: %v", err)
	}
	events, err := obs.ParseTrace(data)
	if err != nil {
		t.Fatalf("trace invalid after failure: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace empty after failure")
	}
	// Both instrument attempts must appear: fail-soft means the failing
	// application is traced too, not dropped.
	instruments := 0
	for _, e := range events {
		if e.Name == "atom.instrument" {
			instruments++
		}
	}
	if instruments != 2 {
		t.Errorf("%d atom.instrument spans, want 2 (one per app, including the failure)", instruments)
	}

	// The metrics snapshot must render, and the apply-time histogram
	// must have recorded the successful application.
	var buf bytes.Buffer
	if _, err := ctx.Metrics().WriteTo(&buf); err != nil {
		t.Fatalf("metrics flush after failure: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("metrics snapshot empty after failure")
	}
	found := false
	for _, h := range ctx.Histograms() {
		if h.Name == "atom.apply_us" && h.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("atom.apply_us histogram missing; histograms: %+v", ctx.Histograms())
	}

	// And the VM run of the surviving result still behaves.
	m, err := vm.New(results[0].Exe, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(m.Stdout, []byte("84")) {
		t.Errorf("instrumented app output wrong: %q", m.Stdout)
	}
}
