package core_test

// Tests for the layout limits and less-traveled error paths of the
// instrumentation pipeline.

import (
	"strings"
	"testing"

	"atom/internal/aout"
	"atom/internal/cc"
	"atom/internal/core"
	"atom/internal/link"
	"atom/internal/rtl"
	"atom/internal/vm"
)

// buildTightApp links an application with almost no text-data gap, so the
// analysis image cannot fit.
func buildTightApp(t *testing.T) *aout.File {
	t.Helper()
	hdrs, err := rtl.HeadersCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cc.BuildCtx(nil, "app.c", `
int main() { return 0; }
`, hdrs)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := rtl.Crt0Ctx(nil)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := rtl.LibCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Learn the real text size, then relink leaving essentially no gap:
	// the instrumented text alone cannot fit.
	probe, err := link.LinkCtx(nil, link.Config{}, []*aout.File{c0, obj}, lib)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := link.LinkCtx(nil, link.Config{
		TextAddr: 0x100000,
		DataAddr: (0x100000 + uint64(len(probe.Text)) + 31) &^ 15,
	}, []*aout.File{c0, obj}, lib)
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

func TestAnalysisImageMustFitGap(t *testing.T) {
	app := buildTightApp(t)
	tool := passthroughTool(func(q *core.Instrumentation) error {
		if err := q.AddCallProto("Tick()"); err != nil {
			return err
		}
		for _, p := range q.Procs() {
			for b := q.GetFirstBlock(p); b != nil; b = q.GetNextBlock(b) {
				if err := q.AddCallBlock(b, core.BlockBefore, "Tick"); err != nil {
					return err
				}
			}
		}
		return nil
	})
	_, err := core.InstrumentCtx(nil, app, tool, core.Options{})
	if err == nil {
		t.Fatal("instrumenting a gap-less executable succeeded")
	}
	if !strings.Contains(err.Error(), "gap") {
		t.Errorf("error %q does not mention the text-data gap", err)
	}
}

func TestInAnalysisModeRejectsStackArgs(t *testing.T) {
	app := buildApp(t, loopApp)
	tool := core.Tool{
		Name: "wide",
		Analysis: map[string]string{"a.c": `
void Wide(long a, long b, long c, long d, long e, long f, long g) {}
`},
		Instrument: func(q *core.Instrumentation) error {
			if err := q.AddCallProto("Wide(int, int, int, int, int, int, int)"); err != nil {
				return err
			}
			return q.AddCallProgram(core.ProgramBefore, "Wide", 1, 2, 3, 4, 5, 6, 7)
		},
	}
	// Wrapper mode supports stack arguments (the wrapper relays them).
	res, err := core.InstrumentCtx(nil, app, tool, core.Options{Mode: core.SaveWrapper})
	if err != nil {
		t.Fatalf("wrapper mode with 7 args: %v", err)
	}
	if _, err := vm.New(res.Exe, vm.Config{}); err != nil {
		t.Fatal(err)
	}
	// In-analysis mode cannot relocate incoming stack arguments.
	_, err = core.InstrumentCtx(nil, app, tool, core.Options{Mode: core.SaveInAnalysis})
	if err == nil || !strings.Contains(err.Error(), "at most 6") {
		t.Errorf("in-analysis with 7 args: err = %v, want arity rejection", err)
	}
}

func TestStatsPopulated(t *testing.T) {
	app := buildApp(t, loopApp)
	res, err := core.InstrumentCtx(nil, app, branchCountTool(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Calls == 0 || s.InsertedInsts == 0 {
		t.Errorf("stats zeroed: %+v", s)
	}
	if s.InstrText <= s.OrigText {
		t.Errorf("instrumented text %d not larger than original %d", s.InstrText, s.OrigText)
	}
	if s.AnalysisText == 0 || s.AnalysisData == 0 {
		t.Errorf("analysis image sizes zeroed: %+v", s)
	}
	// The final executable's text region covers app text + analysis
	// image, still below the application data segment.
	if uint64(len(res.Exe.Text)) > res.Exe.DataAddr-res.Exe.TextAddr {
		t.Error("final text overruns the data segment")
	}
}

func TestBadAnalysisSourceSurfaced(t *testing.T) {
	app := buildApp(t, loopApp)
	tool := core.Tool{
		Name:     "broken",
		Analysis: map[string]string{"bad.c": `void Tick( { not C at all`},
		Instrument: func(q *core.Instrumentation) error {
			if err := q.AddCallProto("Tick()"); err != nil {
				return err
			}
			return q.AddCallProgram(core.ProgramBefore, "Tick")
		},
	}
	_, err := core.InstrumentCtx(nil, app, tool, core.Options{})
	if err == nil || !strings.Contains(err.Error(), "bad.c") {
		t.Errorf("err = %v, want a diagnostic naming bad.c", err)
	}
}

func TestNoAnalysisRoutines(t *testing.T) {
	app := buildApp(t, loopApp)
	tool := core.Tool{
		Name: "empty",
		Instrument: func(q *core.Instrumentation) error {
			return nil
		},
	}
	if _, err := core.InstrumentCtx(nil, app, tool, core.Options{}); err == nil {
		t.Error("tool without analysis routines accepted")
	}
	tool.Instrument = nil
	tool.Analysis = map[string]string{"a.c": "long x;"}
	if _, err := core.InstrumentCtx(nil, app, tool, core.Options{}); err == nil {
		t.Error("tool without instrumentation routine accepted")
	}
}

// TestUninstrumentedToolRuns: a tool whose instrumentation routine adds
// nothing still produces a working executable (the analysis image is
// linked in but never called).
func TestNoOpInstrumentation(t *testing.T) {
	app := buildApp(t, loopApp)
	ref := runExe(t, app, vm.Config{})
	tool := core.Tool{
		Name:     "noop",
		Analysis: map[string]string{"a.c": `long unused; void Never(void) { unused++; }`},
		Instrument: func(q *core.Instrumentation) error {
			return q.AddCallProto("Never()") // declared, never attached
		},
	}
	res, err := core.InstrumentCtx(nil, app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := runExe(t, res.Exe, vm.Config{})
	if string(m.Stdout) != string(ref.Stdout) {
		t.Errorf("stdout changed: %q vs %q", m.Stdout, ref.Stdout)
	}
	if m.Icount != ref.Icount {
		t.Errorf("icount %d != baseline %d for a no-op instrumentation", m.Icount, ref.Icount)
	}
}
