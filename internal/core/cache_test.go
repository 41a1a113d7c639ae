package core_test

import (
	"bytes"
	"strings"
	"testing"

	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/obs"
)

const cacheAppA = `
#include <stdio.h>
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 50; i++) s = s + i;
	printf("%d\n", s);
	return 0;
}
`

const cacheAppB = `
#include <stdio.h>
int main() {
	int i, p;
	p = 1;
	for (i = 1; i < 12; i++) p = p * i;
	printf("%d\n", p);
	return 0;
}
`

// TestToolImageCacheReuse is the acceptance test for the build-once cost
// model: instrumenting any number of programs with one tool compiles and
// links the analysis image exactly once; changing the sources, the
// options, or the tool forces exactly one more build.
func TestToolImageCacheReuse(t *testing.T) {
	core.ResetImageCache(build.ScopeMemory)
	tool := branchCountTool()
	appA := buildApp(t, cacheAppA)
	appB := buildApp(t, cacheAppB)

	if _, err := core.InstrumentCtx(nil, appA, tool, core.Options{}); err != nil {
		t.Fatal(err)
	}
	s := core.ImageCacheStats()
	if s.Builds != 1 || s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first program: stats = %+v, want 1 miss, 1 build", s)
	}

	if _, err := core.InstrumentCtx(nil, appB, tool, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.InstrumentCtx(nil, appA, tool, core.Options{}); err != nil {
		t.Fatal(err)
	}
	s = core.ImageCacheStats()
	if s.Builds != 1 {
		t.Fatalf("analysis image rebuilt for further programs: stats = %+v", s)
	}
	if s.Hits != 2 {
		t.Fatalf("further programs did not hit the cache: stats = %+v", s)
	}

	// Changing the analysis sources must miss.
	edited := branchCountTool()
	srcs := map[string]string{}
	for n, src := range edited.Analysis {
		srcs[n] = src + "\n/* edited */\n"
	}
	edited.Analysis = srcs
	if _, err := core.InstrumentCtx(nil, appA, edited, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if s = core.ImageCacheStats(); s.Builds != 2 {
		t.Fatalf("edited analysis source did not rebuild: stats = %+v", s)
	}

	// Changing image-affecting options must miss (the save sets differ).
	if _, err := core.InstrumentCtx(nil, appA, tool, core.Options{NoRegSummary: true}); err != nil {
		t.Fatal(err)
	}
	if s = core.ImageCacheStats(); s.Builds != 3 {
		t.Fatalf("option change did not rebuild: stats = %+v", s)
	}

	// A different tool must miss.
	other := branchCountTool()
	other.Name = "branchcount2"
	if _, err := core.InstrumentCtx(nil, appA, other, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if s = core.ImageCacheStats(); s.Builds != 4 {
		t.Fatalf("distinct tool did not rebuild: stats = %+v", s)
	}

	// Options that do not affect the image (the heap scheme) must NOT
	// rebuild it.
	if _, err := core.InstrumentCtx(nil, appA, tool, core.Options{HeapOffset: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if s = core.ImageCacheStats(); s.Builds != 4 {
		t.Fatalf("image-neutral options rebuilt the image: stats = %+v", s)
	}
}

// TestApplyMatchesInstrument: the explicit two-step form
// (BuildToolImageCtx then ApplyCtx) must produce byte-identical
// executables to the one-shot InstrumentCtx.
func TestApplyMatchesInstrument(t *testing.T) {
	for _, mode := range []core.SaveMode{core.SaveWrapper, core.SaveInAnalysis} {
		core.ResetImageCache(build.ScopeMemory)
		tool := branchCountTool()
		opts := core.Options{Mode: mode}
		app := buildApp(t, cacheAppA)

		want, err := core.InstrumentCtx(nil, app, tool, opts)
		if err != nil {
			t.Fatalf("mode %v: Instrument: %v", mode, err)
		}
		ti, err := core.BuildToolImageCtx(nil, tool, opts)
		if err != nil {
			t.Fatalf("mode %v: BuildToolImageCtx: %v", mode, err)
		}
		got, err := core.ApplyCtx(nil, app, ti, opts)
		if err != nil {
			t.Fatalf("mode %v: Apply: %v", mode, err)
		}
		if !bytes.Equal(got.Exe.Text, want.Exe.Text) || !bytes.Equal(got.Exe.Data, want.Exe.Data) {
			t.Errorf("mode %v: Apply output differs from Instrument output", mode)
		}
		if got.Exe.Entry != want.Exe.Entry || got.Stats != want.Stats {
			t.Errorf("mode %v: Apply metadata differs: %+v vs %+v", mode, got.Stats, want.Stats)
		}
	}
}

// TestBuildToolImageCached: building the same image twice is one build.
func TestBuildToolImageCached(t *testing.T) {
	core.ResetImageCache(build.ScopeMemory)
	tool := branchCountTool()
	a, err := core.BuildToolImageCtx(nil, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.BuildToolImageCtx(nil, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second BuildToolImageCtx did not return the cached image")
	}
	if s := core.ImageCacheStats(); s.Builds != 1 || s.Hits < 1 {
		t.Errorf("stats = %+v, want one build and at least one hit", s)
	}
	if a.CacheKey() == "" || a.ToolName() != tool.Name {
		t.Errorf("image metadata: key=%q tool=%q", a.CacheKey(), a.ToolName())
	}
}

// TestImageBuildLiftsTwice: a cold wrapper-mode image build lifts twice,
// the linked analysis routines for the register summary and the final
// image once for both the inline templates and -vet's lint, so it opens
// 2 om.build spans under atom.image.build with and without Verify.
func TestImageBuildLiftsTwice(t *testing.T) {
	for _, verify := range []bool{false, true} {
		core.ResetImageCache(build.ScopeMemory)
		ts := &obs.TraceSink{}
		if _, err := core.BuildToolImageCtx(obs.New(ts), branchCountTool(), core.Options{Verify: verify}); err != nil {
			t.Fatal(err)
		}
		spans := ts.Spans()
		name := map[uint64]string{}
		parent := map[uint64]uint64{}
		for _, sd := range spans {
			name[sd.ID], parent[sd.ID] = sd.Name, sd.Parent
		}
		lifts := 0
		for _, sd := range spans {
			for p := sd.Parent; sd.Name == "om.build" && p != 0; p = parent[p] {
				if name[p] == "atom.image.build" {
					lifts++
					break
				}
			}
		}
		if lifts != 2 {
			t.Errorf("Verify=%v: %d om.build spans under atom.image.build, want 2", verify, lifts)
		}
	}
}

// clobberTool's one analysis routine clobbers the callee-save register
// s0 without saving it, a defect only -vet's lint of the image reports.
func clobberTool() core.Tool {
	return core.Tool{
		Name: "clobber",
		Analysis: map[string]string{
			"bump.s": `
	.text
	.globl Bump
	.ent Bump
Bump:
	addq s0, 1, s0
	ret (ra)
	.end Bump
`,
		},
		Instrument: func(q *core.Instrumentation) error {
			if err := q.AddCallProto("Bump()"); err != nil {
				return err
			}
			return q.AddCallProgram(core.ProgramBefore, "Bump")
		},
	}
}

// TestVerifyLintsCachedImage: a Verify run lints its analysis image even
// when an image of the same tool was built, unlinted, without Verify,
// whether that image is still in memory or only in the persistent
// store.
func TestVerifyLintsCachedImage(t *testing.T) {
	const want = "clobbers callee-save register s0"
	app := buildApp(t, cacheAppA)
	check := func(t *testing.T) {
		t.Helper()
		_, err := core.InstrumentCtx(nil, app, clobberTool(), core.Options{Verify: true})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Verify instrument: err = %v, want one containing %q", err, want)
		}
	}
	t.Run("fresh", func(t *testing.T) {
		core.ResetImageCache(build.ScopeMemory)
		check(t)
	})
	t.Run("memory", func(t *testing.T) {
		core.ResetImageCache(build.ScopeMemory)
		if _, err := core.InstrumentCtx(nil, app, clobberTool(), core.Options{}); err != nil {
			t.Fatal(err)
		}
		check(t)
	})
	t.Run("disk", func(t *testing.T) {
		ds, err := build.OpenDiskStore(nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer build.SwapStore(build.SwapStore(ds))
		core.ResetImageCache(build.ScopeMemory)
		if _, err := core.InstrumentCtx(nil, app, clobberTool(), core.Options{}); err != nil {
			t.Fatal(err)
		}
		core.ResetImageCache(build.ScopeMemory)
		check(t)
	})
}

// TestUndefinedProcedureErrors: a plan that calls a prototype the image
// does not define as a global procedure fails in apply, under both save
// modes, with the message naming why.
func TestUndefinedProcedureErrors(t *testing.T) {
	app := buildApp(t, cacheAppA)
	for _, tc := range []struct{ call, want string }{
		{"Missing", `analysis procedure "Missing" not defined in analysis routines`},
		{"Hidden", `analysis procedure "Hidden" is not a global symbol`},
	} {
		tool := core.Tool{
			Name: "undefined",
			Analysis: map[string]string{"anal.c": `
long n;
static void Hidden() { n = n + 1; }
void Count() { n = n + 1; Hidden(); }
`},
			Instrument: func(q *core.Instrumentation) error {
				for _, p := range []string{"Count()", "Missing()", "Hidden()"} {
					if err := q.AddCallProto(p); err != nil {
						return err
					}
				}
				return q.AddCallProgram(core.ProgramBefore, tc.call)
			},
		}
		for _, mode := range []core.SaveMode{core.SaveWrapper, core.SaveInAnalysis} {
			core.ResetImageCache(build.ScopeMemory)
			_, err := core.InstrumentCtx(nil, app, tool, core.Options{Mode: mode})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("mode %v, call %s: err = %v, want one containing %q", mode, tc.call, err, tc.want)
			}
		}
	}
}

// TestInAnalysisRejectsUnsplicableRoutine: the in-analysis save mode
// splices every defined prototyped routine, so one with more than six
// parameters fails its image build even though no site calls it; the
// wrapper-mode image of the same tool builds and instruments.
func TestInAnalysisRejectsUnsplicableRoutine(t *testing.T) {
	const want = `"Seven": the in-analysis save mode supports at most 6 parameters`
	app := buildApp(t, cacheAppA)
	tool := core.Tool{
		Name: "seven",
		Analysis: map[string]string{"anal.c": `
long n;
void Count() { n = n + 1; }
void Seven(long a, long b, long c, long d, long e, long f, long g) { n = a + b + c + d + e + f + g; }
`},
		Instrument: func(q *core.Instrumentation) error {
			for _, p := range []string{"Count()", "Seven(long,long,long,long,long,long,long)"} {
				if err := q.AddCallProto(p); err != nil {
					return err
				}
			}
			return q.AddCallProgram(core.ProgramBefore, "Count")
		},
	}
	core.ResetImageCache(build.ScopeMemory)
	if _, err := core.InstrumentCtx(nil, app, tool, core.Options{}); err != nil {
		t.Errorf("wrapper mode: %v", err)
	}
	_, err := core.InstrumentCtx(nil, app, tool, core.Options{Mode: core.SaveInAnalysis})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("in-analysis mode: err = %v, want one containing %q", err, want)
	}
}
