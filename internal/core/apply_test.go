package core_test

import (
	"bytes"
	"testing"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/link"
	"atom/internal/om"
	"atom/internal/om/dataflow"
	"atom/internal/rtl"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// TestApplyAllocs: applying a plan allocates per procedure, not per call
// site. dyninst calls its analysis routine at every basic block of gcc
// with three arguments, so a per-site allocation anywhere in plan,
// liveness, emission, layout or output would swamp the bound. One lifted
// Program serves every apply.
func TestApplyAllocs(t *testing.T) {
	app, err := spec.BuildCtx(nil, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	tool, _ := tools.ByName("dyninst")
	ti, err := core.BuildToolImageCtx(nil, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.LiftCtx(nil, app)
	if err != nil {
		t.Fatal(err)
	}
	sites := 0
	allocs := testing.AllocsPerRun(5, func() {
		res, err := core.ApplyProgramCtx(nil, prog, ti, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sites = res.Stats.Calls
	})
	procs := len(prog.Procs)
	limit := float64(10*procs + 128)
	if allocs > limit {
		t.Errorf("ApplyProgramCtx of gcc under dyninst: %.0f allocations for %d procedures and %d sites, want <= %.0f",
			allocs, procs, sites, limit)
	}
	t.Logf("%.0f allocations, %d procedures, %d sites", allocs, procs, sites)
}

// TestLivenessAllocs bounds the two tool-independent stages of every
// instrumentation on gcc: the lift builds the IR as windows of a few
// program-wide arrays, and liveness reads it into a few tables beside it,
// so neither allocates per procedure, block or instruction. The bounds
// are the counts the two stages make; a stage that starts allocating
// per procedure or per block exceeds them many times over.
func TestLivenessAllocs(t *testing.T) {
	app, err := spec.BuildCtx(nil, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	var prog *om.Program
	lift := testing.AllocsPerRun(5, func() {
		if prog, err = core.LiftCtx(nil, app); err != nil {
			t.Fatal(err)
		}
	})
	live := testing.AllocsPerRun(5, func() { dataflow.ComputeCtx(nil, prog) })
	for _, c := range []struct {
		stage        string
		allocs, want float64
	}{
		{"LiftCtx", lift, 11},
		{"ComputeCtx", live, 15},
	} {
		if c.allocs > c.want {
			t.Errorf("%s of gcc: %.0f allocations for %d procedures and %d instructions, want <= %.0f",
				c.stage, c.allocs, len(prog.Procs), prog.NumInsts(), c.want)
		}
		t.Logf("%s: %.0f allocations", c.stage, c.allocs)
	}
}

// TestApplyZeroDeltaRebase places an application so that its analysis
// image lands exactly at the image's canonical base: Rebase moves it by
// zero. The image must still be copied into the output's text, the
// cached image must stay untouched, and the program and its tool report
// must match an ordinary placement.
func TestApplyZeroDeltaRebase(t *testing.T) {
	objs, err := rtl.BuildObjectsCtx(nil, map[string]string{"app.c": loopApp})
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
	linkAt := func(base uint64) *aout.File {
		exe, err := link.LinkCtx(nil, link.Config{TextAddr: base}, append([]*aout.File{c0}, objs...), lib)
		if err != nil {
			t.Fatal(err)
		}
		return exe
	}
	tool, _ := tools.ByName("prof")
	ti, err := core.BuildToolImageCtx(nil, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := ti.Image()
	imgText := append([]byte(nil), img.Text...)
	imgData := append([]byte(nil), img.Data...)

	ref, err := core.ApplyCtx(nil, linkAt(link.DefaultTextAddr), ti, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := img.TextAddr - (ref.Stats.InstrText+15)&^15
	res, err := core.ApplyCtx(nil, linkAt(base), ti, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AnalysisTextAddr != img.TextAddr {
		t.Fatalf("analysis image at %#x, want its canonical base %#x", res.Stats.AnalysisTextAddr, img.TextAddr)
	}
	out := res.Exe
	textOff := img.TextAddr - out.TextAddr
	dataOff := img.DataAddr - out.TextAddr
	if !bytes.Equal(out.Text[textOff:textOff+uint64(len(img.Text))], imgText) ||
		!bytes.Equal(out.Text[dataOff:dataOff+uint64(len(img.Data))], imgData) {
		t.Fatal("zero-delta apply did not copy the image into the output text")
	}
	out.Text[textOff] ^= 0xFF
	out.Text[dataOff] ^= 0xFF
	if !bytes.Equal(img.Text, imgText) || !bytes.Equal(img.Data, imgData) {
		t.Fatal("the output text shares memory with the cached image")
	}
	out.Text[textOff] ^= 0xFF
	out.Text[dataOff] ^= 0xFF

	want, got := runExe(t, ref.Exe, vm.Config{}), runExe(t, out, vm.Config{})
	if string(got.Stdout) != string(want.Stdout) {
		t.Errorf("stdout %q, want %q", got.Stdout, want.Stdout)
	}
	if g, w := got.FSOut["prof.out"], want.FSOut["prof.out"]; len(w) == 0 || !bytes.Equal(g, w) {
		t.Errorf("prof.out %q, want %q", g, w)
	}
}
