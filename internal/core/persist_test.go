package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/om"
	"atom/internal/rtl"
	"atom/internal/spec"
	"atom/internal/tools"
)

// dropMemoryLayers resets every cache to what a fresh process sees: the
// decoded in-memory values gone, the persistent store untouched.
func dropMemoryLayers() {
	core.ResetImageCache(build.ScopeMemory)
	rtl.ResetObjectCache(build.ScopeMemory)
}

// allModes are the two save modes, named for subtests and messages.
var allModes = []struct {
	name string
	mode core.SaveMode
}{{"wrapper", core.SaveWrapper}, {"inanalysis", core.SaveInAnalysis}}

// TestImageCodecRoundTrip: Marshal then Unmarshal of every built-in
// tool's image, under both save modes with and without the register
// summary, reproduces everything apply reads — the image bytes, the
// site save sets and the inline templates, which the decode derives
// from the image again — and leaves only the tool identity (the Go
// closure, which has no wire form) behind. Encoding is deterministic.
func TestImageCodecRoundTrip(t *testing.T) {
	core.ResetImageCache(build.ScopeMemory)
	templates := 0
	for _, name := range tools.Names() {
		tool, _ := tools.ByName(name)
		for _, m := range allModes {
			for _, noSummary := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/noregsummary=%v", name, m.name, noSummary)
				ti, err := core.BuildToolImageCtx(nil, tool, core.Options{Mode: m.mode, NoRegSummary: noSummary})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				blob, got, err := core.ImageCodecRoundTrip(ti)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !bytes.Equal(got.Image().Encode(), ti.Image().Encode()) {
					t.Errorf("%s: decoded image bytes differ", label)
				}
				save, inline := core.ImageTables(ti)
				gotSave, gotInline := core.ImageTables(got)
				if len(save) == 0 || !reflect.DeepEqual(gotSave, save) {
					t.Errorf("%s: siteSave = %v, want %v (non-empty)", label, gotSave, save)
				}
				if !reflect.DeepEqual(gotInline, inline) {
					t.Errorf("%s: inline templates differ:\n got %+v\nwant %+v", label, gotInline, inline)
				}
				if m.mode == core.SaveInAnalysis && len(inline) != 0 {
					t.Errorf("%s: in-analysis image has %d inline templates", label, len(inline))
				}
				templates += len(inline)
				// toolImageFor re-attaches the tool after a disk hit
				// exactly when the decoded Instrument is nil.
				if tl := core.ImageTool(got); tl.Instrument != nil || tl.Name != "" {
					t.Errorf("%s: tool identity leaked through the codec", label)
				}
				// Content addressing requires equal images to encode to
				// equal blobs.
				if again, _, err := core.ImageCodecRoundTrip(ti); err != nil || !bytes.Equal(again, blob) {
					t.Errorf("%s: Marshal is not deterministic (err %v)", label, err)
				}
			}
		}
	}
	if templates == 0 {
		t.Error("no image grew an inline template; the round trip compared none")
	}
}

// TestInstrumentWarmFromDiskStore is the core-level acceptance test for
// the persistent store: instrument one suite program with every built-in
// tool under both save modes against an empty store, drop every
// in-memory cache (simulating a fresh process pointed at the same cache
// directory), instrument again — the second pass must build nothing,
// serve every tool image from disk, and produce byte-identical
// executables.
func TestInstrumentWarmFromDiskStore(t *testing.T) {
	ds, err := build.OpenDiskStore(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prev := build.SwapStore(ds)
	defer build.SwapStore(prev)

	app, err := spec.BuildCtx(nil, spec.Suite()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		label string
		tool  core.Tool
		opts  core.Options
	}
	var jobs []job
	for _, name := range tools.Names() {
		tool, _ := tools.ByName(name)
		for _, m := range allModes {
			jobs = append(jobs, job{name + "/" + m.name, tool, core.Options{Mode: m.mode}})
		}
	}
	instrumentAll := func(ctx *obs.Ctx) [][]byte {
		out := make([][]byte, len(jobs))
		for i, j := range jobs {
			res, err := core.InstrumentCtx(ctx, app, j.tool, j.opts)
			if err != nil {
				t.Fatalf("%s: %v", j.label, err)
			}
			out[i] = res.Exe.Encode()
		}
		return out
	}

	dropMemoryLayers()
	ctx := obs.New()
	cold := instrumentAll(ctx)
	if s := core.ImageCacheStats(); s.Builds != uint64(len(jobs)) || s.DiskHits != 0 {
		t.Fatalf("cold image stats = %+v, want %d builds, 0 disk hits", s, len(jobs))
	}
	if ctx.Metrics().Counter("store.disk.put") == 0 {
		t.Fatal("cold pass persisted nothing")
	}

	dropMemoryLayers()
	warm := instrumentAll(nil)
	for i := range jobs {
		if !bytes.Equal(warm[i], cold[i]) {
			t.Errorf("%s: disk-warm instrument output differs from cold output", jobs[i].label)
		}
	}
	if s := core.ImageCacheStats(); s.Builds != 0 || s.DiskHits != uint64(len(jobs)) {
		t.Errorf("warm image stats = %+v, want 0 builds and %d disk hits", s, len(jobs))
	}
	if s := rtl.ObjectCacheStats(); s.Builds != 0 {
		t.Errorf("warm object stats = %+v, want 0 compiles", s)
	}
	// The cached values came from disk without a tool; every image
	// handed out gets its tool back.
	for _, j := range jobs {
		ti, err := core.BuildToolImageCtx(nil, j.tool, j.opts)
		if err != nil {
			t.Fatalf("%s: %v", j.label, err)
		}
		if tl := core.ImageTool(ti); tl.Instrument == nil || tl.Name != j.tool.Name {
			t.Errorf("%s: disk-served image carries tool %q (instrument set %v)", j.label, tl.Name, tl.Instrument != nil)
		}
	}

	// A third pass with memory warm must not touch the disk again.
	ctx = obs.New()
	instrumentAll(ctx)
	if hits := ctx.Metrics().Counter("store.disk.hit"); hits != 0 {
		t.Errorf("memory-warm pass read the store (%d hits)", hits)
	}
}

// TestImageBuiltOncePerToolAndMode: the image BuildToolImageCtx builds
// from the probe program serves every suite program, so building it and
// applying it to all of them builds one image per (tool, save mode).
func TestImageBuiltOncePerToolAndMode(t *testing.T) {
	var progs []*om.Program
	for _, p := range spec.Suite() {
		exe, err := spec.BuildCtx(nil, p.Name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := core.LiftCtx(nil, exe)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	core.ResetImageCache(build.ScopeMemory)
	images := 0
	for _, name := range tools.Names() {
		tool, _ := tools.ByName(name)
		for _, m := range allModes {
			opts := core.Options{Mode: m.mode}
			ti, err := core.BuildToolImageCtx(nil, tool, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.name, err)
			}
			images++
			for i, prog := range progs {
				if _, err := core.ApplyProgramCtx(nil, prog, ti, opts); err != nil {
					t.Fatalf("%s/%s on program %d: %v", name, m.name, i, err)
				}
			}
			if s := core.ImageCacheStats(); s.Builds != uint64(images) {
				t.Fatalf("%s/%s: %d image builds after %d (tool, mode) pairs", name, m.name, s.Builds, images)
			}
		}
	}
}
