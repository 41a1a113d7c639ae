package core_test

import (
	"bytes"
	"testing"

	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/rtl"
)

// dropMemoryLayers resets every cache to what a fresh process sees: the
// decoded in-memory values gone, the persistent store untouched.
func dropMemoryLayers() {
	core.ResetImageCache(build.ScopeMemory)
	rtl.ResetObjectCache(build.ScopeMemory)
}

// TestInstrumentWarmFromDiskStore is the core-level acceptance test for
// the persistent store: instrument once against an empty store, drop
// every in-memory cache (simulating a fresh process pointed at the same
// cache directory), instrument again — the second pass must build
// nothing, serve the tool image from disk, and produce a byte-identical
// executable.
func TestInstrumentWarmFromDiskStore(t *testing.T) {
	ds, err := build.OpenDiskStore(nil, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := build.SwapStore(ds)
	defer func() {
		build.SwapStore(prev)
		ds.Close()
	}()

	dropMemoryLayers()
	tool := branchCountTool()
	app := buildApp(t, cacheAppA)

	cold, err := core.Instrument(app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := core.ImageCacheStats(); s.Builds != 1 || s.DiskHits != 0 {
		t.Fatalf("cold image stats = %+v, want 1 build, 0 disk hits", s)
	}
	if st := ds.Stats(); st.Puts == 0 {
		t.Fatal("cold pass persisted nothing")
	}

	dropMemoryLayers()
	warm, err := core.Instrument(app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm.Exe.Text, cold.Exe.Text) || !bytes.Equal(warm.Exe.Data, cold.Exe.Data) {
		t.Error("disk-warm instrument output differs from cold output")
	}
	if warm.Exe.Entry != cold.Exe.Entry {
		t.Errorf("entry = %#x, want %#x", warm.Exe.Entry, cold.Exe.Entry)
	}
	if s := core.ImageCacheStats(); s.Builds != 0 || s.DiskHits < 1 {
		t.Errorf("warm image stats = %+v, want 0 builds and a disk hit", s)
	}
	if s := rtl.ObjectCacheStats(); s.Builds != 0 {
		t.Errorf("warm object stats = %+v, want 0 compiles", s)
	}

	// A third pass with memory warm must not touch the disk again.
	before := ds.Stats().Hits
	if _, err := core.Instrument(app, tool, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if after := ds.Stats().Hits; after != before {
		t.Errorf("memory-warm pass read the store (%d -> %d hits)", before, after)
	}
}
