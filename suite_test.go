package atom_test

import (
	"bytes"
	"testing"

	"atom"
	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/spec"
)

// TestSuiteBuildsImageOnce is the headline acceptance test for the
// staged pipeline: instrumenting the complete 20-program suite with one
// tool compiles and links the tool's analysis image exactly once; every
// other program is a cache hit.
func TestSuiteBuildsImageOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole suite")
	}
	core.ResetImageCache(build.ScopeMemory)
	tool, err := atom.ToolByName("cache")
	if err != nil {
		t.Fatal(err)
	}
	suite := spec.Suite()
	apps := make([]*atom.Executable, len(suite))
	for i, p := range suite {
		if apps[i], err = spec.BuildCtx(nil, p.Name); err != nil {
			t.Fatal(err)
		}
	}
	results, err := atom.InstrumentSuite(apps, tool, atom.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r == nil || r.Exe == nil {
			t.Fatalf("program %s: no result", suite[i].Name)
		}
	}
	s := core.ImageCacheStats()
	if s.Builds != 1 {
		t.Errorf("analysis image built %d times for %d programs, want exactly 1", s.Builds, len(apps))
	}
	if want := uint64(len(apps) - 1); s.Hits != want {
		t.Errorf("cache hits = %d, want %d (one per remaining program)", s.Hits, want)
	}
}

// TestInstrumentSuiteParallelMatchesSerial: fanning programs across
// workers must produce byte-identical executables to one-at-a-time
// instrumentation, for several tools at once. Run under -race this is
// also the data-race acceptance test for the shared image cache, the
// runtime-library cache, and the side-effect-free OM build.
func TestInstrumentSuiteParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("instruments 4 programs with 3 tools twice")
	}
	programs := []string{"compress", "eqntott", "li", "ear"}
	toolNames := []string{"branch", "cache", "prof"}

	apps := make([]*atom.Executable, len(programs))
	for i, name := range programs {
		var err error
		if apps[i], err = spec.BuildCtx(nil, name); err != nil {
			t.Fatal(err)
		}
	}

	type outcome struct{ text, data []byte }
	serial := map[string][]outcome{}
	core.ResetImageCache(build.ScopeMemory)
	for _, tn := range toolNames {
		tool, err := atom.ToolByName(tn)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range apps {
			res, err := atom.Instrument(app, tool, atom.Options{})
			if err != nil {
				t.Fatalf("serial %s: %v", tn, err)
			}
			serial[tn] = append(serial[tn], outcome{res.Exe.Text, res.Exe.Data})
		}
	}

	// Now in parallel from a cold cache, all three tools concurrently.
	core.ResetImageCache(build.ScopeMemory)
	done := make(chan error, len(toolNames))
	parallel := make([][]*atom.Result, len(toolNames))
	for ti, tn := range toolNames {
		go func(ti int, tn string) {
			tool, err := atom.ToolByName(tn)
			if err != nil {
				done <- err
				return
			}
			results, err := atom.InstrumentSuite(apps, tool, atom.Options{}, 4)
			if err != nil {
				done <- err
				return
			}
			parallel[ti] = results
			done <- nil
		}(ti, tn)
	}
	for range toolNames {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	for ti, tn := range toolNames {
		for i := range apps {
			got := parallel[ti][i]
			want := serial[tn][i]
			if !bytes.Equal(got.Exe.Text, want.text) || !bytes.Equal(got.Exe.Data, want.data) {
				t.Errorf("%s/%s: parallel output differs from serial", tn, programs[i])
			}
		}
	}
	if s := core.ImageCacheStats(); s.Builds != uint64(len(toolNames)) {
		t.Errorf("parallel run built %d images, want %d (one per tool)", s.Builds, len(toolNames))
	}
}
