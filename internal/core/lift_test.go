package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"atom/internal/core"
	"atom/internal/spec"
	"atom/internal/tools"
)

// TestLiftSharedExeConcurrent: every lift of an executable refers to the
// caller's *aout.File, so concurrent instrumentations share it. Eight
// goroutines run every built-in tool on one executable through Lift and
// ApplyProgram; each output must equal the sequential one, and the
// executable's encoding must be unchanged afterwards. Under -race this
// also pins that instrumentation never writes to the executable.
func TestLiftSharedExeConcurrent(t *testing.T) {
	app, err := spec.Build("gcc")
	if err != nil {
		t.Fatal(err)
	}
	orig := app.Encode()
	opts := core.Options{}
	names := tools.Names()
	images := make([]*core.ToolImage, len(names))
	want := make([][]byte, len(names))
	apply := func(i int) ([]byte, error) {
		prog, err := core.Lift(app)
		if err != nil {
			return nil, err
		}
		res, err := core.ApplyProgram(prog, images[i], opts)
		if err != nil {
			return nil, err
		}
		return res.Exe.Encode(), nil
	}
	for i, name := range names {
		tool, _ := tools.ByName(name)
		if images[i], err = core.BuildToolImage(tool, opts); err != nil {
			t.Fatalf("%s: BuildToolImage: %v", name, err)
		}
		if want[i], err = apply(i); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	const n = 8
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Each goroutine starts at a different tool, so different
			// tools instrument the executable at the same time.
			for k := range names {
				i := (g + k) % len(names)
				got, err := apply(i)
				if err == nil && !bytes.Equal(got, want[i]) {
					err = fmt.Errorf("%s: output differs from the sequential run", names[i])
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	if !bytes.Equal(app.Encode(), orig) {
		t.Fatal("instrumenting the shared executable changed it")
	}
}
