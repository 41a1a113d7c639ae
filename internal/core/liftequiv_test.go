package core_test

import (
	"bytes"
	"sync"
	"testing"

	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/om"
	"atom/internal/spec"
	"atom/internal/tools"
)

// TestColdLiftMatchesDecodedAllTools: a cold lift returns the Program it
// built instead of decoding the blob it just cached. For every built-in
// tool on five suite programs that Program must instrument to the same
// bytes as one decoded from the blob, and — since a built Program refers
// to the caller's executable rather than a private copy — neither
// instrumentation may change the application's own encoding.
func TestColdLiftMatchesDecodedAllTools(t *testing.T) {
	defer build.ResetIRCache(build.ScopeMemory)
	opts := core.Options{Verify: true}
	for _, pname := range []string{"gcc", "compress", "eqntott", "li", "queens"} {
		app, err := spec.Build(pname)
		if err != nil {
			t.Fatal(err)
		}
		orig := app.Encode()
		for _, tname := range tools.Names() {
			tool, _ := tools.ByName(tname)

			build.ResetIRCache(build.ScopeMemory)
			built, err := core.Lift(app)
			if err != nil {
				t.Fatalf("%s: Lift: %v", pname, err)
			}
			if s := build.IRCacheStats(); s.Builds != 1 || built.Exe != app {
				t.Fatalf("%s: lift after a cache reset did not return the built Program (stats %+v)", pname, s)
			}
			want, err := core.InstrumentProgram(built, tool, opts)
			if err != nil {
				t.Fatalf("%s/%s: InstrumentProgram(built): %v", pname, tname, err)
			}
			if !bytes.Equal(app.Encode(), orig) {
				t.Fatalf("%s/%s: instrumenting the built Program changed the application", pname, tname)
			}

			blob, err := core.LiftBlob(app)
			if err != nil {
				t.Fatalf("%s: LiftBlob: %v", pname, err)
			}
			dec, err := om.Decode(blob)
			if err != nil {
				t.Fatalf("%s: Decode: %v", pname, err)
			}
			got, err := core.InstrumentProgram(dec, tool, opts)
			if err != nil {
				t.Fatalf("%s/%s: InstrumentProgram(decoded): %v", pname, tname, err)
			}
			if !bytes.Equal(got.Exe.Encode(), want.Exe.Encode()) {
				t.Fatalf("%s/%s: decoded-IR instrumentation differs from the cold lift's", pname, tname)
			}
			if !bytes.Equal(app.Encode(), orig) {
				t.Fatalf("%s/%s: instrumenting the decoded Program changed the application", pname, tname)
			}
		}
	}
}

// TestColdLiftConcurrent: goroutines lifting one executable on a cold
// cache share one build, yet each gets its own Program — the builder
// keeps the one it built, every peer decodes the cached blob — with no
// procedure, block or instruction storage in common.
func TestColdLiftConcurrent(t *testing.T) {
	defer build.ResetIRCache(build.ScopeMemory)
	app, err := spec.Build("gcc")
	if err != nil {
		t.Fatal(err)
	}
	tool, _ := tools.ByName("branch")
	build.ResetIRCache(build.ScopeMemory)

	const n = 8
	progs := make([]*om.Program, n)
	outs := make([][]byte, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, err := core.Lift(app)
			if err != nil {
				errs[i] = err
				return
			}
			progs[i] = p
			res, err := core.InstrumentProgram(p, tool, core.Options{})
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = res.Exe.Encode()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if s := build.IRCacheStats(); s.Builds != 1 {
		t.Fatalf("IR cache built %d times for one executable, want 1", s.Builds)
	}

	// owner maps every Proc, Block and Inst pointer, and the first
	// element of every Procs/Blocks/Insts slice, to the program holding it.
	owner := map[any]int{}
	own := func(i int, what string, key any) {
		if j, ok := owner[key]; ok && j != i {
			t.Fatalf("programs %d and %d share a %s", j, i, what)
		}
		owner[key] = i
	}
	for i, p := range progs {
		if len(p.Procs) == 0 {
			t.Fatalf("program %d has no procedures", i)
		}
		own(i, "Procs slice", &p.Procs[0])
		for _, pr := range p.Procs {
			own(i, "Proc", pr)
			if len(pr.Blocks) > 0 {
				own(i, "Blocks slice", &pr.Blocks[0])
			}
			for _, b := range pr.Blocks {
				own(i, "Block", b)
				if len(b.Insts) > 0 {
					own(i, "Insts slice", &b.Insts[0])
				}
				for _, in := range b.Insts {
					own(i, "Inst", in)
				}
			}
		}
		if !bytes.Equal(outs[i], outs[0]) {
			t.Fatalf("program %d instrumented differently from program 0", i)
		}
	}
}
