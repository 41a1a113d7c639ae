package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"atom/internal/core"
	"atom/internal/om"
	"atom/internal/spec"
	"atom/internal/tools"
)

// TestLiftSharedExeConcurrent: every lift of an executable refers to the
// caller's *aout.File, and nothing writes a lifted Program, so concurrent
// instrumentations share both. Eight goroutines run every built-in tool
// on one executable through ApplyProgramCtx, once lifting it afresh per
// apply and once applying all tools to one shared Program; each output
// must equal the sequential fresh-lift one, and the executable's encoding
// must be unchanged afterwards. Under -race this also pins that
// instrumentation never writes to the executable or the Program.
func TestLiftSharedExeConcurrent(t *testing.T) {
	app, err := spec.BuildCtx(nil, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	orig := app.Encode()
	opts := core.Options{}
	names := tools.Names()
	images := make([]*core.ToolImage, len(names))
	want := make([][]byte, len(names))
	fresh := func() (*om.Program, error) { return core.LiftCtx(nil, app) }
	apply := func(lift func() (*om.Program, error), i int) ([]byte, error) {
		prog, err := lift()
		if err != nil {
			return nil, err
		}
		res, err := core.ApplyProgramCtx(nil, prog, images[i], opts)
		if err != nil {
			return nil, err
		}
		return res.Exe.Encode(), nil
	}
	for i, name := range names {
		tool, _ := tools.ByName(name)
		if images[i], err = core.BuildToolImageCtx(nil, tool, opts); err != nil {
			t.Fatalf("%s: BuildToolImageCtx: %v", name, err)
		}
		if want[i], err = apply(fresh, i); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	shared, err := fresh()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		lift func() (*om.Program, error)
	}{
		{"fresh-lift", fresh},
		{"shared-program", func() (*om.Program, error) { return shared, nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
						got, err := apply(tc.lift, i)
						if err == nil && !bytes.Equal(got, want[i]) {
							err = fmt.Errorf("%s: output differs from the sequential fresh-lift run", names[i])
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
		})
	}
	if !bytes.Equal(app.Encode(), orig) {
		t.Fatal("instrumenting the shared executable changed it")
	}
}

// TestGetNextInstMatchesScan: GetNextInst and GetNextBlock, which find
// an instruction's block through the program's block table, return what
// a scan of the block and of its procedure returns, for every
// instruction and block of the suite.
func TestGetNextInstMatchesScan(t *testing.T) {
	check := func(t *testing.T, q *core.Instrumentation, pr *om.Proc, b *om.Block) {
		t.Helper()
		for k := range b.Insts {
			var want *om.Inst
			if k+1 < len(b.Insts) {
				want = &b.Insts[k+1]
			}
			if got := q.GetNextInst(&b.Insts[k]); got != want {
				t.Fatalf("GetNextInst(%#x) = %p, scan = %p", b.Insts[k].Addr, got, want)
			}
		}
		var want *om.Block
		if b.Index+1 < len(pr.Blocks) {
			want = pr.Blocks[b.Index+1]
		}
		if got := q.GetNextBlock(b); got != want {
			t.Fatalf("%s: GetNextBlock(block %d) = %p, want %p", pr.Name, b.Index, got, want)
		}
	}
	for _, p := range spec.Suite() {
		app, err := spec.BuildCtx(nil, p.Name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := core.LiftCtx(nil, app)
		if err != nil {
			t.Fatal(err)
		}
		q := core.NewInstrumentation(prog)
		for _, pr := range prog.Procs {
			for _, b := range pr.Blocks {
				check(t, q, pr, b)
			}
		}
	}
}
