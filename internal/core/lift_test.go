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

// TestGetNextInstMatchesScan: GetNextInst, which indexes a block by
// instruction address, returns what a scan of the block for the
// instruction returns, for every instruction of every block of the
// suite. Then, with the addresses of one block swapped and reversed as
// hand-built IR may have them, it still does.
func TestGetNextInstMatchesScan(t *testing.T) {
	scan := func(i *om.Inst) *om.Inst {
		insts := i.Block().Insts
		for k, in := range insts {
			if in == i && k+1 < len(insts) {
				return insts[k+1]
			}
		}
		return nil
	}
	check := func(t *testing.T, q *core.Instrumentation, b *om.Block) {
		t.Helper()
		for _, in := range b.Insts {
			if got, want := q.GetNextInst(in), scan(in); got != want {
				t.Fatalf("GetNextInst(%#x) = %p, scan = %p", in.Addr, got, want)
			}
		}
	}
	var long *om.Block // a block of three or more instructions
	for _, p := range spec.Suite() {
		app, err := spec.Build(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := core.Lift(app)
		if err != nil {
			t.Fatal(err)
		}
		q := core.NewInstrumentation(prog)
		for _, pr := range prog.Procs {
			for _, b := range pr.Blocks {
				check(t, q, b)
				if long == nil && len(b.Insts) >= 3 {
					long = b
				}
			}
		}
	}
	if long == nil {
		t.Fatal("no block of three or more instructions in the suite")
	}
	q := core.NewInstrumentation(nil)
	in := long.Insts
	in[1].Addr, in[2].Addr = in[2].Addr, in[1].Addr
	check(t, q, long)
	for i, j := 0, len(in)-1; i < j; i, j = i+1, j-1 {
		in[i].Addr, in[j].Addr = in[j].Addr, in[i].Addr
	}
	check(t, q, long)
}
