package core_test

import (
	"bytes"
	"testing"

	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/rtl"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// TestContextNeverChangesOutput: the stage context only observes. Every
// ctx-free caller passes nil to the one entry point per stage, so for
// every tool, instrumenting with a nil context and with a traced one
// must write byte-identical executables that run alike. Both sides
// build the tool image cold.
func TestContextNeverChangesOutput(t *testing.T) {
	app, err := spec.BuildCtx(nil, "queens")
	if err != nil {
		t.Fatal(err)
	}
	instrument := func(t *testing.T, ctx *obs.Ctx, tool core.Tool) *core.Result {
		t.Helper()
		core.ResetImageCache(build.ScopeMemory)
		rtl.ResetObjectCache(build.ScopeMemory)
		res, err := core.InstrumentCtx(ctx, app, tool, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run := func(t *testing.T, res *core.Result) (*vm.Machine, int) {
		t.Helper()
		m, err := vm.New(res.Exe, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		code, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m, code
	}
	for _, tool := range tools.All() {
		t.Run(tool.Name, func(t *testing.T) {
			bare := instrument(t, nil, tool)
			ts := &obs.TraceSink{}
			traced := instrument(t, obs.New(ts), tool)
			if len(ts.Spans()) == 0 {
				t.Fatal("the traced context recorded no spans")
			}
			if !bytes.Equal(bare.Exe.Encode(), traced.Exe.Encode()) {
				t.Fatal("executables differ between a nil and a traced context")
			}
			m1, code1 := run(t, bare)
			m2, code2 := run(t, traced)
			if code1 != code2 || m1.Icount != m2.Icount || !bytes.Equal(m1.Stdout, m2.Stdout) {
				t.Errorf("runs differ: exit %d/%d, icount %d/%d, stdout %q/%q",
					code1, code2, m1.Icount, m2.Icount, m1.Stdout, m2.Stdout)
			}
			report := tool.Name + ".out"
			if !bytes.Equal(m1.FSOut[report], m2.FSOut[report]) {
				t.Errorf("%s differs between the two runs", report)
			}
		})
	}
}
