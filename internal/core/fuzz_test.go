package core_test

import (
	"sync"
	"testing"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/om"
	"atom/internal/spec"
	"atom/internal/tools"
)

// FuzzApply instruments whatever the lift accepts: bytes the executable
// reader decodes go through om.BuildCtx and ApplyProgramCtx under the
// built-in tool one fuzzed byte picks. The apply must fail with an error
// or write an output whose rewritten text VerifyRewriteCtx finds clean,
// and it never panics. Each tool's image is built once, when first
// picked. The seeds are the suite executables, spread over the tools,
// and, under testdata, the inputs that once made the apply panic.
func FuzzApply(f *testing.F) {
	all := tools.All()
	images := make([]func() (*core.ToolImage, error), len(all))
	for k, tool := range all {
		images[k] = sync.OnceValues(func() (*core.ToolImage, error) {
			return core.BuildToolImageCtx(nil, tool, core.Options{})
		})
	}
	for i, p := range spec.Suite() {
		exe, err := spec.BuildCtx(nil, p.Name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(i), exe.Encode())
	}
	f.Fuzz(func(t *testing.T, pick byte, data []byte) {
		exe, err := aout.Decode(data)
		if err != nil {
			return
		}
		prog, err := om.BuildCtx(nil, exe)
		if err != nil {
			return
		}
		ti, err := images[int(pick)%len(images)]()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.ApplyProgramCtx(nil, prog, ti, core.Options{})
		if err != nil {
			return
		}
		out := &om.Result{Text: res.Exe.Text[:res.PCMap.TextSize()], Data: res.Exe.Data, Symbols: res.Exe.Symbols}
		if ds := res.PCMap.VerifyRewriteCtx(nil, out); len(ds) > 0 {
			t.Fatalf("rewritten text has %d diagnostics, first: %s", len(ds), ds[0])
		}
	})
}
