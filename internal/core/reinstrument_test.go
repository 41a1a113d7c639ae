package core_test

import (
	"bytes"
	"strings"
	"testing"

	"atom/internal/aout"
	"atom/internal/asm"
	"atom/internal/cc"
	"atom/internal/core"
	"atom/internal/link"
	"atom/internal/rtl"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// TestInstrumentAcrossFiller: an application with unnamed padding
// between two procedures (the shape of ATOM's own output, whose analysis
// image starts past a gap) instruments under every tool, passes -vet,
// and runs exactly like the bare program.
func TestInstrumentAcrossFiller(t *testing.T) {
	hdrs, err := rtl.Headers()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cc.BuildCtx(nil, "app.c", loopApp, hdrs)
	if err != nil {
		t.Fatal(err)
	}
	pad, err := asm.AssembleCtx(nil, "pad.s", "\t.text\n\tlda $1, 1234($31)\n\tldah $2, 567($31)\n")
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
	app, err := link.LinkCtx(nil, link.Config{}, []*aout.File{c0, obj, pad}, lib)
	if err != nil {
		t.Fatal(err)
	}
	ref := runExe(t, app, vm.Config{})
	for _, tool := range tools.All() {
		t.Run(tool.Name, func(t *testing.T) {
			res, err := core.InstrumentCtx(nil, app, tool, core.Options{Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(res.Exe.Text, pad.Text) {
				t.Error("the padding is not in the instrumented text")
			}
			m := runExe(t, res.Exe, vm.Config{})
			if !bytes.Equal(m.Stdout, ref.Stdout) {
				t.Errorf("stdout %q, want %q", m.Stdout, ref.Stdout)
			}
			if len(m.FSOut[tool.Name+".out"]) == 0 {
				t.Errorf("no %s.out report", tool.Name)
			}
		})
	}
}

// TestReinstrumentStopsAtAnalysisData: a branch-instrumented program
// lifts past the gap in front of its analysis image, and then stops at
// the analysis data that ends its text segment. Those bytes are read and
// written through absolute addresses that the written executable keeps
// no relocations for, so moving them would silently break the program;
// the lift must refuse them by address instead.
func TestReinstrumentStopsAtAnalysisData(t *testing.T) {
	app, err := spec.BuildCtx(nil, "queens")
	if err != nil {
		t.Fatal(err)
	}
	branch, _ := tools.ByName("branch")
	prof, _ := tools.ByName("prof")
	res, err := core.InstrumentCtx(nil, app, branch, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.InstrumentCtx(nil, res.Exe, prof, core.Options{})
	if err == nil || !strings.Contains(err.Error(), "om: text tail at ") {
		t.Fatalf("re-instrumenting: err = %v, want the text tail refused", err)
	}
}
