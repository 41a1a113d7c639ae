package core_test

import (
	"testing"

	"atom/internal/alpha"
	"atom/internal/core"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// slotTool counts blocks with an inlinable routine that keeps a value in
// a stack slot of its own frame. Its body names sp, so each of its sites
// must allocate the frame holding the site's saves: were the saves left
// below sp, the body's frame would land on them.
var slotTool = core.Tool{
	Name: "slot",
	Analysis: map[string]string{
		"report.c": `
#include <stdio.h>
long counter;
void Report(void) {
	FILE *f = fopen("slot.out", "w");
	fprintf(f, "%d\n", counter);
	fclose(f);
}
`,
		"slot.s": `
	.text
	.globl Slot
	.ent Slot
Slot:
	lda sp, -16(sp)
	la t0, counter
	ldq t1, 0(t0)
	stq t1, 0(sp)
	ldq t2, 0(sp)
	addq t2, a0, t2
	stq t2, 0(t0)
	lda sp, 16(sp)
	ret (ra)
	.end Slot
`,
	},
	Instrument: func(q *core.Instrumentation) error {
		for _, p := range []string{"Slot(long)", "Report()"} {
			if err := q.AddCallProto(p); err != nil {
				return err
			}
		}
		for p := q.GetFirstProc(); p != nil; p = q.GetNextProc(p) {
			for b := q.GetFirstBlock(p); b != nil; b = q.GetNextBlock(b) {
				if err := q.AddCallBlock(b, core.BlockBefore, "Slot", 1); err != nil {
					return err
				}
			}
		}
		return q.AddCallProgram(core.ProgramAfter, "Report")
	},
}

// namesSP reports whether any instruction reads or writes sp.
func namesSP(insts []alpha.Inst) bool {
	for _, i := range insts {
		if w, ok := i.WritesReg(); ok && w == alpha.SP {
			return true
		}
		for _, r := range i.ReadsRegs(nil) {
			if r == alpha.SP {
				return true
			}
		}
	}
	return false
}

// TestSiteFrames: stack space that holds nothing is not allocated. No
// site of any tool, on any suite program, in either save mode, adjusts
// sp by 0. A site stores below sp only around an inlined body that never
// names sp, and every such site with at most six arguments adjusts sp
// not at all. The slot tool's body uses a stack slot, so its sites keep
// their frames, and its instrumented programs run pristine.
func TestSiteFrames(t *testing.T) {
	all := []core.Tool{slotTool}
	for _, name := range tools.Names() {
		tool, _ := tools.ByName(name)
		all = append(all, tool)
	}
	slotSaves := 0
	for _, p := range spec.Suite() {
		app, err := spec.BuildCtx(nil, p.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tool := range all {
			for _, mode := range []core.SaveMode{core.SaveWrapper, core.SaveInAnalysis} {
				sites, err := core.PlannedSites(app, tool, core.Options{Mode: mode})
				if err != nil {
					t.Fatalf("%s on %s: %v", tool.Name, p.Name, err)
				}
				for k, s := range sites {
					frameless := s.Body != nil && !namesSP(s.Body) && s.Args <= alpha.MaxRegArgs
					for _, i := range s.Insts {
						adjust := i.Op == alpha.OpLda && i.Ra == alpha.SP && i.Rb == alpha.SP
						switch {
						case adjust && i.Disp == 0:
							t.Errorf("%s on %s, mode %d, site %d: empty frame: %s", tool.Name, p.Name, mode, k, i)
						case adjust && frameless:
							t.Errorf("%s on %s, mode %d, site %d: sp adjusted around a body that never names sp: %s", tool.Name, p.Name, mode, k, i)
						case i.Op == alpha.OpStq && i.Rb == alpha.SP && i.Disp < 0 && !frameless:
							t.Errorf("%s on %s, mode %d, site %d: saves below sp, but the site is not an inlined body free of sp: %s", tool.Name, p.Name, mode, k, i)
						}
						if tool.Name == slotTool.Name && mode == core.SaveWrapper && i.Op == alpha.OpStq && i.Rb == alpha.SP {
							slotSaves++
						}
					}
				}
			}
		}
	}
	if slotSaves == 0 {
		t.Error("no slot site saves a register: the frames it must keep are never tested")
	}

	for _, name := range []string{"queens", "li", "compress"} {
		p, _ := spec.ByName(name)
		app, err := spec.BuildCtx(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		bare := runExe(t, app, vm.Config{Stdin: p.Stdin, FS: p.FS})
		var reports []string
		for _, mode := range []core.SaveMode{core.SaveWrapper, core.SaveInAnalysis} {
			res, err := core.InstrumentCtx(nil, app, slotTool, core.Options{Mode: mode, HeapOffset: 1 << 20, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if mode == core.SaveWrapper && res.Stats.InlinedSites == 0 {
				t.Errorf("%s: no slot site inlined", name)
			}
			m := runExe(t, res.Exe, vm.Config{Stdin: p.Stdin, FS: p.FS})
			if string(m.Stdout) != string(bare.Stdout) {
				t.Errorf("%s, mode %d: instrumented run printed %q, want %q", name, mode, m.Stdout, bare.Stdout)
			}
			reports = append(reports, string(m.FSOut["slot.out"]))
		}
		if reports[0] == "" || reports[0] != reports[1] {
			t.Errorf("%s: slot.out reads %q in the wrapper mode, %q in the in-analysis mode", name, reports[0], reports[1])
		}
	}
}
