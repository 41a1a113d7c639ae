package core

import (
	"encoding/binary"
	"testing"

	"atom/internal/alpha"
	"atom/internal/build"
	"atom/internal/om"
)

// renameProbeTool declares four assembly routines that differ only in
// what the renamer must check: Leaf qualifies; Exposed reads t3 before
// writing it; Shared is also called by another analysis routine; Caller
// is not a leaf.
func renameProbeTool() Tool {
	return Tool{
		Name: "renameprobe",
		Analysis: map[string]string{
			"probe.s": `
	.text
	.globl Leaf
	.ent Leaf
Leaf:
	addq a0, 1, t0
	addq t0, t0, t1
	addq t1, a0, v0
	ret (ra)
	.end Leaf

	.globl Exposed
	.ent Exposed
Exposed:
	addq t3, a0, t0
	addq t0, 1, v0
	ret (ra)
	.end Exposed

	.globl Shared
	.ent Shared
Shared:
	addq a0, 1, t0
	mov t0, v0
	ret (ra)
	.end Shared

	.globl Caller
	.ent Caller
Caller:
	lda sp, -16(sp)
	stq ra, 0(sp)
	bsr ra, Shared
	ldq ra, 0(sp)
	lda sp, 16(sp)
	ret (ra)
	.end Caller
`,
		},
		Instrument: func(q *Instrumentation) error {
			for _, p := range []string{"Leaf(long)", "Exposed(long)", "Shared(long)", "Caller(long)"} {
				if err := q.AddCallProto(p); err != nil {
					return err
				}
			}
			for _, p := range []string{"Leaf", "Caller"} {
				if err := q.AddCallProgram(ProgramBefore, p, int64(1)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// routineRegs returns the registers a routine of the final image names.
func routineRegs(t *testing.T, ti *ToolImage, name string) om.RegSet {
	t.Helper()
	sym, ok := ti.img.Lookup(name)
	if !ok {
		t.Fatalf("%s missing from the image", name)
	}
	var regs om.RegSet
	var buf [2]alpha.Reg
	for off := sym.Value - ti.img.TextAddr; off < sym.Value-ti.img.TextAddr+sym.Size; off += 4 {
		in, err := alpha.Decode(binary.LittleEndian.Uint32(ti.img.Text[off:]))
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := in.WritesReg(); ok {
			regs = regs.Add(w)
		}
		for _, r := range in.ReadsRegs(buf[:0]) {
			regs = regs.Add(r)
		}
	}
	return regs
}

// TestScratchRenaming: only a leaf that nothing but ATOM enters and
// that reads none of its scratch registers before writing them is
// renamed, to t11, t10, … downward; its site save set follows. The
// in-analysis mode leaves the saves of a leaf to its sites but splices
// those of a routine that calls others.
func TestScratchRenaming(t *testing.T) {
	set := func(rs ...alpha.Reg) om.RegSet {
		var s om.RegSet
		for _, r := range rs {
			s = s.Add(r)
		}
		return s
	}
	for _, mode := range []SaveMode{SaveWrapper, SaveInAnalysis} {
		ResetImageCache(build.ScopeMemory)
		ti, err := BuildToolImageCtx(nil, renameProbeTool(), Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			regs om.RegSet // registers the final routine names
			save om.RegSet // its site save set
		}{
			{"Leaf", set(alpha.A0, alpha.T11, alpha.T10, alpha.V0, alpha.RA), set(alpha.T11, alpha.T10, alpha.V0)},
			{"Exposed", set(alpha.A0, alpha.T3, alpha.T0, alpha.V0, alpha.RA), set(alpha.T0, alpha.V0)},
			{"Shared", set(alpha.A0, alpha.T0, alpha.V0, alpha.RA), set(alpha.T0, alpha.V0)},
		} {
			if mode == SaveWrapper {
				if got := routineRegs(t, ti, tc.name); got != tc.regs {
					t.Errorf("%s names %v, want %v", tc.name, got.Regs(), tc.regs.Regs())
				}
			}
			if got := ti.siteSave[tc.name]; got != tc.save {
				t.Errorf("mode %d: %s save set %v, want %v", mode, tc.name, got.Regs(), tc.save.Regs())
			}
		}
		want := set(alpha.T0, alpha.V0)
		if mode == SaveInAnalysis {
			want = 0 // spliced into Caller itself
		}
		if got := ti.siteSave["Caller"]; got != want {
			t.Errorf("mode %d: Caller's site save set %v, want %v", mode, got.Regs(), want.Regs())
		}
	}
}
