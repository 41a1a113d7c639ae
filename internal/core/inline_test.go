package core

import (
	"strings"
	"testing"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/asm"
	"atom/internal/link"
	"atom/internal/om"
)

// classifyFrom assembles a module, links it like an analysis image, and
// runs the inline classifier on one procedure.
func classifyFrom(t *testing.T, name, src string) (*inlineTemplate, string) {
	t.Helper()
	obj, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	img, err := link.Link(link.Config{
		TextAddr:      link.DefaultTextAddr,
		DataAfterText: true,
		Entry:         "-",
		ZeroBss:       true,
	}, []*aout.File{obj})
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := om.Build(img)
	if err != nil {
		t.Fatalf("om.Build: %v", err)
	}
	pr := prog.Proc(name)
	if pr == nil {
		t.Fatalf("procedure %q not found", name)
	}
	return classifyInline(pr, img)
}

func mustInline(t *testing.T, name, src string) *inlineTemplate {
	t.Helper()
	tmpl, reason := classifyFrom(t, name, src)
	if tmpl == nil {
		t.Fatalf("%s: expected inlinable, got rejection: %s", name, reason)
	}
	return tmpl
}

func mustReject(t *testing.T, name, src, wantReason string) {
	t.Helper()
	tmpl, reason := classifyFrom(t, name, src)
	if tmpl != nil {
		t.Fatalf("%s: expected rejection (%s), classified inlinable", name, wantReason)
	}
	if !strings.Contains(reason, wantReason) {
		t.Fatalf("%s: rejection reason = %q, want it to mention %q", name, reason, wantReason)
	}
}

// A frameless straight-line leaf: the whole body minus the trailing ret
// is the template, and everything written is in the clobber set.
func TestInlineClassifyLeaf(t *testing.T) {
	tmpl := mustInline(t, "Leaf", `
	.text
	.globl Leaf
	.ent Leaf
Leaf:
	addq a0, 1, t0
	addq t0, a1, v0
	ret (ra)
	.end Leaf
`)
	if tmpl.bodyLen != 3 {
		t.Errorf("bodyLen = %d, want 3", tmpl.bodyLen)
	}
	if len(tmpl.insts) != 2 {
		t.Errorf("template insts = %d, want 2 (trailing ret dropped)", len(tmpl.insts))
	}
	want := om.RegSet(0).Add(alpha.T0).Add(alpha.V0)
	if tmpl.clobbers != want {
		t.Errorf("clobbers = %v, want %v", tmpl.clobbers.Regs(), want.Regs())
	}
}

// A compiler-shaped body: frame allocation, ra save, work, ra restore,
// frame deallocation, ret. The save/restore pair must be stripped and ra
// must NOT appear in the clobber set — that is the whole point.
func TestInlineClassifyStripsRaSave(t *testing.T) {
	tmpl := mustInline(t, "Framed", `
	.text
	.globl Framed
	.ent Framed
Framed:
	lda sp, -16(sp)
	stq ra, 8(sp)
	addq a0, 1, t0
	ldq ra, 8(sp)
	lda sp, 16(sp)
	ret (ra)
	.end Framed
`)
	if tmpl.bodyLen != 6 {
		t.Errorf("bodyLen = %d, want 6", tmpl.bodyLen)
	}
	// Save and restore of ra stripped, trailing ret dropped: the frame
	// ldas and the add survive.
	if len(tmpl.insts) != 3 {
		t.Errorf("template insts = %d, want 3, got %v", len(tmpl.insts), tmpl.insts)
	}
	if tmpl.clobbers.Has(alpha.RA) {
		t.Errorf("clobbers include ra despite the stripped save/restore")
	}
	if !tmpl.clobbers.Has(alpha.T0) {
		t.Errorf("clobbers miss t0")
	}
}

// A ret in the middle becomes a forward branch to the end of the
// template; the trailing ret is dropped.
func TestInlineClassifyRetInMiddle(t *testing.T) {
	tmpl := mustInline(t, "Mid", `
	.text
	.globl Mid
	.ent Mid
Mid:
	beq a0, skip
	ret (ra)
skip:
	addq a0, 1, t0
	ret (ra)
	.end Mid
`)
	if len(tmpl.insts) != 3 {
		t.Fatalf("template insts = %d, want 3", len(tmpl.insts))
	}
	mid := tmpl.insts[1]
	if mid.Op != alpha.OpBr || mid.Ra != alpha.Zero {
		t.Fatalf("mid ret not rewritten to br zero: %v", mid)
	}
	// From position 1, the end of a 3-instruction template is disp 1.
	if mid.Disp != 1 {
		t.Errorf("mid ret branch disp = %d, want 1", mid.Disp)
	}
}

func TestInlineClassifyRejections(t *testing.T) {
	mustReject(t, "Calls", `
	.text
	.globl Calls
	.globl Other
	.ent Calls
Calls:
	bsr ra, Other
	ret (ra)
	.end Calls
	.ent Other
Other:
	ret (ra)
	.end Other
`, "not a leaf")

	mustReject(t, "Gp", `
	.text
	.globl Gp
	.ent Gp
Gp:
	lda gp, 0(gp)
	ret (ra)
	.end Gp
`, "reloads gp")

	mustReject(t, "Pal", `
	.text
	.globl Pal
	.ent Pal
Pal:
	call_pal 0
	ret (ra)
	.end Pal
`, "PAL call")

	mustReject(t, "Callee", `
	.text
	.globl Callee
	.ent Callee
Callee:
	addq s0, 1, s0
	ret (ra)
	.end Callee
`, "callee-save")

	mustReject(t, "ReadsRa", `
	.text
	.globl ReadsRa
	.ent ReadsRa
ReadsRa:
	addq ra, 1, t0
	ret (ra)
	.end ReadsRa
`, "reads ra")

	mustReject(t, "SpTwiddle", `
	.text
	.globl SpTwiddle
	.ent SpTwiddle
SpTwiddle:
	addq sp, 8, sp
	ret (ra)
	.end SpTwiddle
`, "stack-pointer")
}

// Size does not fail classification — the limit is an apply-time policy —
// but bodyLen must be honest so inlineLimit can gate on it.
func TestInlineClassifyOversize(t *testing.T) {
	var b strings.Builder
	b.WriteString("\t.text\n\t.globl Big\n\t.ent Big\nBig:\n")
	for i := 0; i < inlineLimit+4; i++ {
		b.WriteString("\taddq t0, 1, t0\n")
	}
	b.WriteString("\tret (ra)\n\t.end Big\n")
	tmpl := mustInline(t, "Big", b.String())
	if tmpl.bodyLen != inlineLimit+5 {
		t.Errorf("bodyLen = %d, want %d", tmpl.bodyLen, inlineLimit+5)
	}
	if tmpl.bodyLen <= inlineLimit {
		t.Errorf("oversize body not above the default limit; test is vacuous")
	}
}

// Internal branches are re-indexed relative to the template after
// stripping, including branches that target stripped instructions (the
// MiniC epilogue pattern: `br` into the restore run).
func TestInlineClassifyBranchReindex(t *testing.T) {
	tmpl := mustInline(t, "Br", `
	.text
	.globl Br
	.ent Br
Br:
	lda sp, -16(sp)
	stq ra, 8(sp)
	beq a0, out
	addq a0, 1, t0
out:
	ldq ra, 8(sp)
	lda sp, 16(sp)
	ret (ra)
	.end Br
`)
	// stq/ldq of ra stripped, ret dropped: lda, beq, addq, lda survive.
	if len(tmpl.insts) != 4 {
		t.Fatalf("template insts = %d, want 4: %v", len(tmpl.insts), tmpl.insts)
	}
	beq := tmpl.insts[1]
	if beq.Op != alpha.OpBeq {
		t.Fatalf("insts[1] = %v, want beq", beq)
	}
	// The beq targeted the stripped `ldq ra`; it must redirect to the
	// next surviving instruction, the closing `lda sp, 16(sp)` at
	// template position 3 — disp 1 from position 1.
	if beq.Disp != 1 {
		t.Errorf("beq disp = %d, want 1 (redirect past stripped restore)", beq.Disp)
	}
}

// Address constants in the body (la → ldah/lda with Hi16/Lo16 relocs)
// are re-expressed against the synthetic image-base symbol with the
// target's canonical offset as addend.
func TestInlineClassifyRelocRebase(t *testing.T) {
	tmpl := mustInline(t, "Counts", `
	.text
	.globl Counts
	.ent Counts
Counts:
	la t0, cell
	ldq t1, 0(t0)
	addq t1, 1, t1
	stq t1, 0(t0)
	ret (ra)
	.end Counts

	.data
cell:
	.quad 0
`)
	if len(tmpl.relocs) != 2 {
		t.Fatalf("template relocs = %d, want 2 (hi/lo pair)", len(tmpl.relocs))
	}
	for _, r := range tmpl.relocs {
		if r.Sym != inlineBaseSym {
			t.Errorf("reloc sym = %q, want %q", r.Sym, inlineBaseSym)
		}
		if r.Addend <= 0 {
			t.Errorf("reloc addend = %d, want positive offset from the image base", r.Addend)
		}
	}
	if tmpl.relocs[0].Type != aout.RelHi16 || tmpl.relocs[1].Type != aout.RelLo16 {
		t.Errorf("reloc types = %v/%v, want Hi16/Lo16", tmpl.relocs[0].Type, tmpl.relocs[1].Type)
	}
}
