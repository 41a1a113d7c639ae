package analysis_test

import (
	"strings"
	"testing"

	"atom/internal/aout"
	"atom/internal/asm"
	"atom/internal/link"
	"atom/internal/om"
	"atom/internal/om/analysis"
)

// lift assembles and links one source file and lifts it to the OM IR, so
// every pass is exercised against real pipeline output rather than
// hand-wired structs.
func lift(t *testing.T, src string) *om.Program {
	t.Helper()
	obj, err := asm.AssembleCtx(nil, "test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	exe, err := link.LinkCtx(nil, link.Config{}, []*aout.File{obj})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	p, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatalf("lift: %v", err)
	}
	return p
}

// run executes one named pass over a unit.
func run(t *testing.T, u *analysis.Unit, passes string) *analysis.Report {
	t.Helper()
	ps, err := analysis.Select(passes)
	if err != nil {
		t.Fatalf("select %q: %v", passes, err)
	}
	return analysis.Run(nil, u, ps)
}

// findings filters a report's findings to one pass.
func msgs(r *analysis.Report) []string {
	var out []string
	for _, f := range r.Findings {
		out = append(out, f.String())
	}
	return out
}

func wantFinding(t *testing.T, r *analysis.Report, substr string) {
	t.Helper()
	for _, f := range r.Findings {
		if strings.Contains(f.String(), substr) {
			return
		}
	}
	t.Errorf("no finding containing %q; have:\n%s", substr, strings.Join(msgs(r), "\n"))
}

func wantClean(t *testing.T, r *analysis.Report) {
	t.Helper()
	if !r.Clean() {
		t.Errorf("unit not clean; findings:\n%s", strings.Join(msgs(r), "\n"))
	}
}

const uninitSrc = `
	.text
	.globl __start
	.ent __start
__start:
	bsr ra, defect
	bsr ra, onepath
	clr a0
	call_pal 0
halt:
	br halt
	.end __start

	.globl defect
	.ent defect
defect:
	addq t0, 1, v0
	ret (ra)
	.end defect

	.globl onepath
	.ent onepath
onepath:
	beq a0, skip
	clr t1
skip:
	addq t1, 1, v0
	ret (ra)
	.end onepath
`

// TestUninitSeededDefect: a scratch register read at procedure entry is
// flagged; a register defined on only SOME path is not (the pass hunts
// reads no definition reaches, not style).
func TestUninitSeededDefect(t *testing.T) {
	p := lift(t, uninitSrc)
	r := run(t, &analysis.Unit{Name: "u", Kind: analysis.Application, Prog: p}, "uninit")
	wantFinding(t, r, "(defect): t0 read but no definition reaches it")
	for _, f := range r.Findings {
		if f.Proc != "defect" {
			t.Errorf("unexpected finding outside the seeded defect: %s", f)
		}
	}
	if r.Clean() {
		t.Error("report with a warn finding reports clean")
	}
}

// TestUninitCleanAfterCall: a call conservatively defines everything, so
// reads of scratch registers after it are not flagged.
func TestUninitCleanAfterCall(t *testing.T) {
	p := lift(t, `
	.text
	.globl __start
	.ent __start
__start:
	bsr ra, leaf
	addq v0, 1, t0
	addq t0, t1, a0
	call_pal 0
halt:
	br halt
	.end __start

	.globl leaf
	.ent leaf
leaf:
	clr v0
	ret (ra)
	.end leaf
`)
	r := run(t, &analysis.Unit{Name: "u", Kind: analysis.Application, Prog: p}, "uninit")
	wantClean(t, r)
}

func TestStackHeightSeededDefect(t *testing.T) {
	p := lift(t, `
	.text
	.globl __start
	.ent __start
__start:
	bsr ra, leak
	call_pal 0
halt:
	br halt
	.end __start

	.globl leak
	.ent leak
leak:
	lda sp, -16(sp)
	ret (ra)
	.end leak

	.globl good
	.ent good
good:
	lda sp, -16(sp)
	stq ra, 0(sp)
	ldq ra, 0(sp)
	lda sp, 16(sp)
	ret (ra)
	.end good
`)
	r := run(t, &analysis.Unit{Name: "u", Kind: analysis.Application, Prog: p}, "stackheight")
	wantFinding(t, r, "(leak): returns with unbalanced stack height -16")
	if len(r.Errors()) != 1 {
		t.Errorf("want exactly 1 error finding, have:\n%s", strings.Join(msgs(r), "\n"))
	}
}

func TestStackHeightUnauditableWrite(t *testing.T) {
	p := lift(t, `
	.text
	.globl __start
	.ent __start
__start:
	mov a0, sp
	call_pal 0
halt:
	br halt
	.end __start
`)
	r := run(t, &analysis.Unit{Name: "u", Kind: analysis.Application, Prog: p}, "stackheight")
	wantFinding(t, r, "unauditable stack-pointer write")
}

func TestToolLintSeededDefect(t *testing.T) {
	p := lift(t, `
	.text
	.globl __start
	.ent __start
__start:
	call_pal 0
halt:
	br halt
	.end __start

	.globl clobber
	.ent clobber
clobber:
	addq s0, 1, s0
	ret (ra)
	.end clobber

	.globl saved
	.ent saved
saved:
	lda sp, -16(sp)
	stq ra, 0(sp)
	stq s0, 8(sp)
	addq s0, 1, s0
	bsr ra, clobber
	ldq s0, 8(sp)
	ldq ra, 0(sp)
	lda sp, 16(sp)
	ret (ra)
	.end saved

	.globl lostra
	.ent lostra
lostra:
	bsr ra, clobber
	ret (ra)
	.end lostra
`)
	r := run(t, &analysis.Unit{Name: "tool", Kind: analysis.ToolImage, Prog: p}, "toollint")
	wantFinding(t, r, "(clobber): clobbers callee-save register s0 without a matching save/restore")
	wantFinding(t, r, "(lostra): calls other routines but returns without restoring ra")
	for _, f := range r.Findings {
		if f.Proc == "saved" {
			t.Errorf("well-disciplined procedure flagged: %s", f)
		}
	}
}

// TestToolLintAppliesOnlyToImages: the pass declares itself inapplicable
// to application units, so Run skips it there.
func TestToolLintAppliesOnlyToImages(t *testing.T) {
	p := lift(t, `
	.text
	.globl __start
	.ent __start
__start:
	addq s0, 1, s0
	call_pal 0
halt:
	br halt
	.end __start
`)
	r := run(t, &analysis.Unit{Name: "u", Kind: analysis.Application, Prog: p}, "toollint")
	if len(r.Passes) != 0 || len(r.Findings) != 0 {
		t.Errorf("toollint ran on an application unit: passes=%v findings=%v", r.Passes, msgs(r))
	}
}

func TestCallgraphDeadProc(t *testing.T) {
	p := lift(t, `
	.text
	.globl __start
	.ent __start
__start:
	bsr ra, alive
	call_pal 0
halt:
	br halt
	.end __start

	.globl alive
	.ent alive
alive:
	ret (ra)
	.end alive

	.globl dead
	.ent dead
dead:
	ret (ra)
	.end dead
`)
	r := run(t, &analysis.Unit{Name: "u", Kind: analysis.Application, Prog: p}, "callgraph")
	wantFinding(t, r, "(dead): unreachable from the entry point")
	wantFinding(t, r, "3 procedures, 2 reachable, 1 direct call edge, 0 indirect call sites")
	if !r.Clean() {
		t.Errorf("info-only report must be clean; findings:\n%s", strings.Join(msgs(r), "\n"))
	}
	for _, f := range r.Findings {
		if f.Proc == "alive" || f.Proc == "__start" {
			t.Errorf("reachable procedure flagged: %s", f)
		}
	}
}

// TestCallgraphIndirectKeepsAddressTaken: a jsr in reachable code makes
// every address-taken procedure reachable.
func TestCallgraphIndirectKeepsAddressTaken(t *testing.T) {
	p := lift(t, `
	.text
	.globl __start
	.ent __start
__start:
	la pv, taken
	jsr ra, (pv)
	call_pal 0
halt:
	br halt
	.end __start

	.globl taken
	.ent taken
taken:
	ret (ra)
	.end taken
`)
	r := run(t, &analysis.Unit{Name: "u", Kind: analysis.Application, Prog: p}, "callgraph")
	for _, f := range r.Findings {
		if strings.Contains(f.Msg, "dead procedure") {
			t.Errorf("address-taken procedure reported dead: %s", f)
		}
	}
	wantFinding(t, r, "1 indirect call site")
}

// TestSelectAndDeterminism: pass selection validates names, and two runs
// over the same unit render byte-identical reports.
func TestSelectAndDeterminism(t *testing.T) {
	if _, err := analysis.Select("nosuch"); err == nil {
		t.Error("Select accepted an unknown pass name")
	}
	ps, err := analysis.Select("")
	if err != nil || len(ps) != 4 {
		t.Fatalf("default selection: %v passes, err %v", len(ps), err)
	}
	p := lift(t, uninitSrc)
	u := &analysis.Unit{Name: "u", Kind: analysis.Application, Prog: p}
	var a, b strings.Builder
	ra := analysis.Run(nil, u, ps)
	ra.WriteText(&a)
	rb := analysis.Run(nil, u, ps)
	rb.WriteText(&b)
	if a.String() != b.String() {
		t.Errorf("non-deterministic report:\n%s\nvs\n%s", a.String(), b.String())
	}
	ja, err := analysis.MarshalReports([]*analysis.Report{ra})
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := analysis.MarshalReports([]*analysis.Report{rb})
	if string(ja) != string(jb) {
		t.Error("non-deterministic JSON report")
	}
	if !strings.Contains(string(ja), analysis.JSONSchema) {
		t.Errorf("JSON report missing schema marker %q", analysis.JSONSchema)
	}
}
