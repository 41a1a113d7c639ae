package dataflow_test

import (
	"testing"

	"atom/internal/alpha"
	"atom/internal/om"
	"atom/internal/om/dataflow"
	"atom/internal/rtl"
)

func buildSample(t *testing.T, src string) *om.Program {
	t.Helper()
	exe, err := rtl.BuildProgram("prog.c", src)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatalf("om.BuildCtx: %v", err)
	}
	return prog
}

func TestModifiedRegsSummary(t *testing.T) {
	prog := buildSample(t, `
long leaf_light(long a) { return a + 1; }
long leaf_heavy(long a) {
	long x1 = a * 3;
	long x2 = x1 * 5;
	long x3 = x2 * 7;
	long x4 = x3 * 11 + x1 * x2;
	return x4 - x3 * x2 + x1 * (x4 + 13);
}
long caller(long a) { return leaf_light(a) + 1; }
int main() { return caller(leaf_heavy(1)); }
`)
	mod := dataflow.ModifiedRegsCtx(nil, prog)
	light := mod["leaf_light"]
	heavy := mod["leaf_heavy"]
	caller := mod["caller"]
	if light == 0 || heavy == 0 {
		t.Fatal("summaries empty")
	}
	// Every summarized register is caller-save.
	for _, r := range light.Union(heavy).Union(caller).Regs() {
		if !r.IsCallerSave() {
			t.Errorf("summary contains callee-save register %s", r)
		}
	}
	// A caller's summary includes its callee's.
	if caller.Union(light) != caller {
		t.Errorf("caller summary %v does not include callee %v", caller.Regs(), light.Regs())
	}
	// v0 is modified by any value-returning routine.
	if !light.Has(alpha.V0) {
		t.Error("leaf_light summary lacks v0")
	}
	if _, ok := mod["main"]; !ok {
		t.Error("main missing from summary")
	}
	if om.AllCallerSave().Count() != 22 {
		t.Errorf("AllCallerSave = %d regs, want 22", om.AllCallerSave().Count())
	}
}

// TestConservativeCallerSavePinned pins the shared unknown-callee model:
// both analyses must derive their conservative behavior from one set,
// which is exactly the caller-save registers — and a procedure the
// summary can only treat conservatively (it contains a jsr) summarizes
// to exactly that set.
func TestConservativeCallerSavePinned(t *testing.T) {
	if got, want := dataflow.ConservativeCallerSave(), om.AllCallerSave(); got != want {
		t.Fatalf("ConservativeCallerSave = %v, want om.AllCallerSave = %v", got.Regs(), want.Regs())
	}
	if n := dataflow.ConservativeCallerSave().Count(); n != 22 {
		t.Fatalf("ConservativeCallerSave has %d registers, want 22", n)
	}

	// A procedure containing an indirect call: its summary is the full
	// conservative set, nothing more, nothing less.
	p := lift(t, 0x6000, 0x6000, nil, fn("ind",
		alpha.Inst{Op: alpha.OpJsr, Ra: alpha.RA, Rb: alpha.T0},
		alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA}))
	if got := dataflow.ModifiedRegsCtx(nil, p)["ind"]; got != dataflow.ConservativeCallerSave() {
		t.Errorf("jsr-containing proc summarizes to %v, want ConservativeCallerSave %v",
			got.Regs(), dataflow.ConservativeCallerSave().Regs())
	}

	// The liveness side of the same coin: everything in the conservative
	// set is live immediately before the jsr.
	lv := dataflow.ComputeCtx(nil, p)
	in := lv.LiveIn(instAt(t, p, 0x6000))
	for _, r := range dataflow.ConservativeCallerSave().Regs() {
		if !in.Has(r) {
			t.Errorf("%v dead before a jsr; the unknown callee may read it", r)
		}
	}
}
