package dataflow_test

import (
	"testing"

	"atom/internal/alpha"
	"atom/internal/om"
	"atom/internal/om/dataflow"
)

// Edge cases the generic engine inherits from liveness and must keep:
// indirect-transfer conservatism, single-block procedures, and
// convergence of the interprocedural summary fixpoint on mutual
// recursion. Plus a direct exercise of the Forward direction, which
// liveness never uses.

func reg(r alpha.Reg) om.RegSet { return om.RegSet(0).Add(r) }

// TestLivenessIndirectConservatism: jsr and a call_pal with a code the
// VM does not define have unknown callees, so everything is live
// immediately before them — even a register the block itself defined
// just above.
func TestLivenessIndirectConservatism(t *testing.T) {
	ret := alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA}
	jsr := alpha.Inst{Op: alpha.OpJsr, Ra: alpha.RA, Rb: alpha.PV}
	pal := alpha.Inst{Op: alpha.OpCallPal, PalFn: 0x3f}
	clrT0 := alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T0)

	for _, tc := range []struct {
		name string
		call alpha.Inst
	}{
		{"jsr", jsr},
		{"call_pal", pal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := lift(t, 0x1000, 0x1000, nil, fn("p", clrT0, tc.call, ret))
			lv := dataflow.ComputeCtx(nil, p)
			callIn := lv.LiveIn(instAt(t, p, 0x1004))
			for _, r := range []alpha.Reg{alpha.T0, alpha.S3, alpha.A0, alpha.AT} {
				if !callIn.Has(r) {
					t.Errorf("%s not live before %s: unknown callee must see everything", r, tc.name)
				}
			}
			// The write above the call still kills t0 at entry: the
			// conservative gen does not leak past a definition.
			if lv.LiveIn(instAt(t, p, 0x1000)).Has(alpha.T0) {
				t.Error("t0 live at entry despite being defined before any use")
			}
		})
	}
}

// TestLivenessSingleBlock: a one-block procedure (no CFG edges at all)
// still solves: operands live at entry, the result dead.
func TestLivenessSingleBlock(t *testing.T) {
	ret := alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA}
	p := lift(t, 0x1000, 0x1000, nil, fn("one", alpha.RR(alpha.OpAddq, alpha.A0, alpha.A1, alpha.V0), ret))
	lv := dataflow.ComputeCtx(nil, p)
	in := lv.LiveIn(instAt(t, p, 0x1000))
	if !in.Has(alpha.A0) || !in.Has(alpha.A1) {
		t.Errorf("operands not live at entry: %v", in.Regs())
	}
	if in.Has(alpha.V0) {
		t.Error("v0 live at entry despite being defined before the ret")
	}
	if lv.EntryLive("one") != in {
		t.Error("entry summary disagrees with the entry block's live-in")
	}
}

// TestLivenessMutualRecursion: two procedures calling each other through
// bsr converge to a finite summary fixpoint, with the caller-side kills
// (v0 defined before use in both, ra must-defined by bsr) visible in the
// entry summaries.
func TestLivenessMutualRecursion(t *testing.T) {
	ret := alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA}
	// a, the program entry, @ 0x1000: v0 = a0; bsr b; ret
	// b @ 0x100c: v0 = a1; beq t0, skip; bsr a; skip: ret
	p := lift(t, 0x1000, 0x1000, nil,
		fn("a",
			alpha.RR(alpha.OpAddq, alpha.A0, alpha.Zero, alpha.V0), // 0x1000
			bsr(0x1004, 0x100c), // 0x1004 -> b
			ret),                // 0x1008
		fn("b",
			alpha.RR(alpha.OpAddq, alpha.A1, alpha.Zero, alpha.V0), // 0x100c
			alpha.Br(alpha.OpBeq, alpha.T0, 1),                     // 0x1010 -> 0x1018
			bsr(0x1014, 0x1000),                                    // 0x1014 -> a
			ret))                                                   // 0x1018

	lv := dataflow.ComputeCtx(nil, p)
	if lv.Rounds < 2 {
		t.Errorf("mutual recursion converged in %d round(s); the summaries cannot have propagated", lv.Rounds)
	}
	ea, eb := lv.EntryLive("a"), lv.EntryLive("b")
	if ea.Has(alpha.V0) || eb.Has(alpha.V0) {
		t.Errorf("v0 live at an entry despite being defined first in both procs (a=%v b=%v)", ea.Regs(), eb.Regs())
	}
	if ea.Has(alpha.RA) {
		t.Error("ra live at a's entry despite the bsr must-define")
	}
	if !ea.Has(alpha.A0) || !ea.Has(alpha.A1) {
		t.Errorf("callee reads not propagated into a's summary: %v", ea.Regs())
	}
	if !eb.Has(alpha.T0) {
		t.Error("branch condition t0 not live at b's entry")
	}
}

// TestEngineForward drives the engine in the Forward direction (which
// liveness never uses) with a may-defined problem over a diamond: both
// arms define t0, the join block's output must contain it plus its own
// definition, and nothing else appears from nowhere.
func TestEngineForward(t *testing.T) {
	ret := alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA}
	pr := lift(t, 0x1000, 0x1000, nil, fn("d",
		alpha.Br(alpha.OpBeq, alpha.A0, 2),                                                   // b0 (0x1000) -> b2
		alpha.RI(alpha.OpAddq, alpha.Zero, 1, alpha.T0), alpha.Br(alpha.OpBr, alpha.Zero, 1), // b1 (0x1004)
		alpha.RI(alpha.OpAddq, alpha.Zero, 2, alpha.T0),           // b2 (0x100c)
		alpha.RR(alpha.OpAddq, alpha.T0, alpha.A0, alpha.V0), ret, // b3 (0x1010)
	)).Procs[0]

	sol := &dataflow.Solver{Problem: dataflow.Problem{
		Dir: dataflow.Forward,
		Transfer: func(in *om.Inst) dataflow.Transfer {
			tr := dataflow.Identity()
			if w, ok := in.I.WritesReg(); ok {
				tr.Gen = reg(w)
			}
			return tr
		},
	}}
	state := make([]om.RegSet, len(pr.Blocks))
	sol.SolveProc(pr, state)

	if want := reg(alpha.T0).Add(alpha.V0); state[3] != want {
		t.Errorf("join block out = %v, want %v", state[3].Regs(), want.Regs())
	}
	if state[0] != 0 {
		t.Errorf("entry block defines nothing but has out %v", state[0].Regs())
	}
	// Per-instruction materialization in program order: t0 is defined
	// before the join block's first instruction, v0 only after it.
	sol.VisitProc(pr, state, func(in *om.Inst, before, after om.RegSet) {
		if in.Addr != 0x1010 {
			return
		}
		if !before.Has(alpha.T0) || before.Has(alpha.V0) {
			t.Errorf("before join inst: %v", before.Regs())
		}
		if !after.Has(alpha.V0) {
			t.Errorf("after join inst: %v", after.Regs())
		}
	})
	if sol.Edges == 0 {
		t.Error("forward solve evaluated no edges")
	}
}
