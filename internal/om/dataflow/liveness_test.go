package dataflow_test

import (
	"testing"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/om"
	"atom/internal/om/dataflow"
)

// lift links fns from textAddr with the given entry point and
// relocations (dataflow.Link) and returns the lifted program.
func lift(t *testing.T, textAddr, entry uint64, relocs []aout.Reloc, fns ...dataflow.Fn) *om.Program {
	t.Helper()
	p, err := dataflow.Link(textAddr, entry, relocs, fns...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// instAt returns the instruction at addr.
func instAt(t *testing.T, p *om.Program, addr uint64) *om.Inst {
	t.Helper()
	in := p.InstAt(addr)
	if in == nil {
		t.Fatalf("no instruction at %#x", addr)
	}
	return in
}

// fn is a dataflow.Fn.
func fn(name string, insts ...alpha.Inst) dataflow.Fn { return dataflow.Fn{Name: name, Insts: insts} }

// TestLivenessCFGs drives the analysis over small control-flow graphs
// and checks per-register verdicts at chosen points. Each procedure is
// the program entry, so its ret makes everything live at the block's
// exit (the continuation is unknown); the discriminating assertions are
// about registers proven DEAD — the analysis earning its keep — plus a
// few live ones as anchors.
func TestLivenessCFGs(t *testing.T) {
	ret := alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA}

	tests := []struct {
		name  string
		addr  uint64 // the procedure's start and the program entry
		insts []alpha.Inst
		at    uint64 // query point (LiveIn)
		dead  []alpha.Reg
		live  []alpha.Reg
	}{
		{
			// Entry of a diamond: t0 is defined on both arms before its
			// join-point use, v0 only written — both dead at entry; the
			// branch condition a1 and the join operand a0 are live.
			name: "diamond",
			addr: 0x1000,
			insts: []alpha.Inst{
				alpha.Br(alpha.OpBeq, alpha.A1, 2),                   // 0x1000 -> 0x100c
				alpha.RI(alpha.OpAddq, alpha.Zero, 1, alpha.T0),      // 0x1004
				alpha.Br(alpha.OpBr, alpha.Zero, 1),                  // 0x1008 -> 0x1010
				alpha.RI(alpha.OpAddq, alpha.Zero, 2, alpha.T0),      // 0x100c
				alpha.RR(alpha.OpAddq, alpha.T0, alpha.A0, alpha.V0), // 0x1010
				ret, // 0x1014
			},
			at:   0x1000,
			dead: []alpha.Reg{alpha.T0, alpha.V0},
			live: []alpha.Reg{alpha.A0, alpha.A1},
		},
		{
			// Loop header: t0 is live around the back edge (incremented
			// every iteration, consumed after the loop), a0 is the trip
			// count. Query at the bne so the back-edge flow matters.
			name: "loop-header",
			addr: 0x2000,
			insts: []alpha.Inst{
				alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T0),        // 0x2000
				alpha.RI(alpha.OpAddq, alpha.T0, 1, alpha.T0),          // 0x2004
				alpha.RI(alpha.OpSubq, alpha.A0, 1, alpha.A0),          // 0x2008
				alpha.Br(alpha.OpBne, alpha.A0, -3),                    // 0x200c -> 0x2004
				alpha.RR(alpha.OpAddq, alpha.T0, alpha.Zero, alpha.V0), // 0x2010
				ret,
			},
			at:   0x200c,
			dead: []alpha.Reg{alpha.V0},
			live: []alpha.Reg{alpha.T0, alpha.A0},
		},
		{
			// The same loop at procedure entry: t0 is defined before any
			// use, so it is dead there despite being loop-carried inside.
			name: "loop-entry",
			addr: 0x2000,
			insts: []alpha.Inst{
				alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T0),
				alpha.RI(alpha.OpAddq, alpha.T0, 1, alpha.T0),
				alpha.RI(alpha.OpSubq, alpha.A0, 1, alpha.A0),
				alpha.Br(alpha.OpBne, alpha.A0, -3),
				alpha.RR(alpha.OpAddq, alpha.T0, alpha.Zero, alpha.V0),
				ret,
			},
			at:   0x2000,
			dead: []alpha.Reg{alpha.T0, alpha.V0},
			live: []alpha.Reg{alpha.A0},
		},
		{
			// An unreachable block still gets a sound solution: t5 is
			// dead on the reachable path (the last block defines it
			// before the ret) but live inside the unreachable block,
			// which reads it.
			name: "unreachable-block",
			addr: 0x3000,
			insts: []alpha.Inst{
				alpha.Br(alpha.OpBr, alpha.Zero, 1),                    // 0x3000 -> 0x3008
				alpha.RR(alpha.OpAddq, alpha.T5, alpha.Zero, alpha.V0), // 0x3004 (unreachable)
				alpha.RI(alpha.OpAddq, alpha.Zero, 7, alpha.T5),        // 0x3008
				ret,
			},
			at:   0x3000,
			dead: []alpha.Reg{alpha.T5},
			live: []alpha.Reg{alpha.A0},
		},
		{
			// A block ending in an indirect jump: everything flowing into
			// the jmp is live (unknown continuation), but a register
			// defined before it with no intervening use is still dead.
			name: "indirect-jump",
			addr: 0x4000,
			insts: []alpha.Inst{
				alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T1),
				{Op: alpha.OpJmp, Ra: alpha.Zero, Rb: alpha.T0},
			},
			at:   0x4000,
			dead: []alpha.Reg{alpha.T1},
			live: []alpha.Reg{alpha.T0, alpha.T7},
		},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := lift(t, tc.addr, tc.addr, nil, fn(tc.name, tc.insts...))
			lv := dataflow.ComputeCtx(nil, p)
			got := lv.LiveIn(instAt(t, p, tc.at))
			for _, r := range tc.dead {
				if got.Has(r) {
					t.Errorf("%s: %v live at %#x, want dead (live set %v)", tc.name, r, tc.at, got.Regs())
				}
			}
			for _, r := range tc.live {
				if !got.Has(r) {
					t.Errorf("%s: %v dead at %#x, want live (live set %v)", tc.name, r, tc.at, got.Regs())
				}
			}
			if lv.Rounds < 1 {
				t.Errorf("%s: no fixpoint rounds recorded", tc.name)
			}
		})
	}
}

// TestLivenessEntrySummaries: a bsr's effect on its caller depends on
// the callee's entry summary. A callee that defines t9 before any use
// makes t9 dead across the call site; a callee that reads t9 keeps it
// live. And ra is dead immediately before any resolved bsr (the bsr
// itself must-defines it).
func TestLivenessEntrySummaries(t *testing.T) {
	ret := alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA}
	// Both callers redefine t9 right after the call, so nothing after
	// the site keeps it alive — only the callee's entry summary can.
	p := lift(t, 0x5000, 0x5000, nil,
		fn("callKill", bsr(0x5000, 0x5018), alpha.RI(alpha.OpAddq, alpha.Zero, 3, alpha.T9), ret), // 0x5000
		fn("callRead", bsr(0x500c, 0x5020), alpha.RI(alpha.OpAddq, alpha.Zero, 3, alpha.T9), ret), // 0x500c
		// kill defines t9 then returns; read consumes t9.
		fn("kill", alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T9), ret),        // 0x5018
		fn("read", alpha.RR(alpha.OpAddq, alpha.T9, alpha.Zero, alpha.V0), ret), // 0x5020
	)
	lv := dataflow.ComputeCtx(nil, p)

	if e := lv.EntryLive("kill"); e.Has(alpha.T9) {
		t.Errorf("kill's entry summary has t9 live: %v", e.Regs())
	}
	if e := lv.EntryLive("read"); !e.Has(alpha.T9) {
		t.Errorf("read's entry summary lacks t9: %v", e.Regs())
	}

	atKill := lv.LiveIn(instAt(t, p, 0x5000))
	atRead := lv.LiveIn(instAt(t, p, 0x500c))
	if atKill.Has(alpha.T9) {
		t.Errorf("t9 live before bsr kill, want dead: %v", atKill.Regs())
	}
	if !atRead.Has(alpha.T9) {
		t.Errorf("t9 dead before bsr read, want live: %v", atRead.Regs())
	}
	for name, s := range map[string]om.RegSet{"callKill": atKill, "callRead": atRead} {
		if s.Has(alpha.RA) {
			t.Errorf("%s: ra live before a resolved bsr, but bsr must-defines it", name)
		}
	}
}

// TestLivenessUnknownInst: instructions outside the analyzed program
// report everything live (fail-safe default), even one at an address
// where the program has an instruction of its own.
func TestLivenessUnknownInst(t *testing.T) {
	// p's procedure is neither the entry nor called, so its own first
	// instruction has only ra live.
	body := fn("f", alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T0), retInst)
	p := lift(t, 0x9000, 0, nil, body)
	other := lift(t, 0x9000, 0, nil, body)
	lv := dataflow.ComputeCtx(nil, p)
	if got := lv.LiveIn(instAt(t, p, 0x9000)); got != reg(alpha.RA) {
		t.Fatalf("own instruction: live-in %v, want only ra", got.Regs())
	}
	stray := instAt(t, other, 0x9000)
	if got := lv.LiveIn(stray); !got.Has(alpha.T0) || !got.Has(alpha.S0) {
		t.Errorf("unknown instruction not all-live: %v", got.Regs())
	}
	if got := lv.LiveOut(stray); !got.Has(alpha.V0) {
		t.Errorf("unknown instruction's live-out not all-live: %v", got.Regs())
	}
	if got := lv.EntryLive("nope"); !got.Has(alpha.RA) {
		t.Errorf("unknown procedure's entry not all-live: %v", got.Regs())
	}
}

// lastInst returns the last instruction of the named procedure.
func lastInst(p *om.Program, name string) *om.Inst {
	blocks := p.Proc(name).Blocks
	b := blocks[len(blocks)-1]
	return &b.Insts[len(b.Insts)-1]
}

var (
	retInst = alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA}
	// spin is a one-instruction block branching to itself: a
	// continuation that reads nothing.
	spin = alpha.Br(alpha.OpBr, alpha.Zero, -1)
)

func bsr(from, to uint64) alpha.Inst {
	return alpha.Br(alpha.OpBsr, alpha.RA, int32((int64(to)-int64(from)-4)/4))
}

// TestLivenessExitSummaryUnion: a ret reads its procedure's exit
// summary, the union of what is live just after each call to it — t1
// after the first call site, t2 after the second — and nothing else.
func TestLivenessExitSummaryUnion(t *testing.T) {
	p := lift(t, 0x1000, 0x1018, nil,
		fn("f", retInst), // 0x1000
		fn("c", // 0x1004
			bsr(0x1004, 0x1000),
			alpha.RR(alpha.OpAddq, alpha.T1, alpha.Zero, alpha.V0),
			bsr(0x100c, 0x1000),
			alpha.RR(alpha.OpAddq, alpha.T2, alpha.Zero, alpha.V0),
			retInst),
		fn("main", bsr(0x1018, 0x1004), spin), // 0x1018
	)
	lv := dataflow.ComputeCtx(nil, p)

	want := reg(alpha.T1).Add(alpha.T2).Add(alpha.RA)
	if got := lv.LiveIn(lastInst(p, "f")); got != want {
		t.Errorf("f's ret reads %v, want %v (t1 and t2 from its two call sites, ra)", got.Regs(), want.Regs())
	}
	// c's only caller continues into a loop that reads nothing.
	if got := lv.LiveIn(lastInst(p, "c")); got != reg(alpha.RA) {
		t.Errorf("c's ret reads %v, want only ra", got.Regs())
	}
	// c reads t1 and t2 after calls that do not define them, so both
	// are live at its entry and before main's call to it; ra is
	// must-defined by that bsr.
	if got, want := lv.LiveIn(instAt(t, p, 0x1018)), reg(alpha.T1).Add(alpha.T2); got != want {
		t.Errorf("live before main's call = %v, want %v", got.Regs(), want.Regs())
	}
}

// TestLivenessCallKills: a register the callee overwrites on every
// path is dead before the call even though the caller reads it after
// the call — the continuation reaches the callee's exit summary, so the
// call's live-in is exactly the callee's entry summary.
func TestLivenessCallKills(t *testing.T) {
	p := lift(t, 0x1000, 0x1014, nil,
		fn("f", alpha.RI(alpha.OpAddq, alpha.Zero, 1, alpha.T3), retInst),                             // 0x1000
		fn("c", bsr(0x1008, 0x1000), alpha.RR(alpha.OpAddq, alpha.T3, alpha.Zero, alpha.V0), retInst), // 0x1008
		fn("main", bsr(0x1014, 0x1008), spin),                                                         // 0x1014
	)
	lv := dataflow.ComputeCtx(nil, p)
	call := instAt(t, p, 0x1008)
	if !lv.LiveOut(call).Has(alpha.T3) {
		t.Errorf("t3 dead after the call, but c reads it: %v", lv.LiveOut(call).Regs())
	}
	if lv.LiveIn(call).Has(alpha.T3) {
		t.Errorf("t3 live before the call, but f overwrites it first: %v", lv.LiveIn(call).Regs())
	}
}

// TestLivenessAllLiveExits: a procedure keeps an all-live exit whenever
// its rets may return to code no resolved bsr accounts for — it is the
// program entry, its address is taken by a non-branch relocation, a
// branch from another procedure or a bsr into its middle reaches it, or
// the procedure before it can fall into it — which a trailing call does
// only if its callee can return.
func TestLivenessAllLiveExits(t *testing.T) {
	// g (0x1100) is a leaf nobody calls; h ends right where g starts and,
	// by default, in a loop, so neither g's entry nor its exit is
	// reachable from anywhere. main (0x1108) is the program entry.
	g := fn("g", alpha.RR(alpha.OpAddq, alpha.A0, alpha.Zero, alpha.V0), retInst)
	main := fn("main", spin)
	type build func(t *testing.T) *om.Program
	withH := func(hBody ...alpha.Inst) build {
		return func(t *testing.T) *om.Program {
			return lift(t, 0x1100-4*uint64(len(hBody)), 0x1108, nil, fn("h", hBody...), g, main)
		}
	}
	for _, tc := range []struct {
		name    string
		build   build
		allLive bool
	}{
		{"uncalled", withH(spin), false},
		{"entry", func(t *testing.T) *om.Program {
			return lift(t, 0x10fc, 0x1100, nil, fn("h", spin), g, main)
		}, true},
		{"address-taken", func(t *testing.T) *om.Program {
			// Symbol 1 is g.
			return lift(t, 0x10fc, 0x1108, []aout.Reloc{{Section: aout.SecData, Offset: 0, Type: aout.RelQuad, Sym: 1}},
				fn("h", spin), g, main)
		}, true},
		{"cross-procedure-branch", withH(alpha.Br(alpha.OpBr, alpha.Zero, 0)), true},
		{"bsr-into-middle", withH(bsr(0x10f8, 0x1104), spin), true},
		{"fall-through", withH(alpha.RI(alpha.OpAddq, alpha.Zero, 1, alpha.T0)), true},
		// h ends in a call, as a startup routine ends in its call to
		// exit: control falls into g only if the callee can return.
		{"trailing-call-returns", trailingCall(g, main, retInst), true},
		{"trailing-call-never-returns", trailingCall(g, main, spin), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build(t)
			lv := dataflow.ComputeCtx(nil, p)
			got := lv.LiveIn(lastInst(p, "g"))
			want := reg(alpha.RA)
			if tc.allLive {
				want = dataflow.AllRegs()
			}
			if got != want {
				t.Errorf("g's ret reads %v, want %v", got.Regs(), want.Regs())
			}
		})
	}
}

// trailingCall builds h (0x10fc, a lone bsr to x), g, main and x (0x110c,
// the procedure after main), with x's body the given single instruction.
func trailingCall(g, main dataflow.Fn, xBody alpha.Inst) func(t *testing.T) *om.Program {
	return func(t *testing.T) *om.Program {
		return lift(t, 0x10fc, 0x1108, nil, fn("h", bsr(0x10fc, 0x110c)), g, main, fn("x", xBody))
	}
}

// TestLivenessPalContract: every PAL code the VM defines reads exactly
// a0–a2 and writes v0, so a register live after it stays live before
// it, v0 does not, and the arguments join; a code the VM does not define
// is an unknown callee and keeps everything live.
func TestLivenessPalContract(t *testing.T) {
	args := reg(alpha.A0).Add(alpha.A1).Add(alpha.A2)
	// p is not the program entry: its ret reads only ra.
	body := func(code uint32) *om.Program {
		return lift(t, 0x1000, 0, nil, fn("p",
			alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T3), // 0x1000
			alpha.Inst{Op: alpha.OpCallPal, PalFn: code},    // 0x1004
			alpha.RR(alpha.OpAddq, alpha.V0, alpha.T0, alpha.T1),
			retInst))
	}
	for fn := uint32(0); alpha.PalDefined(fn); fn++ {
		p := body(fn)
		lv := dataflow.ComputeCtx(nil, p)
		pal := instAt(t, p, 0x1004)
		after := reg(alpha.V0).Add(alpha.T0).Add(alpha.RA)
		if got := lv.LiveOut(pal); got != after {
			t.Fatalf("PAL %#x: live after = %v, want %v", fn, got.Regs(), after.Regs())
		}
		if got, want := lv.LiveIn(pal), reg(alpha.T0).Add(alpha.RA)|args; got != want {
			t.Errorf("PAL %#x: live before = %v, want %v", fn, got.Regs(), want.Regs())
		}
	}
	for _, fn := range []uint32{0x08, 0x3f, 1<<26 - 1} {
		if alpha.PalDefined(fn) {
			t.Fatalf("PAL %#x defined", fn)
		}
		p := body(fn)
		lv := dataflow.ComputeCtx(nil, p)
		if got := lv.LiveIn(instAt(t, p, 0x1004)); got != dataflow.AllRegs() {
			t.Errorf("undefined PAL %#x: live before = %v, want everything", fn, got.Regs())
		}
		if lv.LiveIn(instAt(t, p, 0x1000)).Has(alpha.T3) {
			t.Errorf("undefined PAL %#x: t3 live at entry despite its definition", fn)
		}
	}
}
