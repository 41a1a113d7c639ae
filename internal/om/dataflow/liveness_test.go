package dataflow_test

import (
	"testing"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/om"
	"atom/internal/om/dataflow"
)

// mkProc hand-builds one procedure from instruction rows: blocks[i] is
// the instruction sequence of block i, succs[i] its successor block
// indices. Addresses are assigned sequentially from addr so branch
// displacements inside the rows can be computed against the layout.
func mkProc(name string, index int, addr uint64, blocks [][]alpha.Inst, succs [][]int) *om.Proc {
	pr := &om.Proc{Name: name, Index: index, Addr: addr}
	a := addr
	for bi, row := range blocks {
		b := &om.Block{Index: bi}
		for _, in := range row {
			b.Insts = append(b.Insts, &om.Inst{I: in, Addr: a})
			a += 4
		}
		pr.Blocks = append(pr.Blocks, b)
	}
	for bi, ss := range succs {
		for _, si := range ss {
			pr.Blocks[bi].Succs = append(pr.Blocks[bi].Succs, pr.Blocks[si])
		}
	}
	pr.Size = a - addr
	return pr
}

// firstInst returns the first instruction of block bi of proc pi.
func firstInst(p *om.Program, pi, bi int) *om.Inst {
	return p.Procs[pi].Blocks[bi].Insts[0]
}

// TestLivenessCFGs drives the analysis over hand-built control-flow
// graphs and checks per-register verdicts at chosen points. Because a
// ret makes everything live at the block's exit (the continuation is
// unknown), the discriminating assertions are about registers proven
// DEAD — the analysis earning its keep — plus a few live ones as
// anchors.
func TestLivenessCFGs(t *testing.T) {
	ret := alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA}

	tests := []struct {
		name  string
		prog  *om.Program
		at    func(p *om.Program) *om.Inst // query point (LiveIn)
		dead  []alpha.Reg
		live  []alpha.Reg
		debug string
	}{
		{
			// Entry of a diamond: t0 is defined on both arms before its
			// join-point use, v0 only written — both dead at entry; the
			// branch condition a1 and the join operand a0 are live.
			name: "diamond",
			prog: &om.Program{Procs: []*om.Proc{mkProc("d", 0, 0x1000,
				[][]alpha.Inst{
					{alpha.Br(alpha.OpBeq, alpha.A1, 2)},                                                   // 0x1000 -> 0x100c
					{alpha.RI(alpha.OpAddq, alpha.Zero, 1, alpha.T0), alpha.Br(alpha.OpBr, alpha.Zero, 1)}, // 0x1004,0x1008 -> 0x1010
					{alpha.RI(alpha.OpAddq, alpha.Zero, 2, alpha.T0)},                                      // 0x100c
					{alpha.RR(alpha.OpAddq, alpha.T0, alpha.A0, alpha.V0), ret},                            // 0x1010,0x1014
				},
				[][]int{{1, 2}, {3}, {3}, {}},
			)}},
			at:   func(p *om.Program) *om.Inst { return firstInst(p, 0, 0) },
			dead: []alpha.Reg{alpha.T0, alpha.V0},
			live: []alpha.Reg{alpha.A0, alpha.A1},
		},
		{
			// Loop header: t0 is live around the back edge (incremented
			// every iteration, consumed after the loop), a0 is the trip
			// count. Query at the bne so the back-edge flow matters.
			name: "loop-header",
			prog: &om.Program{Procs: []*om.Proc{mkProc("l", 0, 0x2000,
				[][]alpha.Inst{
					{alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T0)}, // 0x2000
					{alpha.RI(alpha.OpAddq, alpha.T0, 1, alpha.T0), // 0x2004
						alpha.RI(alpha.OpSubq, alpha.A0, 1, alpha.A0), // 0x2008
						alpha.Br(alpha.OpBne, alpha.A0, -3)},          // 0x200c -> 0x2004
					{alpha.RR(alpha.OpAddq, alpha.T0, alpha.Zero, alpha.V0), ret}, // 0x2010
				},
				[][]int{{1}, {2, 1}, {}},
			)}},
			at:   func(p *om.Program) *om.Inst { return p.Procs[0].Blocks[1].Insts[2] },
			dead: []alpha.Reg{alpha.V0},
			live: []alpha.Reg{alpha.T0, alpha.A0},
		},
		{
			// The same loop at procedure entry: t0 is defined before any
			// use, so it is dead there despite being loop-carried inside.
			name: "loop-entry",
			prog: &om.Program{Procs: []*om.Proc{mkProc("l", 0, 0x2000,
				[][]alpha.Inst{
					{alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T0)},
					{alpha.RI(alpha.OpAddq, alpha.T0, 1, alpha.T0),
						alpha.RI(alpha.OpSubq, alpha.A0, 1, alpha.A0),
						alpha.Br(alpha.OpBne, alpha.A0, -3)},
					{alpha.RR(alpha.OpAddq, alpha.T0, alpha.Zero, alpha.V0), ret},
				},
				[][]int{{1}, {2, 1}, {}},
			)}},
			at:   func(p *om.Program) *om.Inst { return firstInst(p, 0, 0) },
			dead: []alpha.Reg{alpha.T0, alpha.V0},
			live: []alpha.Reg{alpha.A0},
		},
		{
			// An unreachable block still gets a sound solution: t5 is
			// dead on the reachable path (b2 defines it before the ret)
			// but live inside unreachable b1, which reads it.
			name: "unreachable-block",
			prog: &om.Program{Procs: []*om.Proc{mkProc("u", 0, 0x3000,
				[][]alpha.Inst{
					{alpha.Br(alpha.OpBr, alpha.Zero, 1)},                    // 0x3000 -> 0x3008
					{alpha.RR(alpha.OpAddq, alpha.T5, alpha.Zero, alpha.V0)}, // 0x3004 (unreachable)
					{alpha.RI(alpha.OpAddq, alpha.Zero, 7, alpha.T5), ret},   // 0x3008
				},
				[][]int{{2}, {2}, {}},
			)}},
			at:   func(p *om.Program) *om.Inst { return firstInst(p, 0, 0) },
			dead: []alpha.Reg{alpha.T5},
			live: []alpha.Reg{alpha.A0},
		},
		{
			// A block ending in an indirect jump: everything flowing into
			// the jmp is live (unknown continuation), but a register
			// defined before it with no intervening use is still dead.
			name: "indirect-jump",
			prog: &om.Program{Procs: []*om.Proc{mkProc("j", 0, 0x4000,
				[][]alpha.Inst{
					{alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T1),
						alpha.Inst{Op: alpha.OpJmp, Ra: alpha.Zero, Rb: alpha.T0}},
				},
				[][]int{{}},
			)}},
			at:   func(p *om.Program) *om.Inst { return firstInst(p, 0, 0) },
			dead: []alpha.Reg{alpha.T1},
			live: []alpha.Reg{alpha.T0, alpha.T7},
		},
	}

	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			lv := dataflow.ComputeCtx(nil, tc.prog)
			in := tc.at(tc.prog)
			got := lv.LiveIn(in)
			for _, r := range tc.dead {
				if got.Has(r) {
					t.Errorf("%s: %v live at %#x, want dead (live set %v)", tc.name, r, in.Addr, got.Regs())
				}
			}
			for _, r := range tc.live {
				if !got.Has(r) {
					t.Errorf("%s: %v dead at %#x, want live (live set %v)", tc.name, r, in.Addr, got.Regs())
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
	bsrTo := func(from, to uint64) alpha.Inst {
		return alpha.Br(alpha.OpBsr, alpha.RA, int32((int64(to)-int64(from)-4)/4))
	}

	// kill: defines t9 then returns. read: consumes t9.
	kill := mkProc("kill", 2, 0x5100, [][]alpha.Inst{
		{alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T9), ret},
	}, [][]int{{}})
	read := mkProc("read", 3, 0x5200, [][]alpha.Inst{
		{alpha.RR(alpha.OpAddq, alpha.T9, alpha.Zero, alpha.V0), ret},
	}, [][]int{{}})

	// Both callers redefine t9 right after the call, so nothing after
	// the site keeps it alive — only the callee's entry summary can.
	callKill := mkProc("callKill", 0, 0x5000, [][]alpha.Inst{
		{bsrTo(0x5000, 0x5100), alpha.RI(alpha.OpAddq, alpha.Zero, 3, alpha.T9), ret},
	}, [][]int{{}})
	callRead := mkProc("callRead", 1, 0x5040, [][]alpha.Inst{
		{bsrTo(0x5040, 0x5200), alpha.RI(alpha.OpAddq, alpha.Zero, 3, alpha.T9), ret},
	}, [][]int{{}})

	p := &om.Program{Procs: []*om.Proc{callKill, callRead, kill, read}}
	lv := dataflow.ComputeCtx(nil, p)

	if e := lv.EntryLive("kill"); e.Has(alpha.T9) {
		t.Errorf("kill's entry summary has t9 live: %v", e.Regs())
	}
	if e := lv.EntryLive("read"); !e.Has(alpha.T9) {
		t.Errorf("read's entry summary lacks t9: %v", e.Regs())
	}

	atKill := lv.LiveIn(callKill.Blocks[0].Insts[0])
	atRead := lv.LiveIn(callRead.Blocks[0].Insts[0])
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
// report everything live (fail-safe default).
func TestLivenessUnknownInst(t *testing.T) {
	p := &om.Program{}
	lv := dataflow.ComputeCtx(nil, p)
	stray := &om.Inst{I: alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T0), Addr: 0x9000}
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

// linked wraps hand-built procedures in a program with an executable:
// its entry point, symbols and relocations are what decide which
// procedures keep an all-live exit.
func linked(entry uint64, procs ...*om.Proc) *om.Program {
	return &om.Program{
		Exe:   &aout.File{Linked: true, Entry: entry},
		Procs: procs,
	}
}

// lastInst returns the last instruction of a procedure.
func lastInst(pr *om.Proc) *om.Inst {
	b := pr.Blocks[len(pr.Blocks)-1]
	return b.Insts[len(b.Insts)-1]
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
	f := mkProc("f", 0, 0x1000, [][]alpha.Inst{{retInst}}, [][]int{{}})
	c := mkProc("c", 1, 0x1100, [][]alpha.Inst{{
		bsr(0x1100, 0x1000),
		alpha.RR(alpha.OpAddq, alpha.T1, alpha.Zero, alpha.V0),
		bsr(0x1108, 0x1000),
		alpha.RR(alpha.OpAddq, alpha.T2, alpha.Zero, alpha.V0),
		retInst,
	}}, [][]int{{}})
	main := mkProc("main", 2, 0x1200, [][]alpha.Inst{{bsr(0x1200, 0x1100)}, {spin}}, [][]int{{1}, {1}})
	p := linked(0x1200, f, c, main)
	lv := dataflow.ComputeCtx(nil, p)

	want := reg(alpha.T1).Add(alpha.T2).Add(alpha.RA)
	if got := lv.LiveIn(lastInst(f)); got != want {
		t.Errorf("f's ret reads %v, want %v (t1 and t2 from its two call sites, ra)", got.Regs(), want.Regs())
	}
	// c's only caller continues into a loop that reads nothing.
	if got := lv.LiveIn(lastInst(c)); got != reg(alpha.RA) {
		t.Errorf("c's ret reads %v, want only ra", got.Regs())
	}
	// c reads t1 and t2 after calls that do not define them, so both
	// are live at its entry and before main's call to it; ra is
	// must-defined by that bsr.
	if got, want := lv.LiveIn(main.Blocks[0].Insts[0]), reg(alpha.T1).Add(alpha.T2); got != want {
		t.Errorf("live before main's call = %v, want %v", got.Regs(), want.Regs())
	}
}

// TestLivenessCallKills: a register the callee overwrites on every
// path is dead before the call even though the caller reads it after
// the call — the continuation reaches the callee's exit summary, so the
// call's live-in is exactly the callee's entry summary.
func TestLivenessCallKills(t *testing.T) {
	f := mkProc("f", 0, 0x1000, [][]alpha.Inst{{alpha.RI(alpha.OpAddq, alpha.Zero, 1, alpha.T3), retInst}}, [][]int{{}})
	c := mkProc("c", 1, 0x1100, [][]alpha.Inst{{
		bsr(0x1100, 0x1000),
		alpha.RR(alpha.OpAddq, alpha.T3, alpha.Zero, alpha.V0),
		retInst,
	}}, [][]int{{}})
	main := mkProc("main", 2, 0x1200, [][]alpha.Inst{{bsr(0x1200, 0x1100)}, {spin}}, [][]int{{1}, {1}})
	lv := dataflow.ComputeCtx(nil, linked(0x1200, f, c, main))
	call := c.Blocks[0].Insts[0]
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
	// g is a leaf nobody calls; h precedes it and ends in a loop, so by
	// default neither g's entry nor its exit is reachable from anywhere.
	type build func() (*om.Program, *om.Proc)
	// h ends right where g starts.
	base := func(hBody []alpha.Inst) (*om.Proc, *om.Proc, *om.Proc) {
		h := mkProc("h", 0, 0x1100-4*uint64(len(hBody)), [][]alpha.Inst{hBody}, [][]int{{}})
		g := mkProc("g", 1, 0x1100, [][]alpha.Inst{{alpha.RR(alpha.OpAddq, alpha.A0, alpha.Zero, alpha.V0), retInst}}, [][]int{{}})
		main := mkProc("main", 2, 0x1200, [][]alpha.Inst{{spin}}, [][]int{{0}})
		return h, g, main
	}
	withH := func(hBody []alpha.Inst) build {
		return func() (*om.Program, *om.Proc) {
			h, g, main := base(hBody)
			if hBody[len(hBody)-1].Op == alpha.OpBr && hBody[len(hBody)-1].Disp == -1 {
				h.Blocks[0].Succs = []*om.Block{h.Blocks[0]}
			}
			return linked(0x1200, h, g, main), g
		}
	}
	for _, tc := range []struct {
		name    string
		build   build
		allLive bool
	}{
		{"uncalled", withH([]alpha.Inst{spin}), false},
		{"entry", func() (*om.Program, *om.Proc) {
			h, g, main := base([]alpha.Inst{spin})
			h.Blocks[0].Succs = []*om.Block{h.Blocks[0]}
			return linked(0x1100, h, g, main), g
		}, true},
		{"address-taken", func() (*om.Program, *om.Proc) {
			p, g := withH([]alpha.Inst{spin})()
			p.Exe.Symbols = []aout.Symbol{{Name: "g", Kind: aout.SymFunc, Section: aout.SecText, Value: 0x1100, Size: 8, Global: true}}
			p.Exe.Relocs = []aout.Reloc{{Section: aout.SecData, Offset: 0, Type: aout.RelQuad, Sym: 0}}
			return p, g
		}, true},
		{"cross-procedure-branch", withH([]alpha.Inst{alpha.Br(alpha.OpBr, alpha.Zero, 0)}), true},
		{"bsr-into-middle", withH([]alpha.Inst{bsr(0x10f8, 0x1104), spin}), true},
		{"fall-through", withH([]alpha.Inst{alpha.RI(alpha.OpAddq, alpha.Zero, 1, alpha.T0)}), true},
		// h ends in a call, as a startup routine ends in its call to
		// exit: control falls into g only if the callee can return.
		{"trailing-call-returns", trailingCall(retInst), true},
		{"trailing-call-never-returns", trailingCall(spin), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, g := tc.build()
			lv := dataflow.ComputeCtx(nil, p)
			got := lv.LiveIn(lastInst(g))
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

// trailingCall builds h (a lone bsr to x, the procedure after main), g
// and main, with x's body the given single instruction.
func trailingCall(xBody alpha.Inst) func() (*om.Program, *om.Proc) {
	return func() (*om.Program, *om.Proc) {
		h := mkProc("h", 0, 0x10fc, [][]alpha.Inst{{bsr(0x10fc, 0x1300)}}, [][]int{{}})
		g := mkProc("g", 1, 0x1100, [][]alpha.Inst{{alpha.RR(alpha.OpAddq, alpha.A0, alpha.Zero, alpha.V0), retInst}}, [][]int{{}})
		main := mkProc("main", 2, 0x1200, [][]alpha.Inst{{spin}}, [][]int{{0}})
		var xSuccs [][]int
		if xBody.Op == alpha.OpBr {
			xSuccs = [][]int{{0}}
		} else {
			xSuccs = [][]int{{}}
		}
		x := mkProc("x", 3, 0x1300, [][]alpha.Inst{{xBody}}, xSuccs)
		return linked(0x1200, h, g, main, x), g
	}
}

// TestLivenessPalContract: every PAL code the VM defines reads exactly
// a0–a2 and writes v0, so a register live after it stays live before
// it, v0 does not, and the arguments join; a code the VM does not define
// is an unknown callee and keeps everything live.
func TestLivenessPalContract(t *testing.T) {
	args := reg(alpha.A0).Add(alpha.A1).Add(alpha.A2)
	body := func(fn uint32) *om.Program {
		return linked(0, mkProc("p", 0, 0x1000, [][]alpha.Inst{{
			alpha.RI(alpha.OpAddq, alpha.Zero, 0, alpha.T3),
			{Op: alpha.OpCallPal, PalFn: fn},
			alpha.RR(alpha.OpAddq, alpha.V0, alpha.T0, alpha.T1),
			retInst,
		}}, [][]int{{}}))
	}
	for fn := uint32(0); alpha.PalDefined(fn); fn++ {
		p := body(fn)
		lv := dataflow.ComputeCtx(nil, p)
		pal := p.Procs[0].Blocks[0].Insts[1]
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
		if got := lv.LiveIn(p.Procs[0].Blocks[0].Insts[1]); got != dataflow.AllRegs() {
			t.Errorf("undefined PAL %#x: live before = %v, want everything", fn, got.Regs())
		}
		if lv.LiveIn(p.Procs[0].Blocks[0].Insts[0]).Has(alpha.T3) {
			t.Errorf("undefined PAL %#x: t3 live at entry despite its definition", fn)
		}
	}
}
