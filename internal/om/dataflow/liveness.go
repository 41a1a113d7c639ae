package dataflow

import (
	"atom/internal/alpha"
	"atom/internal/obs"
	"atom/internal/om"
)

// Backward may-liveness over the OM IR. A register is live at a point if
// some execution path from that point reads its current value before
// overwriting it; ATOM only needs to save a register around an analysis
// call if it is live there AND the analysis routine may modify it.
//
// The analysis is interprocedural but deliberately summary-based, layered
// the same way as ModifiedRegs: within a procedure a worklist fixpoint
// runs over the CFG successor edges; across procedures each procedure
// exports one entry summary (the live-in set of its first block), used at
// every direct call (bsr) and cross-procedure branch that targets it.
// Everything unresolvable is all-live:
//
//   - ret and jmp: the continuation (caller, jump table) is unknown;
//   - jsr and call_pal: the callee is unknown, so it may read anything
//     and the state of the world after it returns is unknowable here;
//   - bsr or br into the middle of another procedure;
//   - control falling off the end of a procedure.
//
// The only must-def the analysis exploits across calls is bsr writing ra:
// neither the callee nor any post-return code can observe the caller's
// pre-call ra, so ra is dead immediately before every resolved bsr.
//
// The fixpoint itself runs on the generic engine (engine.go) as a
// Backward Problem: instTransfer is the per-instruction transfer,
// liveBoundary the conservative continuation of each block's terminator,
// and allLive the worst case joined over malformed edges.

// allLive is every architecturally meaningful register: the caller-save
// set shared with the modified-register summary plus the callee-save
// registers (an unknown callee may read those too — it must, to save
// them). The zero register has no state and is never live.
var allLive = AllRegs()

var raBit = om.RegSet(0).Add(alpha.RA)

// Liveness holds the fixpoint solution for one program. Query with
// LiveIn/LiveOut; instructions the analysis has not seen (not part of the
// analyzed program) report everything live.
//
// Only the block solution is kept: each block's live-out and each
// procedure's entry summary. A query walks the queried instruction's
// block backward from its live-out, so per-instruction sets are computed
// only for the blocks a client asks about — the planner asks about
// instrumentation sites, not every instruction.
type Liveness struct {
	procs    []*om.Proc
	blockOut [][]om.RegSet // per proc, per block: live-out of its last instruction

	procStart map[uint64]int // procedure start address -> index
	entrySum  []om.RegSet    // per proc: live-in at its entry
	entry     map[string]om.RegSet

	// Rounds is the number of interprocedural iterations to convergence;
	// Edges counts CFG successor-edge evaluations across all worklist
	// passes and the final per-block join.
	Rounds int
	Edges  int
}

// LiveIn returns the registers that may be read before being overwritten
// on some path starting at in (in's own reads included).
func (l *Liveness) LiveIn(in *om.Inst) om.RegSet {
	before, _ := l.at(in)
	return before
}

// LiveOut returns the registers that may be read on some path starting
// immediately after in.
func (l *Liveness) LiveOut(in *om.Inst) om.RegSet {
	_, after := l.at(in)
	return after
}

// EntryLive returns the live-in summary at the named procedure's entry.
func (l *Liveness) EntryLive(proc string) om.RegSet {
	if s, ok := l.entry[proc]; ok {
		return s
	}
	return allLive
}

// at returns the live sets before and after in, everything live for an
// instruction outside the analyzed program.
func (l *Liveness) at(in *om.Inst) (before, after om.RegSet) {
	if b := in.Block(); b != nil {
		pr := in.Proc()
		pi, bi := pr.Index, b.Index
		if pi >= 0 && pi < len(l.procs) && l.procs[pi] == pr &&
			bi >= 0 && bi < len(l.blockOut[pi]) && pr.Blocks[bi] == b {
			if before, after, ok := l.walk(pi, bi, in); ok {
				return before, after
			}
		}
	}
	// Hand-assembled IR carries no block back-pointers: find the block
	// by scanning.
	for pi, pr := range l.procs {
		for bi := range pr.Blocks {
			if bi >= len(l.blockOut[pi]) {
				break
			}
			if before, after, ok := l.walk(pi, bi, in); ok {
				return before, after
			}
		}
	}
	return allLive, allLive
}

// walk runs block bi of procedure pi backward from its live-out to in.
func (l *Liveness) walk(pi, bi int, in *om.Inst) (before, after om.RegSet, ok bool) {
	insts := l.procs[pi].Blocks[bi].Insts
	v := l.blockOut[pi][bi]
	for k := len(insts) - 1; k >= 0; k-- {
		after, v = v, instTransfer(insts[k], l.entryOf).Apply(v)
		if insts[k] == in {
			return v, after, true
		}
	}
	return 0, 0, false
}

// entryOf resolves a transfer target: the callee's current entry summary
// when addr starts a known procedure, unknown otherwise.
func (l *Liveness) entryOf(addr uint64) (om.RegSet, bool) {
	if i, ok := l.procStart[addr]; ok {
		return l.entrySum[i], true
	}
	return allLive, false
}

// Compute runs the analysis over a program.
func Compute(p *om.Program) *Liveness { return ComputeCtx(nil, p) }

// ComputeCtx is Compute with a stage context: the fixpoint runs under an
// "om.liveness" span annotated with the interprocedural round count and
// the number of CFG edge evaluations, also published as the
// "om.liveness.rounds" and "om.liveness.edges" counters.
func ComputeCtx(ctx *obs.Ctx, p *om.Program) *Liveness {
	_, sp := ctx.Start("om.liveness", obs.Int("procs", int64(len(p.Procs))))
	defer sp.End()

	lv := &Liveness{
		procs:     p.Procs,
		blockOut:  make([][]om.RegSet, len(p.Procs)),
		procStart: make(map[uint64]int, len(p.Procs)),
		entrySum:  make([]om.RegSet, len(p.Procs)),
		entry:     make(map[string]om.RegSet, len(p.Procs)),
	}
	for i, pr := range p.Procs {
		lv.procStart[pr.Addr] = i
	}

	sol := &Solver{Problem: Problem{
		Dir:      Backward,
		Transfer: func(in *om.Inst) Transfer { return instTransfer(in, lv.entryOf) },
		Boundary: func(pr *om.Proc, b *om.Block) om.RegSet { return liveBoundary(b, lv.entryOf) },
		Unknown:  allLive,
	}}
	state := NewState(p)
	lv.Rounds = sol.Fixpoint(p.Procs, state, lv.entrySum, nil)

	for pi, pr := range p.Procs {
		lv.entry[pr.Name] = lv.entrySum[pi]
		lv.blockOut[pi] = sol.Inputs(pr, state[pi])
	}
	lv.Edges = sol.Edges

	sp.SetAttr(
		obs.Int("rounds", int64(lv.Rounds)),
		obs.Int("edges", int64(lv.Edges)))
	ctx.Count("om.liveness.rounds", int64(lv.Rounds))
	ctx.Count("om.liveness.edges", int64(lv.Edges))
	return lv
}

// liveBoundary is the conservative contribution to a block's live-out
// that its CFG edges do not represent: the continuation of a return or
// indirect jump (everything), a resolved cross-procedure transfer (the
// callee's entry summary), or falling off the end of the procedure.
func liveBoundary(b *om.Block, entryOf func(uint64) (om.RegSet, bool)) om.RegSet {
	if len(b.Insts) == 0 {
		return 0
	}
	// cont is the contribution of a transfer to addr that may not have a
	// CFG edge: nothing if an edge covers it, the callee's entry summary
	// for a procedure start, everything otherwise.
	cont := func(addr uint64) om.RegSet {
		for _, s := range b.Succs {
			if len(s.Insts) > 0 && s.Insts[0].Addr == addr {
				return 0
			}
		}
		if e, known := entryOf(addr); known {
			return e
		}
		return allLive
	}
	last := b.Insts[len(b.Insts)-1]
	op := last.I.Op
	switch {
	case op == alpha.OpRet || op == alpha.OpJmp:
		return allLive
	case op.IsCondBranch():
		target := last.Addr + 4 + uint64(int64(last.I.Disp)*4)
		return cont(target).Union(cont(last.Addr + 4))
	case op == alpha.OpBr:
		target := last.Addr + 4 + uint64(int64(last.I.Disp)*4)
		return cont(target)
	default:
		return cont(last.Addr + 4)
	}
}

// instTransfer is the backward transfer of one instruction.
func instTransfer(in *om.Inst, entryOf func(uint64) (om.RegSet, bool)) Transfer {
	switch in.I.Op {
	case alpha.OpJsr, alpha.OpCallPal:
		// Unknown callee: it may read anything, and nothing about the
		// pre-call state can be inferred from what happens after it.
		return Transfer{Mask: 0, Gen: allLive}
	case alpha.OpBsr:
		target := in.Addr + 4 + uint64(int64(in.I.Disp)*4)
		e, known := entryOf(target)
		if !known {
			return Transfer{Mask: 0, Gen: allLive}
		}
		// Resolved direct call: the callee reads its entry summary, and
		// whatever outlives the return passes through — except ra, which
		// the bsr itself must-defines, so no one downstream can observe
		// the caller's pre-call value.
		return Transfer{Mask: allLive &^ raBit, Gen: e &^ raBit}
	}
	mask := allLive
	if w, ok := in.I.WritesReg(); ok {
		mask &^= om.RegSet(0).Add(w)
	}
	return Transfer{Mask: mask, Gen: om.Reads(in.I)}
}
