package dataflow

import (
	"slices"
	"sort"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/obs"
	"atom/internal/om"
)

// Backward may-liveness over the OM IR. A register is live at a point if
// some execution path from that point reads its current value before
// overwriting it; ATOM only needs to save a register around an analysis
// call if it is live there AND the analysis routine may modify it.
//
// The analysis is interprocedural and summary-based, layered the same
// way as ModifiedRegsCtx: within a procedure a worklist fixpoint runs over
// the CFG successor edges; across procedures each procedure has two
// summaries.
//
//   - The entry summary is the live-in set of its first block. It is what
//     a resolved direct call (bsr) and a cross-procedure branch to the
//     procedure read.
//   - The exit summary is what its ret reads: the union of the live sets
//     just after every resolved bsr to the procedure. A procedure whose
//     callers are not all known keeps an all-live exit: the program
//     entry, a procedure whose address a non-branch relocation takes (it
//     may be called through a pointer), one reached by a cross-procedure
//     branch or a bsr into its middle, and one the previous procedure
//     can fall into. Without an executable (hand-assembled IR) there is
//     no relocation table to consult, so every exit is all-live.
//
// Because every caller's continuation flows into the callee's exit
// summary, a resolved bsr reads exactly the callee's entry summary: a
// register live after the call that the callee does not overwrite on
// some path is in that summary already, and ra is must-defined by the
// bsr itself, so nothing else outlives the call.
//
// Everything else unresolvable is all-live: jmp (a jump table or unknown
// continuation), jsr (an unknown callee), a bsr to an address that
// starts no procedure, and a call_pal whose code the VM does not define.
// A defined PAL service reads a0–a2 and writes v0, exactly as the VM's
// dispatcher does (internal/vm/pal.go).
//
// The interprocedural solution is one worklist over procedures: solving
// a procedure whose entry summary changes requeues the procedures that
// read it, and a grown exit summary requeues the callee.

// allLive is every architecturally meaningful register: the caller-save
// set shared with the modified-register summary plus the callee-save
// registers (an unknown callee may read those too — it must, to save
// them). The zero register has no state and is never live.
var allLive = AllRegs()

var raBit = om.RegSet(0).Add(alpha.RA)

// palTransfer is the effect of a defined PAL service: it reads its
// arguments a0–a2 and returns its result in v0.
var palTransfer = Transfer{
	Mask: allLive &^ om.RegSet(0).Add(alpha.V0),
	Gen:  om.RegSet(0).Add(alpha.A0).Add(alpha.A1).Add(alpha.A2),
}

// Liveness holds the fixpoint solution for one program. Query with
// LiveIn/LiveOut; instructions the analysis has not seen (not part of the
// analyzed program) report everything live.
//
// Only the block solution is kept: each block's live-out and each
// procedure's entry and exit summaries. A query walks the queried
// instruction's block backward from its live-out, so per-instruction
// sets are computed only for the blocks a client asks about — the
// planner asks about instrumentation sites, not every instruction.
type Liveness struct {
	prog     *om.Program
	procs    []*om.Proc
	blockOut [][]om.RegSet // per proc, per block: live-out of its last instruction

	// trans is the transfer of every lifted instruction but a bsr,
	// indexed by text slot (om.Program.Slot). A bsr's transfer reads its
	// callee's entry summary, which changes between rounds.
	trans []Transfer

	procStart map[uint64]int // procedure start address -> index
	entrySum  []om.RegSet    // per proc: live-in at its entry
	exitSum   []om.RegSet    // per proc: what its rets read
	entry     map[string]om.RegSet

	// Rounds is the number of generations the procedure worklist took to
	// converge (the first visits every procedure); Edges counts CFG
	// successor-edge evaluations across all solves and the final
	// per-block join.
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
		after, v = v, l.transfer(insts[k]).Apply(v)
		if insts[k] == in {
			return v, after, true
		}
	}
	return 0, 0, false
}

// transfer is the backward transfer of one instruction under the
// current summaries: the slot table's entry for a lifted instruction,
// instTransfer for a bsr and for hand-assembled IR, which has no slots.
func (l *Liveness) transfer(in *om.Inst) Transfer {
	if in.I.Op != alpha.OpBsr {
		if k, ok := l.prog.Slot(in); ok {
			return l.trans[k]
		}
	}
	return instTransfer(in, l.entryOf)
}

// entryOf resolves a transfer target: the callee's current entry summary
// when addr starts a known procedure, unknown otherwise.
func (l *Liveness) entryOf(addr uint64) (om.RegSet, bool) {
	if i, ok := l.procStart[addr]; ok {
		return l.entrySum[i], true
	}
	return allLive, false
}

// ComputeCtx runs the analysis over a program. The fixpoint runs under an
// "om.liveness" span annotated with the worklist round count and the
// number of CFG edge evaluations, also published as the
// "om.liveness.rounds" and "om.liveness.edges" counters.
func ComputeCtx(ctx *obs.Ctx, p *om.Program) *Liveness {
	_, sp := ctx.Start("om.liveness", obs.Int("procs", int64(len(p.Procs))))
	defer sp.End()

	s := newLiveSolver(p)
	s.run()
	lv := s.lv
	lv.blockOut = make([][]om.RegSet, len(p.Procs))
	lv.entry = make(map[string]om.RegSet, len(p.Procs))
	for pi, pr := range p.Procs {
		s.cur = pi
		lv.entry[pr.Name] = lv.entrySum[pi]
		lv.blockOut[pi] = s.Inputs(pr, s.state[pi])
	}
	lv.Edges = s.Edges

	sp.SetAttr(
		obs.Int("rounds", int64(lv.Rounds)),
		obs.Int("edges", int64(lv.Edges)))
	ctx.Count("om.liveness.rounds", int64(lv.Rounds))
	ctx.Count("om.liveness.edges", int64(lv.Edges))
	return lv
}

// liveSolver is the interprocedural fixpoint in progress: the engine's
// Solver for the per-procedure block problem plus the procedure
// worklist around it.
type liveSolver struct {
	Solver
	lv    *Liveness
	state [][]om.RegSet // per proc, per block: live-in

	// cur is the procedure whose blocks the Problem callbacks are
	// evaluating; its exit summary is what a ret reads.
	cur int
	// fixedExit marks the procedures whose exit stays all-live.
	fixedExit []bool
	// readers[j] lists the procedures whose transfers read procedure
	// j's entry summary: its direct callers, procedures branching to
	// its start, and the procedure that can fall into it.
	readers [][]int
	// calls[i] lists the blocks of procedure i holding a resolved bsr:
	// their transfers read the callees' entry summaries, and their
	// continuations feed the callees' exit summaries.
	calls [][]int
	// touch[i] lists the blocks of procedure i that read a summary —
	// the calls, plus blocks whose boundary is a ret or a transfer to a
	// procedure start. A re-solve seeds only these.
	touch [][]int
	// graphs[i] is procedure i's solver graph, kept across re-solves;
	// its deps are unset until the procedure's first solve.
	graphs []graph
}

// newLiveSolver prepares the fixpoint: entry summaries at ∅, exit
// summaries at ∅ or (for procedures with unknown callers) all-live.
func newLiveSolver(p *om.Program) *liveSolver {
	n := len(p.Procs)
	lv := &Liveness{
		prog:      p,
		procs:     p.Procs,
		trans:     make([]Transfer, p.NumInsts()),
		procStart: make(map[uint64]int, n),
		entrySum:  make([]om.RegSet, n),
		exitSum:   make([]om.RegSet, n),
	}
	for i, pr := range p.Procs {
		lv.procStart[pr.Addr] = i
		for _, b := range pr.Blocks {
			for _, in := range b.Insts {
				if k, ok := p.Slot(in); ok && in.I.Op != alpha.OpBsr {
					lv.trans[k] = instTransfer(in, nil)
				}
			}
		}
	}
	fixed, _ := entries(p)
	s := &liveSolver{
		lv:        lv,
		state:     NewState(p),
		fixedExit: fixed,
		readers:   make([][]int, n),
		calls:     make([][]int, n),
		touch:     make([][]int, n),
		graphs:    make([]graph, n),
	}
	s.Problem = Problem{
		Dir:      Backward,
		Transfer: lv.transfer,
		Boundary: func(pr *om.Proc, b *om.Block) om.RegSet {
			return liveBoundary(b, lv.entryOf, lv.exitSum[s.cur])
		},
		Unknown: allLive,
	}
	for j, fixed := range s.fixedExit {
		if fixed {
			lv.exitSum[j] = allLive
		}
	}

	addReader := func(j, i int) {
		if rs := s.readers[j]; len(rs) == 0 || rs[len(rs)-1] != i {
			s.readers[j] = append(rs, i)
		}
	}
	for i, pr := range p.Procs {
		for bi, b := range pr.Blocks {
			if len(b.Insts) == 0 {
				continue
			}
			hasCall, reads := false, false
			for _, in := range b.Insts {
				if in.I.Op.Format() != alpha.FormatBranch {
					continue
				}
				if j, ok := lv.procStart[branchTarget(in)]; ok {
					addReader(j, i)
					hasCall = hasCall || in.I.Op == alpha.OpBsr
					reads = true
				}
			}
			last := b.Insts[len(b.Insts)-1]
			if j, ok := lv.procStart[last.Addr+4]; ok {
				addReader(j, i)
				reads = true
			}
			if hasCall {
				s.calls[i] = append(s.calls[i], bi)
			}
			if reads || last.I.Op == alpha.OpRet {
				s.touch[i] = append(s.touch[i], bi)
			}
		}
	}
	return s
}

// solveProc brings procedure i to a fixpoint under the current
// summaries: a full solve the first time, afterwards a warm one that
// refreshes the call blocks' transfers and seeds the blocks that read a
// summary.
func (s *liveSolver) solveProc(i int) {
	s.cur = i
	pr := s.lv.procs[i]
	g := &s.graphs[i]
	if g.deps.start == nil {
		*g = s.graph(pr)
		s.solve(pr, g, s.state[i], nil)
		return
	}
	for _, bi := range s.calls[i] {
		g.trans[bi] = s.blockTransfer(pr.Blocks[bi])
	}
	s.solve(pr, g, s.state[i], s.touch[i])
}

// run runs the procedure worklist to the least fixpoint. Each round
// visits the procedures queued during the previous one, in program
// order.
func (s *liveSolver) run() {
	lv := s.lv
	n := len(lv.procs)
	queued := make([]bool, n)
	work := make([]int, n)
	for i := range work {
		work[i] = i
		queued[i] = true
	}
	var next []int
	requeue := func(j int) {
		if !queued[j] {
			queued[j] = true
			next = append(next, j)
		}
	}
	for len(work) > 0 {
		lv.Rounds++
		for _, i := range work {
			queued[i] = false
			s.solveProc(i)
			pr := lv.procs[i]
			if len(s.state[i]) > 0 && s.state[i][0] != lv.entrySum[i] {
				lv.entrySum[i] = s.state[i][0]
				for _, r := range s.readers[i] {
					requeue(r)
				}
			}
			// Feed each resolved call's continuation to its callee's
			// exit summary.
			for _, bi := range s.calls[i] {
				b := pr.Blocks[bi]
				v := s.join(pr, b, s.state[i], nil)
				for k := len(b.Insts) - 1; k >= 0; k-- {
					in := b.Insts[k]
					if in.I.Op == alpha.OpBsr {
						if j, ok := lv.procStart[branchTarget(in)]; ok && v&^lv.exitSum[j] != 0 {
							lv.exitSum[j] |= v
							requeue(j)
						}
					}
					v = lv.transfer(in).Apply(v)
				}
			}
		}
		work, next = next, work[:0]
	}
}

// Entered reports, per procedure, whether the program can enter it other
// than by its own internal branches: a resolved call, a call into its
// middle, a branch from another procedure, a taken address, the previous
// procedure falling into it, or the program entry. Without an executable
// every procedure counts as entered.
func Entered(p *om.Program) []bool {
	fixed, called := entries(p)
	for i := range fixed {
		fixed[i] = fixed[i] || called[i]
	}
	return fixed
}

// entries classifies how the program enters each procedure. fixed marks
// the procedures whose rets may return to code no resolved bsr accounts
// for (see the package comment on exit summaries); called marks the
// targets of resolved bsrs.
func entries(p *om.Program) (fixed, called []bool) {
	fixed = make([]bool, len(p.Procs))
	called = make([]bool, len(p.Procs))
	if p.Exe == nil {
		for i := range fixed {
			fixed[i] = true
		}
		return fixed, called
	}
	order := make([]int, len(p.Procs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.Procs[order[a]].Addr < p.Procs[order[b]].Addr })
	procOf := func(addr uint64) int {
		k := sort.Search(len(order), func(k int) bool { return p.Procs[order[k]].Addr > addr }) - 1
		if k >= 0 {
			if pr := p.Procs[order[k]]; addr < pr.Addr+pr.Size {
				return order[k]
			}
		}
		return -1
	}
	mark := func(addr uint64) {
		if j := procOf(addr); j >= 0 {
			fixed[j] = true
		}
	}

	mark(p.Exe.Entry)
	for _, rel := range p.Exe.Relocs {
		if rel.Type == aout.RelBr21 || rel.Sym < 0 || rel.Sym >= len(p.Exe.Symbols) {
			continue
		}
		mark(p.Exe.Symbols[rel.Sym].Value + uint64(rel.Addend))
	}
	for i, pr := range p.Procs {
		for _, b := range pr.Blocks {
			for _, in := range b.Insts {
				if in.I.Op.Format() != alpha.FormatBranch {
					continue
				}
				t := branchTarget(in)
				j := i
				if t < pr.Addr || t >= pr.Addr+pr.Size {
					j = procOf(t)
				}
				switch {
				case j < 0:
				case in.I.Op == alpha.OpBsr && t == p.Procs[j].Addr:
					called[j] = true
				case in.I.Op == alpha.OpBsr:
					fixed[j] = true // a call into the middle
				case j != i:
					fixed[j] = true // a cross-procedure branch
				}
			}
		}
	}
	start := make(map[uint64]int, len(p.Procs))
	for i, pr := range p.Procs {
		start[pr.Addr] = i
	}
	ret := mayReturn(p, start)
	for _, pr := range p.Procs {
		if nb := len(pr.Blocks); nb > 0 {
			if last := pr.Blocks[nb-1].Insts; len(last) > 0 && continues(last[len(last)-1], start, ret) {
				mark(pr.Addr + pr.Size)
			}
		}
	}
	return fixed, called
}

// mayReturn reports, per procedure, whether a call to it can return: a
// ret, or a transfer the analysis cannot follow, is reachable from its
// entry without passing a call that cannot return. It is the least
// fixpoint, so a procedure that returns only through an endless
// recursion does not return — no execution returns from it either. The
// runtime's exit, which ends in a halt, is what it finds: the call that
// ends a startup routine does not fall into the procedure after it.
func mayReturn(p *om.Program, start map[uint64]int) []bool {
	r := &returnScan{start: start, ret: make([]bool, len(p.Procs))}
	for changed := true; changed; {
		changed = false
		// Callees tend to follow their callers, so a backward sweep
		// settles most procedures in one round.
		for i := len(p.Procs) - 1; i >= 0; i-- {
			if !r.ret[i] && r.reachesExit(p.Procs[i]) {
				r.ret[i] = true
				changed = true
			}
		}
	}
	return r.ret
}

// returnScan holds mayReturn's verdicts so far and the buffers its
// per-procedure searches share.
type returnScan struct {
	start map[uint64]int
	ret   []bool
	seen  []bool
	work  []*om.Block
}

// reachesExit reports whether control entering pr can leave it other
// than by a call that cannot return, under the current verdicts.
func (r *returnScan) reachesExit(pr *om.Proc) bool {
	if len(pr.Blocks) == 0 {
		return false
	}
	r.seen = slices.Grow(r.seen[:0], len(pr.Blocks))[:len(pr.Blocks)]
	clear(r.seen)
	r.work = append(r.work[:0], pr.Blocks[0])
	r.seen[0] = true
	for len(r.work) > 0 {
		b := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		reached := len(b.Insts) > 0
		for _, in := range b.Insts {
			if in.I.Op == alpha.OpBsr && !continues(in, r.start, r.ret) {
				reached = false
				break
			}
		}
		if !reached {
			continue
		}
		// Leaving the procedure, or a transfer no CFG edge follows,
		// counts as reaching an exit.
		last := b.Insts[len(b.Insts)-1]
		switch op := last.I.Op; {
		case op == alpha.OpRet || op == alpha.OpJmp:
			return true
		case (op == alpha.OpBr || op.IsCondBranch()) && !hasEdge(b, branchTarget(last)):
			return true
		}
		if continues(last, r.start, r.ret) && !hasEdge(b, last.Addr+4) {
			return true
		}
		for _, sb := range b.Succs {
			if !validSucc(pr, sb) {
				return true
			}
			if !r.seen[sb.Index] {
				r.seen[sb.Index] = true
				r.work = append(r.work, sb)
			}
		}
	}
	return false
}

// hasEdge reports whether one of b's CFG successors starts at addr.
func hasEdge(b *om.Block, addr uint64) bool {
	for _, s := range b.Succs {
		if len(s.Insts) > 0 && s.Insts[0].Addr == addr {
			return true
		}
	}
	return false
}

// continues reports whether control can pass from in to the next
// address: not after an unconditional transfer, nor after a call to a
// procedure that cannot return.
func continues(in *om.Inst, start map[uint64]int, ret []bool) bool {
	switch in.I.Op {
	case alpha.OpRet, alpha.OpJmp, alpha.OpBr:
		return false
	case alpha.OpBsr:
		if j, ok := start[branchTarget(in)]; ok {
			return ret[j]
		}
	}
	return true
}

// branchTarget is the address a branch-format instruction transfers to.
func branchTarget(in *om.Inst) uint64 {
	return in.Addr + 4 + uint64(int64(in.I.Disp)*4)
}

// liveBoundary is the contribution to a block's live-out that its CFG
// edges do not represent: the continuation of a return (the procedure's
// exit summary) or indirect jump (everything), a resolved
// cross-procedure transfer (the callee's entry summary), or falling off
// the end of the procedure.
func liveBoundary(b *om.Block, entryOf func(uint64) (om.RegSet, bool), exit om.RegSet) om.RegSet {
	if len(b.Insts) == 0 {
		return 0
	}
	// cont is the contribution of a transfer to addr that may not have a
	// CFG edge: nothing if an edge covers it, the callee's entry summary
	// for a procedure start, everything otherwise.
	cont := func(addr uint64) om.RegSet {
		if hasEdge(b, addr) {
			return 0
		}
		if e, known := entryOf(addr); known {
			return e
		}
		return allLive
	}
	last := b.Insts[len(b.Insts)-1]
	op := last.I.Op
	switch {
	case op == alpha.OpRet:
		return exit
	case op == alpha.OpJmp:
		return allLive
	case op.IsCondBranch():
		return cont(branchTarget(last)).Union(cont(last.Addr + 4))
	case op == alpha.OpBr:
		return cont(branchTarget(last))
	default:
		return cont(last.Addr + 4)
	}
}

// instTransfer is the backward transfer of one instruction. entryOf is
// read only for a bsr.
func instTransfer(in *om.Inst, entryOf func(uint64) (om.RegSet, bool)) Transfer {
	switch in.I.Op {
	case alpha.OpCallPal:
		if alpha.PalDefined(in.I.PalFn) {
			return palTransfer
		}
		// An unknown service: it may read anything, and nothing about
		// the pre-call state can be inferred from what happens after it.
		return Transfer{Mask: 0, Gen: allLive}
	case alpha.OpJsr:
		// Unknown callee, as for an unknown PAL service.
		return Transfer{Mask: 0, Gen: allLive}
	case alpha.OpBsr:
		e, known := entryOf(branchTarget(in))
		if !known {
			return Transfer{Mask: 0, Gen: allLive}
		}
		// Resolved direct call: the callee reads its entry summary, which
		// already holds whatever of the continuation it does not
		// overwrite (the continuation feeds its exit summary) — except
		// ra, which the bsr itself must-defines.
		return Transfer{Mask: 0, Gen: e &^ raBit}
	}
	mask := allLive
	if w, ok := in.I.WritesReg(); ok {
		mask &^= om.RegSet(0).Add(w)
	}
	return Transfer{Mask: mask, Gen: om.Reads(in.I)}
}

// UpwardExposed returns the registers some path from pr's entry reads
// before writing, when its rets return to code that reads nothing: the
// entry summary of a procedure only instrumentation calls. Calls and
// transfers out of the procedure count as reading everything.
func UpwardExposed(pr *om.Proc) om.RegSet {
	if len(pr.Blocks) == 0 {
		return 0
	}
	unknown := func(uint64) (om.RegSet, bool) { return allLive, false }
	s := &Solver{Problem: Problem{
		Dir:      Backward,
		Transfer: func(in *om.Inst) Transfer { return instTransfer(in, unknown) },
		Boundary: func(_ *om.Proc, b *om.Block) om.RegSet { return liveBoundary(b, unknown, 0) },
		Unknown:  allLive,
	}}
	state := make([]om.RegSet, len(pr.Blocks))
	s.SolveProc(pr, state)
	return state[0]
}
