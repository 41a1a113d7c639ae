package dataflow

import (
	"slices"

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
//     can fall into.
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
//
// Representation. The program is read once, in program order, into
// tables beside the IR that hold no pointers: every block is known by
// the program-wide number the lift gave it (om.Program.BlockAt), its
// successor and predecessor lists are windows of two index arrays, and
// its instructions are composed into transfers once. A resolved bsr
// reads its callee's entry summary and passes nothing of its own
// live-out back (its transfer's mask is empty), so a block is kept as
// the composed transfer of the instructions before its first resolved
// call (its head) plus one composed transfer per call for the
// instructions after it. A re-solve re-applies only the entry summary of
// a block's first callee, and feeding the exit summaries re-applies one
// composed transfer per call; no instruction is looked at again until a
// query walks its block.

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

// unknownCall is the transfer of a callee the analysis cannot follow: it
// may read anything, and nothing about the state before it can be
// inferred from what happens after it.
var unknownCall = Transfer{Mask: 0, Gen: allLive}

// Liveness holds the fixpoint solution for one program. Query with
// LiveIn/LiveOut; instructions the analysis has not seen (not part of the
// analyzed program) report everything live.
//
// Only the block solution is kept: each block's live-out and each
// procedure's entry summary. A query walks the queried instruction's
// block backward from its live-out and keeps the live sets of that one
// walk, so the queries of one block, in any order, cost one walk between
// them. A Liveness therefore answers queries from one goroutine at a
// time.
type Liveness struct {
	g     *liveGraph
	out   []om.RegSet // per block: its live-out
	entry []om.RegSet // per proc: live-in at its entry

	// walked is 1 + the block whose per-instruction live-ins live holds
	// (0: none); live[k] is the live-in of its instruction k, and
	// live[len] its live-out.
	walked int
	live   []om.RegSet

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
	s := allLive
	for i, pr := range l.g.procs {
		if pr.Name == proc {
			s = l.entry[i] // the last of a name, as the symbol table resolves it
		}
	}
	return s
}

// at returns the live sets before and after in, everything live for an
// instruction outside the analyzed program.
func (l *Liveness) at(in *om.Inst) (before, after om.RegSet) {
	b, g, k, ok := l.g.locate(in)
	if !ok {
		return allLive, allLive
	}
	if l.walked != g+1 {
		l.walk(b, g)
	}
	return l.live[k], l.live[k+1]
}

// walk fills l.live for block b, numbered g, backward from its live-out.
func (l *Liveness) walk(b *om.Block, g int) {
	insts := b.Insts
	n := len(insts)
	l.live = slices.Grow(l.live[:0], n+1)[:n+1]
	v := l.out[g]
	l.live[n] = v
	calls := l.g.callsOf(g)
	m := len(calls) - 1
	for k := n - 1; k >= 0; k-- {
		if m >= 0 && int(calls[m].at) == k {
			v = l.entry[calls[m].callee] &^ raBit
			m--
		} else {
			v = instTransfer(&insts[k].I).Apply(v)
		}
		l.live[k] = v
	}
	l.walked = g + 1
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
	lv := s.solution()

	sp.SetAttr(
		obs.Int("rounds", int64(lv.Rounds)),
		obs.Int("edges", int64(lv.Edges)))
	ctx.Count("om.liveness.rounds", int64(lv.Rounds))
	ctx.Count("om.liveness.edges", int64(lv.Edges))
	return lv
}

// lblock is one block of the flattened program. Its successors, its
// predecessors and its resolved calls are windows of liveGraph's succs,
// deps and calls, bounded by the matching from arrays.
type lblock struct {
	// head is the composed transfer of the instructions before the
	// block's first resolved call, all of them when it has none.
	head Transfer
	// fixed is the part of the live-out no summary or successor changes:
	// everything for a successor edge outside the procedure, an indirect
	// jump, or a transfer to no known procedure start.
	fixed om.RegSet
	// cont holds the procedures whose entry summary flows into the
	// live-out at the block's end (a transfer to their start with no CFG
	// edge), -1 for none.
	cont [2]int32
	// nsucc is len(Block.Succs), the edges one join evaluates.
	nsucc int32
	// ret marks a block ending in a ret: its live-out reads its
	// procedure's exit summary.
	ret bool
}

// lcall is one resolved bsr.
type lcall struct {
	callee int32 // the procedure it calls
	at     int32 // its position in its block
	// after is the composed transfer of the instructions after it, up to
	// the block's next resolved call or its end.
	after Transfer
}

// liveGraph is the program as the liveness solver reads it: every block,
// under the lift's program-wide number, with its transfers and edges,
// every procedure's readers, and how the program enters each procedure.
type liveGraph struct {
	p         *om.Program
	procs     []*om.Proc
	first     []int32 // per proc: its first block; first[len(procs)] is the block count
	blocks    []lblock
	maxBlocks int // the most blocks of one procedure

	// Per block g: its successors succs[succFrom[g]:succFrom[g+1]], the
	// blocks whose live-out reads its live-in (its predecessors)
	// deps[depFrom[g]:depFrom[g+1]], and its resolved calls
	// calls[callFrom[g]:callFrom[g+1]] in program order.
	succFrom, succs []int32
	depFrom, deps   []int32
	callFrom        []int32
	calls           []lcall

	// readers[readFrom[j]:readFrom[j+1]] lists, in program order, the
	// procedures whose blocks read procedure j's entry summary: its
	// direct callers, procedures branching to its start, and the
	// procedure that can fall into it.
	readFrom, readers []int32
	// touch[touchFrom[i]:touchFrom[i+1]] lists the blocks of procedure i
	// that read a summary — its calls, rets and transfers to a procedure
	// start. A re-solve seeds only these.
	touchFrom, touch []int32

	// fixed marks the procedures whose rets may return to code no
	// resolved bsr accounts for (see the package comment on exit
	// summaries); called marks the targets of resolved bsrs.
	fixed, called []bool
}

// callsOf returns block g's resolved calls, in program order.
func (gr *liveGraph) callsOf(g int) []lcall {
	return gr.calls[gr.callFrom[g]:gr.callFrom[g+1]]
}

// locate finds in's block, its number and in's position there.
func (gr *liveGraph) locate(in *om.Inst) (b *om.Block, g, k int, ok bool) {
	slot, ok := gr.p.Slot(in)
	if !ok {
		return nil, 0, 0, false
	}
	b, g = gr.p.BlockAt(slot)
	return b, g, int(in.Addr-b.Insts[0].Addr) / 4, true
}

// newLiveGraph reads the program into its tables: one pass over its
// instructions sizes them, a second fills them. Without transfers it
// leaves the blocks' transfers at zero: Entered needs only the edges,
// the calls and the classification.
func newLiveGraph(p *om.Program, transfers bool) *liveGraph {
	n := len(p.Procs)
	// Size every table first: the blocks, their successor edges and the
	// branches bound them all.
	nb, nsucc, nbr, nbsr, maxBlocks := 0, 0, 0, 0, 0
	for _, pr := range p.Procs {
		nb += len(pr.Blocks)
		maxBlocks = max(maxBlocks, len(pr.Blocks))
		for _, b := range pr.Blocks {
			nsucc += len(b.Succs)
			for k := range b.Insts {
				if op := b.Insts[k].I.Op; op.Format() == alpha.FormatBranch {
					nbr++
					if op == alpha.OpBsr {
						nbsr++
					}
				}
			}
		}
	}
	// One slab for the int32 tables.
	ints := make([]int32, 0, 3*(n+1)+n+3*(nb+1)+nb+2*nsucc+3*(nbr+nb))
	take := func(k int) []int32 {
		ints = ints[:len(ints)+k]
		return ints[len(ints)-k : len(ints) : len(ints)]
	}
	flags := make([]bool, 2*n)
	gr := &liveGraph{
		p:         p,
		procs:     p.Procs,
		first:     take(n + 1),
		touchFrom: take(n + 1),
		readFrom:  take(n + 1),
		succFrom:  take(nb + 1),
		depFrom:   take(nb + 1),
		callFrom:  take(nb + 1),
		touch:     take(nb)[:0],
		succs:     take(nsucc)[:0],
		deps:      take(nsucc),
		blocks:    make([]lblock, nb),
		calls:     make([]lcall, 0, nbsr),
		maxBlocks: maxBlocks,
		fixed:     flags[:n:n],
		called:    flags[n:],
	}
	startAt := func(addr uint64) (int, bool) {
		_, j := p.Resolve(addr)
		return j, j >= 0
	}

	// Reader pairs (reader, read), in program order of the readers, each
	// once: lastReader[j] is the last procedure recorded reading j. A
	// pair comes from a branch or from the end of a block.
	reads := take(2 * (nbr + nb))[:0]
	lastReader := take(n)
	for j := range lastReader {
		lastReader[j] = -1
	}
	touched := false
	read := func(j, i int) {
		touched = true
		if lastReader[j] != int32(i) {
			lastReader[j] = int32(i)
			reads = append(reads, int32(i), int32(j))
		}
	}

	g := 0
	for i, pr := range p.Procs {
		gr.first[i] = int32(g)
		gr.touchFrom[i] = int32(len(gr.touch))
		base := int32(g)
		for _, b := range pr.Blocks {
			lb := &gr.blocks[g]
			lb.nsucc = int32(len(b.Succs))
			gr.succFrom[g] = int32(len(gr.succs))
			for _, sb := range b.Succs {
				gr.succs = append(gr.succs, base+int32(sb.Index))
			}

			// Compose the instructions in program order: in backward
			// flow order, each instruction's transfer comes before its
			// prefix's.
			touched = false
			gr.callFrom[g] = int32(len(gr.calls))
			acc := Identity()
			for k := range b.Insts {
				in := &b.Insts[k]
				if in.I.Op.Format() == alpha.FormatBranch {
					t := branchTarget(in)
					c, j := p.Resolve(t)
					if t >= pr.Addr && t < pr.Addr+pr.Size {
						c = i
					}
					bsr := in.I.Op == alpha.OpBsr
					switch {
					case c < 0:
					case bsr && t == p.Procs[c].Addr:
						gr.called[c] = true
					case bsr || c != i:
						gr.fixed[c] = true // a call into the middle, a cross-procedure branch
					}
					if j >= 0 {
						read(j, i)
						if bsr {
							if m := len(gr.calls); m == int(gr.callFrom[g]) {
								lb.head = acc
							} else {
								gr.calls[m-1].after = acc
							}
							gr.calls = append(gr.calls, lcall{callee: int32(j), at: int32(k)})
							acc = Identity()
							continue
						}
					}
				}
				if transfers {
					acc = instTransfer(&in.I).Then(acc)
				}
			}
			if m := len(gr.calls); m > int(gr.callFrom[g]) {
				gr.calls[m-1].after = acc
			} else {
				lb.head = acc
			}

			end := endOf(b, startAt)
			lb.fixed = end.fixed
			lb.cont, lb.ret = end.cont, end.ret
			if k := len(b.Insts); k > 0 {
				if j, ok := startAt(b.Insts[k-1].Addr + 4); ok {
					read(j, i)
				}
			}
			if touched || lb.ret {
				gr.touch = append(gr.touch, int32(g))
			}
			g++
		}
	}
	gr.first[n] = int32(g)
	gr.touchFrom[n] = int32(len(gr.touch))
	gr.succFrom[nb] = int32(len(gr.succs))
	gr.callFrom[nb] = int32(len(gr.calls))

	// Predecessors: count per target, then place in ascending order of
	// the predecessor, each target's cursor walking from its window's
	// start to its end.
	for _, t := range gr.succs {
		gr.depFrom[t+1]++
	}
	for g := 0; g < nb; g++ {
		gr.depFrom[g+1] += gr.depFrom[g]
	}
	for g := 0; g < nb; g++ {
		for _, t := range gr.succs[gr.succFrom[g]:gr.succFrom[g+1]] {
			gr.deps[gr.depFrom[t]] = int32(g)
			gr.depFrom[t]++
		}
	}
	copy(gr.depFrom[1:], gr.depFrom[:nb])
	gr.depFrom[0] = 0

	// Readers, grouped by the procedure read, in the same way.
	gr.readers = take(len(reads) / 2)
	for k := 1; k < len(reads); k += 2 {
		gr.readFrom[reads[k]+1]++
	}
	for j := 0; j < n; j++ {
		gr.readFrom[j+1] += gr.readFrom[j]
	}
	for k := 0; k < len(reads); k += 2 {
		j := reads[k+1]
		gr.readers[gr.readFrom[j]] = reads[k]
		gr.readFrom[j]++
	}
	copy(gr.readFrom[1:], gr.readFrom[:n])
	gr.readFrom[0] = 0

	gr.classify(p)
	return gr
}

// classify completes fixed: the procedure holding the program entry,
// those whose address a relocation takes, and those the procedure before
// can fall into keep an all-live exit. The branches were classified in
// the pass that built the graph.
func (gr *liveGraph) classify(p *om.Program) {
	mark := func(addr uint64) {
		if j, _ := p.Resolve(addr); j >= 0 {
			gr.fixed[j] = true
		}
	}
	mark(p.Exe.Entry)
	for _, rel := range p.Exe.Relocs {
		if rel.Type == aout.RelBr21 || rel.Sym < 0 || rel.Sym >= len(p.Exe.Symbols) {
			continue
		}
		mark(p.Exe.Symbols[rel.Sym].Value + uint64(rel.Addend))
	}
	ret := gr.mayReturn()
	for i, pr := range p.Procs {
		if nb := len(pr.Blocks); nb > 0 && gr.continues(pr.Blocks[nb-1], int(gr.first[i])+nb-1, ret) {
			mark(pr.Addr + pr.Size)
		}
	}
}

// blockEnd is what flows into a block's live-out at its end besides its
// CFG successors' live-ins: the continuation of a return (the
// procedure's exit summary) or indirect jump (everything), and of a
// branch or fall-through with no CFG edge — the target's entry summary
// when it starts a procedure, everything otherwise.
type blockEnd struct {
	fixed om.RegSet
	cont  [2]int32 // procedures whose entry summary flows in, -1 for none
	ret   bool
}

// endOf describes the end of block b, resolving procedure starts with
// startAt.
func endOf(b *om.Block, startAt func(uint64) (int, bool)) blockEnd {
	e := blockEnd{cont: [2]int32{-1, -1}}
	if len(b.Insts) == 0 {
		return e
	}
	nc := 0
	cont := func(addr uint64) {
		if hasEdge(b, addr) {
			return
		}
		if j, ok := startAt(addr); ok {
			e.cont[nc] = int32(j)
			nc++
			return
		}
		e.fixed = allLive
	}
	last := &b.Insts[len(b.Insts)-1]
	switch op := last.I.Op; {
	case op == alpha.OpRet:
		e.ret = true
	case op == alpha.OpJmp:
		e.fixed = allLive
	case op.IsCondBranch():
		cont(branchTarget(last))
		cont(last.Addr + 4)
	case op == alpha.OpBr:
		cont(branchTarget(last))
	default:
		cont(last.Addr + 4)
	}
	return e
}

// liveSolver is the interprocedural fixpoint in progress.
type liveSolver struct {
	*liveGraph
	state []om.RegSet // per block: live-in
	entry []om.RegSet // per proc: live-in at its entry
	exit  []om.RegSet // per proc: what its rets read
	// solved marks the procedures solved at least once; a later solve
	// warm-starts from their state. queued marks those on the procedure
	// worklist.
	solved, queued []bool

	// The block worklist and its membership marks, kept across solves:
	// every solve ends with the list empty and every mark clear.
	onList []bool
	work   []int32

	Rounds, Edges int
}

// newLiveSolver prepares the fixpoint: block states and entry summaries
// at ∅, exit summaries at ∅ or (for procedures with unknown callers)
// all-live.
func newLiveSolver(p *om.Program) *liveSolver {
	gr := newLiveGraph(p, true)
	n, nb := len(p.Procs), len(gr.blocks)
	sets := make([]om.RegSet, nb+2*n)
	flags := make([]bool, 2*n+nb)
	s := &liveSolver{
		liveGraph: gr,
		state:     sets[:nb:nb],
		entry:     sets[nb : nb+n : nb+n],
		exit:      sets[nb+n:],
		solved:    flags[:n:n],
		queued:    flags[n : 2*n : 2*n],
		onList:    flags[2*n:],
	}
	for j, f := range gr.fixed {
		if f {
			s.exit[j] = allLive
		}
	}
	return s
}

// out joins block g of procedure i's live-out under the current state
// and summaries.
func (s *liveSolver) out(g, i int) om.RegSet {
	b := &s.blocks[g]
	s.Edges += int(b.nsucc)
	v := b.fixed
	for _, t := range s.succs[s.succFrom[g]:s.succFrom[g+1]] {
		v |= s.state[t]
	}
	for _, j := range b.cont {
		if j >= 0 {
			v |= s.entry[j]
		}
	}
	if b.ret {
		v |= s.exit[i]
	}
	return v
}

// in is block g of procedure i's live-in: its head applied to its first
// callee's entry summary, or to its live-out when it calls nothing.
func (s *liveSolver) in(g, i int) om.RegSet {
	b := &s.blocks[g]
	if c := s.callFrom[g]; c < s.callFrom[g+1] {
		return b.head.Apply(s.entry[s.calls[c].callee] &^ raBit)
	}
	return b.head.Apply(s.out(g, i))
}

// solveProc brings procedure i to a fixpoint under the current
// summaries: the first time from every block, afterwards warm from the
// blocks that read a summary. Every block is visited against the flow
// first (reverse layout order) and requeues its predecessors when its
// live-in grows.
func (s *liveSolver) solveProc(i int) {
	lo, hi := s.first[i], s.first[i+1]
	if lo == hi {
		return
	}
	work := s.work[:0]
	push := func(g int32) {
		if !s.onList[g] {
			work = append(work, g)
			s.onList[g] = true
		}
	}
	if !s.solved[i] {
		s.solved[i] = true
		for g := lo; g < hi; g++ {
			push(g) // popped from the tail: the last block first
		}
	} else {
		for _, g := range s.touch[s.touchFrom[i]:s.touchFrom[i+1]] {
			push(g)
		}
	}
	for len(work) > 0 {
		g := work[len(work)-1]
		work = work[:len(work)-1]
		s.onList[g] = false
		if nv := s.in(int(g), i); nv != s.state[g] {
			s.state[g] = nv
			for _, p := range s.deps[s.depFrom[g]:s.depFrom[g+1]] {
				push(p)
			}
		}
	}
	s.work = work
}

// run runs the procedure worklist to the least fixpoint. Each round
// visits the procedures queued during the previous one, in the order
// they were queued.
func (s *liveSolver) run() {
	n := len(s.procs)
	queued := s.queued
	lists := make([]int32, 2*n+s.maxBlocks)
	work, next := lists[:n:n], lists[n:n:2*n]
	s.work = lists[2*n : 2*n]
	for i := range work {
		work[i] = int32(i)
		queued[i] = true
	}
	requeue := func(j int32) {
		if !queued[j] {
			queued[j] = true
			next = append(next, j)
		}
	}
	for len(work) > 0 {
		s.Rounds++
		for _, i := range work {
			queued[i] = false
			s.solveProc(int(i))
			if lo := s.first[i]; lo < s.first[i+1] && s.state[lo] != s.entry[i] {
				s.entry[i] = s.state[lo]
				for _, r := range s.readers[s.readFrom[i]:s.readFrom[i+1]] {
					requeue(r)
				}
			}
			// Feed each resolved call's continuation to its callee's
			// exit summary.
			for _, g := range s.touch[s.touchFrom[i]:s.touchFrom[i+1]] {
				calls := s.callsOf(int(g))
				if len(calls) == 0 {
					continue
				}
				v := s.out(int(g), int(i))
				for m := len(calls) - 1; m >= 0; m-- {
					c := &calls[m]
					if v = c.after.Apply(v); v&^s.exit[c.callee] != 0 {
						s.exit[c.callee] |= v
						requeue(c.callee)
					}
					v = s.entry[c.callee] &^ raBit
				}
			}
		}
		work, next = next, work[:0]
	}
}

// solution returns the solved program's Liveness: the summaries and each
// block's live-out.
func (s *liveSolver) solution() *Liveness {
	lv := &Liveness{g: s.liveGraph, entry: s.entry, out: make([]om.RegSet, len(s.blocks)), Rounds: s.Rounds}
	for i := range s.procs {
		for g := s.first[i]; g < s.first[i+1]; g++ {
			lv.out[g] = s.out(int(g), i)
		}
	}
	lv.Edges = s.Edges
	return lv
}

// Entered reports, per procedure, whether the program can enter it other
// than by its own internal branches: a resolved call, a call into its
// middle, a branch from another procedure, a taken address, the previous
// procedure falling into it, or the program entry.
func Entered(p *om.Program) []bool {
	gr := newLiveGraph(p, false)
	for i, c := range gr.called {
		gr.fixed[i] = gr.fixed[i] || c
	}
	return gr.fixed
}

// continues reports whether control can pass from the last instruction
// of block b, numbered g, to the next address: not from an empty block,
// not after an unconditional transfer, nor after a call to a procedure
// that cannot return.
func (gr *liveGraph) continues(b *om.Block, g int, ret []bool) bool {
	insts := b.Insts
	if len(insts) == 0 {
		return false
	}
	switch insts[len(insts)-1].I.Op {
	case alpha.OpRet, alpha.OpJmp, alpha.OpBr:
		return false
	}
	if calls := gr.callsOf(g); len(calls) > 0 && int(calls[len(calls)-1].at) == len(insts)-1 {
		return ret[calls[len(calls)-1].callee]
	}
	return true
}

// mayReturn reports, per procedure, whether a call to it can return: a
// ret, or a transfer the analysis cannot follow, is reachable from its
// entry without passing a call that cannot return. It is the least
// fixpoint, so a procedure that returns only through an endless
// recursion does not return — no execution returns from it either. The
// runtime's exit, which ends in a halt, is what it finds: the call that
// ends a startup routine does not fall into the procedure after it.
func (gr *liveGraph) mayReturn() []bool {
	n, nb := len(gr.procs), len(gr.blocks)
	// empty marks the blocks without instructions, which control never
	// passes; leaves the blocks that, once passed, leave the procedure or
	// make a transfer no CFG edge follows.
	flags := make([]bool, n+3*nb)
	ret, empty, leaves, seen := flags[:n:n], flags[n:n+nb], flags[n+nb:n+2*nb], flags[n+2*nb:]
	for i, pr := range gr.procs {
		for bi, b := range pr.Blocks {
			g := int(gr.first[i]) + bi
			empty[g], leaves[g] = len(b.Insts) == 0, blockLeaves(b)
		}
	}
	work := make([]int32, 0, gr.maxBlocks)
	// reachesExit reports whether control entering procedure i can
	// leave it other than by a call that cannot return, under the
	// current verdicts.
	reachesExit := func(i int) bool {
		lo, hi := gr.first[i], gr.first[i+1]
		if lo == hi {
			return false
		}
		clear(seen[lo:hi])
		work = append(work[:0], lo)
		seen[lo] = true
	search:
		for len(work) > 0 {
			g := work[len(work)-1]
			work = work[:len(work)-1]
			if empty[g] {
				continue
			}
			for _, c := range gr.callsOf(int(g)) {
				if !ret[c.callee] {
					continue search
				}
			}
			if leaves[g] {
				return true
			}
			for _, t := range gr.succs[gr.succFrom[g]:gr.succFrom[g+1]] {
				if !seen[t] {
					seen[t] = true
					work = append(work, t)
				}
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		// Callees tend to follow their callers, so a backward sweep
		// settles most procedures in one round.
		for i := n - 1; i >= 0; i-- {
			if !ret[i] && reachesExit(i) {
				ret[i] = true
				changed = true
			}
		}
	}
	return ret
}

// blockLeaves reports whether control that runs through non-empty block
// b to its end — past every call in it, each returning — leaves its
// procedure or makes a transfer no CFG edge follows.
func blockLeaves(b *om.Block) bool {
	if len(b.Insts) == 0 {
		return false
	}
	last := &b.Insts[len(b.Insts)-1]
	switch op := last.I.Op; {
	case op == alpha.OpRet || op == alpha.OpJmp:
		return true
	case op == alpha.OpBr:
		return !hasEdge(b, branchTarget(last))
	case op.IsCondBranch():
		return !hasEdge(b, branchTarget(last)) || !hasEdge(b, last.Addr+4)
	}
	return !hasEdge(b, last.Addr+4)
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

// branchTarget is the address a branch-format instruction transfers to.
func branchTarget(in *om.Inst) uint64 {
	return in.Addr + 4 + uint64(int64(in.I.Disp)*4)
}

// instTransfer is the backward transfer of one instruction that is not a
// resolved call: a bsr here is one whose target starts no procedure.
func instTransfer(i *alpha.Inst) Transfer {
	switch i.Op {
	case alpha.OpCallPal:
		if alpha.PalDefined(i.PalFn) {
			return palTransfer
		}
		return unknownCall
	case alpha.OpJsr, alpha.OpBsr:
		return unknownCall
	}
	def, use := om.DefUse(*i)
	return Transfer{Mask: allLive &^ def, Gen: use}
}

// UpwardExposed returns the registers some path from pr's entry reads
// before writing, when its rets return to code that reads nothing: the
// entry summary of a procedure only instrumentation calls. Calls and
// transfers out of the procedure count as reading everything.
func UpwardExposed(pr *om.Proc) om.RegSet {
	if len(pr.Blocks) == 0 {
		return 0
	}
	unknown := func(uint64) (int, bool) { return 0, false }
	s := &Solver{Problem: Problem{
		Dir:      Backward,
		Transfer: func(in *om.Inst) Transfer { return instTransfer(&in.I) },
		Boundary: func(_ *om.Proc, b *om.Block) om.RegSet { return endOf(b, unknown).fixed },
	}}
	state := make([]om.RegSet, len(pr.Blocks))
	s.SolveProc(pr, state)
	return state[0]
}
