package dataflow

import (
	"atom/internal/alpha"
	"atom/internal/om"
)

// A generic worklist engine for register-set dataflow over one
// procedure of the OM IR: any monotone problem whose values are om.RegSet
// and whose per-instruction transfer has the mask/gen shape can run on
// it, forward or backward. The analysis passes' reaching-definitions
// variants (forward, may) and UpwardExposed (backward, may) are its
// clients. The interprocedural liveness analysis has its own solver
// (liveness.go), which reads the whole program into flat tables once and
// composes the transfers this engine recomputes per solve.

// Direction orients a Problem: Backward propagates against control flow
// (a block's input is joined from its CFG successors), Forward along it
// (joined from its predecessors).
type Direction int

const (
	Backward Direction = iota
	Forward
)

// Transfer is one composable dataflow step: out = in&Mask | Gen. Every
// per-instruction effect of the supported problems has this shape —
// ordinary def/use, unknown call (Mask=0, Gen=everything), resolved call
// (mask out the must-def, gen the summary) — so whole-block transfers
// compose into the same two words and the block fixpoint costs O(1) per
// visit.
type Transfer struct{ Mask, Gen om.RegSet }

// Apply runs the transfer on a value.
func (t Transfer) Apply(v om.RegSet) om.RegSet { return v&t.Mask | t.Gen }

// Then returns the composition "t, then f" in flow order: the transfer
// of two consecutive steps where t is applied first.
func (t Transfer) Then(f Transfer) Transfer {
	return Transfer{Mask: t.Mask & f.Mask, Gen: t.Gen&f.Mask | f.Gen}
}

// Identity is the transfer of an empty instruction sequence.
func Identity() Transfer { return Transfer{Mask: ^om.RegSet(0)} }

// AllRegs is every architecturally meaningful register: everything but
// the zero register, which has no state.
func AllRegs() om.RegSet {
	var s om.RegSet
	for r := alpha.Reg(0); r < alpha.NumRegs; r++ {
		if r != alpha.Zero {
			s = s.Add(r)
		}
	}
	return s
}

// Problem describes one dataflow problem. Starting every block value at
// ∅ and growing to the least fixpoint is sound for may-problems as long
// as every transfer is monotone and the conservative cases inject their
// worst case wholesale (liveness: allLive; reaching defs: every
// register).
type Problem struct {
	Dir Direction

	// Transfer gives the transfer of one instruction. It is queried
	// once per instruction per solve, and again by VisitProc.
	Transfer func(in *om.Inst) Transfer

	// Boundary is the contribution to a block's joined input that no CFG
	// edge represents: for a backward problem the continuation of its
	// terminator (returns, indirect jumps, cross-procedure transfers,
	// falling off the end); for a forward problem the value flowing into
	// the procedure at its entry block. Nil means no contribution.
	Boundary func(pr *om.Proc, b *om.Block) om.RegSet
}

// Solver runs a Problem procedure by procedure, keeping per-block state
// external: the caller owns it and reads it after a solve. Edges counts
// CFG edge evaluations across all worklist passes — the engine's work
// metric, reported by clients as a counter.
type Solver struct {
	Problem
	Edges int
}

// edgeLists holds one list of block indices per block, as windows of one
// backing slice: block bi's list is list[start[bi]:start[bi+1]].
type edgeLists struct{ start, list []int }

// of returns block bi's list.
func (e edgeLists) of(bi int) []int { return e.list[e.start[bi]:e.start[bi+1]] }

// newEdgeLists allocates the lists of a procedure's CFG edges.
func newEdgeLists(pr *om.Proc) edgeLists {
	n, total := len(pr.Blocks), 0
	for _, b := range pr.Blocks {
		total += len(b.Succs)
	}
	buf := make([]int, n+1+total)
	return edgeLists{start: buf[:n+1], list: buf[n+1:]}
}

// flowPreds returns, for each block, the blocks whose joined input reads
// its state: CFG predecessors for a backward problem (a block's live-in
// feeds its predecessors' outputs), CFG successors for a forward one.
func (s *Solver) flowPreds(pr *om.Proc) edgeLists {
	if s.Dir == Backward {
		return cfgPreds(pr)
	}
	e := newEdgeLists(pr)
	k := 0
	for bi, b := range pr.Blocks {
		for _, sb := range b.Succs {
			e.list[k] = sb.Index
			k++
		}
		e.start[bi+1] = k
	}
	return e
}

// cfgPreds returns each block's intra-procedure CFG predecessors, in
// ascending order: the edges are counted per target, then placed.
func cfgPreds(pr *om.Proc) edgeLists {
	e := newEdgeLists(pr)
	for _, b := range pr.Blocks {
		for _, sb := range b.Succs {
			e.start[sb.Index+1]++
		}
	}
	n := len(pr.Blocks)
	for bi := 0; bi < n; bi++ {
		e.start[bi+1] += e.start[bi]
	}
	// Place each edge at its target's cursor, start[t], which walks to
	// the window's end; then shift the starts back into place.
	for bi, b := range pr.Blocks {
		for _, sb := range b.Succs {
			e.list[e.start[sb.Index]] = bi
			e.start[sb.Index]++
		}
	}
	copy(e.start[1:], e.start[:n])
	e.start[0] = 0
	return e
}

// join computes a block's input value: the union of the neighboring
// blocks' states across flow edges, plus the problem's Boundary
// contribution. For a backward problem the neighbors are the block's
// CFG successors; for a forward one its predecessors, which the caller
// supplies (nil for backward).
func (s *Solver) join(pr *om.Proc, b *om.Block, state []om.RegSet, preds []int) om.RegSet {
	var v om.RegSet
	if s.Dir == Backward {
		for _, sb := range b.Succs {
			s.Edges++
			v = v.Union(state[sb.Index])
		}
	} else {
		for _, pi := range preds {
			s.Edges++
			v = v.Union(state[pi])
		}
	}
	if s.Boundary != nil {
		v = v.Union(s.Boundary(pr, b))
	}
	return v
}

// SolveProc runs the per-procedure worklist to a fixpoint. state holds
// one value per block — the block's flow output (live-in for a backward
// problem, the value at the block's end for a forward one) — and is
// updated in place. Every block is seeded (so unreachable blocks get
// sound solutions too), visited against the flow direction first
// (reverse layout order for backward, layout order for forward), and
// re-queued through its flow dependents when its value grows.
func (s *Solver) SolveProc(pr *om.Proc, state []om.RegSet) {
	n := len(pr.Blocks)
	if n == 0 {
		return
	}
	trans := make([]Transfer, n)
	for bi, b := range pr.Blocks {
		trans[bi] = s.blockTransfer(b)
	}
	deps := s.flowPreds(pr) // per block: the blocks whose joined input reads it
	var preds edgeLists     // per block: CFG predecessors (Forward only)
	if s.Dir == Forward {
		preds = cfgPreds(pr)
	}
	onList := make([]bool, n)
	work := make([]int, 0, n)
	push := func(bi int) {
		if !onList[bi] {
			work = append(work, bi)
			onList[bi] = true
		}
	}
	for bi := 0; bi < n; bi++ {
		// Popped from the tail: reverse layout order first for a
		// backward problem, layout order first for a forward one.
		if s.Dir == Backward {
			push(bi)
		} else {
			push(n - 1 - bi)
		}
	}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		onList[bi] = false
		var p []int
		if preds.start != nil {
			p = preds.of(bi)
		}
		nv := trans[bi].Apply(s.join(pr, pr.Blocks[bi], state, p))
		if nv != state[bi] {
			state[bi] = nv
			for _, di := range deps.of(bi) {
				push(di)
			}
		}
	}
}

// blockTransfer composes the block's instruction transfers in flow
// order.
func (s *Solver) blockTransfer(b *om.Block) Transfer {
	t := Identity()
	if s.Dir == Backward {
		for k := len(b.Insts) - 1; k >= 0; k-- {
			t = t.Then(s.Transfer(&b.Insts[k]))
		}
	} else {
		for k := range b.Insts {
			t = t.Then(s.Transfer(&b.Insts[k]))
		}
	}
	return t
}

// inputs returns, per block, the joined flow input under a solved block
// state: for a backward problem the value at the block's end, for a
// forward one the value at its start. It is where VisitProc starts each
// block's walk.
func (s *Solver) inputs(pr *om.Proc, state []om.RegSet) []om.RegSet {
	var preds edgeLists
	if s.Dir == Forward {
		preds = cfgPreds(pr)
	}
	in := make([]om.RegSet, len(pr.Blocks))
	for bi, b := range pr.Blocks {
		var p []int
		if preds.start != nil {
			p = preds.of(bi)
		}
		in[bi] = s.join(pr, b, state, p)
	}
	return in
}

// VisitProc materializes per-instruction values from a solved block
// state, calling visit once per instruction with the value before and
// after it in PROGRAM order (for a backward problem the flow input is
// "after"; for a forward one it is "before").
func (s *Solver) VisitProc(pr *om.Proc, state []om.RegSet, visit func(in *om.Inst, before, after om.RegSet)) {
	for bi, v := range s.inputs(pr, state) {
		b := pr.Blocks[bi]
		if s.Dir == Backward {
			for k := len(b.Insts) - 1; k >= 0; k-- {
				in := &b.Insts[k]
				after := v
				v = s.Transfer(in).Apply(v)
				visit(in, v, after)
			}
		} else {
			for k := range b.Insts {
				in := &b.Insts[k]
				before := v
				v = s.Transfer(in).Apply(v)
				visit(in, before, v)
			}
		}
	}
}
