// Package om implements OM, the link-time code-modification system that
// ATOM is built on (Srivastava & Wall, "A Practical System for
// Intermodule Code Optimization at Link-Time").
//
// OM consumes a fully linked executable that retains its symbol table and
// relocation records, and builds a symbolic intermediate representation:
// the program is a sequence of procedures (recovered from function
// symbols), each procedure a sequence of basic blocks, each block a
// sequence of decoded instructions. Control transfers are resolved to IR
// objects, so code can be moved freely and every displacement and address
// constant re-fixed afterwards — "all insertion is done on OM's
// intermediate representation and no address fixups are needed" at
// insertion time (ATOM paper, Section 4).
//
// A Program only ever comes from lifting an executable (BuildCtx). Its
// instructions live in one array indexed by text slot, a block's
// instructions are a window of that array, and a table beside it gives
// each slot's block (BlockAt); an instruction holds no pointer.
//
// ATOM's extension is the splice list: code sequences to lay out before
// or after instructions, each keyed by its instruction's text slot
// (Program.Slot). The list is an input to layout, kept beside the IR
// rather than in it, so nothing writes a Program once it is built and
// one Program can be laid out any number of times, concurrently. The
// higher-level entity-based insertions (procedure, basic block, program)
// are lowered by the atom layer onto instruction slots.
//
// Re-emission is a two-phase protocol, because ATOM places the analysis
// image immediately after the instrumented text and inserted calls
// reference analysis symbols:
//
//	prog, _ := om.BuildCtx(ctx, exe)
//	... collect splices ...
//	lay, _ := prog.LayoutCtx(ctx, splices)       // sizes and the old->new PC map
//	... link the analysis image at a base derived from lay.TextSize() ...
//	res, _ := lay.FinishCtx(ctx, text, resolver) // emit text, patch all references
//
// Layout also publishes the static new->old PC map that lets ATOM present
// original program counters to analysis routines (Section 4, "Keeping
// Pristine Behavior").
package om

import (
	"encoding/binary"
	"fmt"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/obs"
)

// Program is the symbolic IR of one executable.
type Program struct {
	Exe   *aout.File
	Procs []*Proc

	// insts holds every instruction, indexed by its text slot: (Addr -
	// Exe.TextAddr) / 4. Procedures and filler tile text exactly, so the
	// slot is a dense, collision-free key, and program order is slot
	// order. Every block's Insts is a window of it.
	insts []Inst
	// block[k] is the program-wide number of the block holding slot k
	// (BlockAt), -1 for filler: a filler slot (see fillerAt) belongs to
	// no block and is never reached; layout re-emits its word unchanged.
	block []int32
	// blocks holds every block in program order, indexed by its number.
	blocks []Block
}

// Proc is one procedure.
type Proc struct {
	Name   string
	Index  int
	Addr   uint64 // original start address
	Size   uint64 // original size in bytes
	Blocks []*Block
}

// Block is one basic block. Blocks are delimited by branch targets and by
// control-transfer instructions; calls (bsr/jsr) do not end blocks, in
// the tradition of Pixie-style block profiling.
type Block struct {
	Index int // within the procedure
	// Insts is the block's window of the program's instructions: its
	// consecutive text slots.
	Insts []Inst

	// Succs lists intra-procedure successor blocks (fallthrough and
	// branch targets). Cross-procedure transfers are not CFG edges.
	Succs []*Block

	proc *Proc
}

// Inst is one instruction occurrence. It holds no pointer, so the
// collector never scans a program's instruction array.
type Inst struct {
	I    alpha.Inst
	Addr uint64 // original address
}

// Splice is an instruction sequence to lay out before the instruction in
// text slot Slot (Program.Slot), or after it when After is set. The
// sequences of one slot and side run in the order they appear in the
// list given to LayoutCtx. References to symbols outside the rewritten
// image (analysis procedures and data) are expressed as Relocs and
// resolved during Finish.
type Splice struct {
	Slot   int
	After  bool
	Insts  []alpha.Inst
	Relocs []CodeReloc
}

// CodeReloc marks one instruction of a Splice as referring to an
// external symbol.
type CodeReloc struct {
	Index  int // instruction index within Code.Insts
	Type   aout.RelocType
	Sym    string
	Addend int64
}

// Proc returns the named procedure, or nil.
func (p *Program) Proc(name string) *Proc {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// ProcAt returns the procedure starting at the given original address.
func (p *Program) ProcAt(addr uint64) *Proc {
	for _, pr := range p.Procs {
		if pr.Addr == addr {
			return pr
		}
	}
	return nil
}

// slotOf returns the text slot of an original address: its word offset
// from the start of text, for a word-aligned address inside the lifted
// text.
func (p *Program) slotOf(addr uint64) (int, bool) {
	if len(p.insts) == 0 || addr < p.Exe.TextAddr {
		return 0, false
	}
	off := addr - p.Exe.TextAddr
	if off%4 != 0 || off/4 >= uint64(len(p.insts)) {
		return 0, false
	}
	return int(off / 4), true
}

// BlockAt returns the block holding text slot k and its program-wide
// number: blocks are numbered in program order, procedure by procedure.
// For filler or a slot outside text it returns nil and -1.
func (p *Program) BlockAt(k int) (*Block, int) {
	if k < 0 || k >= len(p.block) || p.block[k] < 0 {
		return nil, -1
	}
	g := p.block[k]
	return &p.blocks[g], int(g)
}

// InstAt returns the instruction at an original address, or nil (also
// for filler, which holds no instruction).
func (p *Program) InstAt(addr uint64) *Inst {
	if k, ok := p.slotOf(addr); ok {
		if b, _ := p.BlockAt(k); b != nil {
			return &p.insts[k]
		}
	}
	return nil
}

// filler reports whether slot k is filler between procedures.
func (p *Program) filler(k int) bool {
	b, _ := p.BlockAt(k)
	return b == nil
}

// Resolve returns the index of the procedure whose text holds addr and
// that of the one starting at addr, -1 for none. A zero-size procedure
// holds nothing; it starts where the procedure it aliases does, and that
// one is the start found.
func (p *Program) Resolve(addr uint64) (in, start int) {
	if k, ok := p.slotOf(addr &^ 3); ok {
		if b, _ := p.BlockAt(k); b != nil {
			pr := b.proc
			if pr.Addr == addr {
				return pr.Index, pr.Index
			}
			return pr.Index, -1
		}
	}
	// A procedure without instructions at the end of text: the only
	// start no instruction holds.
	if n := len(p.Procs); n > 0 && p.Procs[n-1].Addr == addr && p.Procs[n-1].Size == 0 {
		return -1, n - 1
	}
	return -1, -1
}

// Slot returns the text slot of an instruction, (Addr - Exe.TextAddr) /
// 4, which indexes per-instruction tables in program order. It reports
// false for an instruction this program did not lift.
func (p *Program) Slot(in *Inst) (int, bool) {
	k, ok := p.slotOf(in.Addr)
	if !ok || &p.insts[k] != in {
		return 0, false
	}
	return k, true
}

// BuildCtx constructs the IR from a linked executable. The executable
// must retain function symbols covering all of text (the .ent/.end
// discipline) and its relocation records. IR construction runs under an
// "om.build" span annotated with the recovered procedure and instruction
// counts.
func BuildCtx(ctx *obs.Ctx, exe *aout.File) (*Program, error) {
	_, sp := ctx.Start("om.build")
	defer sp.End()
	prog, err := buildIR(exe)
	if err != nil {
		return nil, err
	}
	sp.SetAttr(
		obs.Int("procs", int64(len(prog.Procs))),
		obs.Int("insts", int64(prog.NumInsts())))
	return prog, nil
}

func buildIR(exe *aout.File) (*Program, error) {
	if !exe.Linked {
		return nil, fmt.Errorf("om: input is not a linked executable")
	}
	// Sorted by address, a zero-size alias before the procedure it
	// shares its address with.
	fns := exe.Funcs()
	if len(fns) == 0 {
		return nil, fmt.Errorf("om: executable has no function symbols")
	}
	textEnd := exe.TextAddr + uint64(len(exe.Text))
	if textEnd < exe.TextAddr {
		return nil, fmt.Errorf("om: text at %#x (%d bytes) wraps the address space", exe.TextAddr, len(exe.Text))
	}
	n := len(exe.Text) / 4
	prog := &Program{Exe: exe, insts: make([]Inst, n), block: make([]int32, n), Procs: make([]*Proc, len(fns))}
	// Coverage and overlap checks. A filler slot keeps its address, so
	// the PC maps and layout treat it like any other slot.
	expect := exe.TextAddr
	for i, f := range fns {
		if i > 0 && f.Value > expect && fillerAt(exe, expect, f.Value) {
			for a := expect; a < f.Value; a += 4 {
				k := (a - exe.TextAddr) / 4
				prog.insts[k].Addr = a
				prog.block[k] = -1
			}
		} else if f.Value != expect {
			return nil, fmt.Errorf("om: text gap or overlap at %#x (procedure %q starts at %#x)", expect, f.Name, f.Value)
		}
		expect = f.Value + f.Size
	}
	if expect != textEnd {
		return nil, fmt.Errorf("om: text tail at %#x..%#x not covered by any procedure", expect, textEnd)
	}

	// Two passes over the procedures. The first decodes every word and
	// marks the block leaders in the block table, which counts the
	// blocks; the second carves the blocks, their instruction windows and
	// their successor lists from program-wide arrays and numbers every
	// slot's block, so the IR is a handful of allocations however many
	// procedures and blocks it has.
	procs := make([]Proc, len(fns))
	nb := 0
	for idx, f := range fns {
		if f.Size%4 != 0 {
			return nil, fmt.Errorf("om: procedure %q has misaligned size %d", f.Name, f.Size)
		}
		pr := &procs[idx]
		*pr = Proc{Name: f.Name, Index: idx, Addr: f.Value, Size: f.Size}
		prog.Procs[idx] = pr
		nl, err := prog.decodeProc(pr)
		if err != nil {
			return nil, err
		}
		nb += nl
	}
	prog.blocks = make([]Block, nb)
	blockPtrs := make([]*Block, nb)
	succs := make([]*Block, 0, 2*nb)
	g := 0
	for idx := range procs {
		pr := &procs[idx]
		g = prog.sliceBlocks(pr, g, blockPtrs[g:])
		succs = prog.resolveSuccs(pr, succs)
	}
	return prog, nil
}

// span returns the text slots [k0, k1) of a procedure.
func (p *Program) span(pr *Proc) (k0, k1 int) {
	k0 = int((pr.Addr - p.Exe.TextAddr) / 4)
	return k0, k0 + int(pr.Size/4)
}

// fillerAt reports whether the text [lo, hi) between two procedures can
// be lifted as filler, such as the padding ATOM leaves in front of an
// analysis image: it is word-aligned and inside text, no symbol lies in
// it, no relocation patches it, and the procedure in front of it ends in
// an unconditional transfer, so control never runs into it.
func fillerAt(exe *aout.File, lo, hi uint64) bool {
	if lo%4 != 0 || hi%4 != 0 || lo < exe.TextAddr+4 || hi > exe.TextAddr+uint64(len(exe.Text)) {
		return false
	}
	last, err := alpha.Decode(binary.LittleEndian.Uint32(exe.Text[lo-4-exe.TextAddr:]))
	if err != nil || last.Op != alpha.OpBr && last.Op != alpha.OpRet && last.Op != alpha.OpJmp {
		return false
	}
	for _, s := range exe.Symbols {
		if s.Section != aout.SecAbs && s.Section != aout.SecUndef && s.Value >= lo && s.Value < hi {
			return false
		}
	}
	for _, r := range exe.Relocs {
		width := uint64(4)
		if r.Type == aout.RelQuad {
			width = 8
		}
		if at := exe.TextAddr + r.Offset; r.Section == aout.SecText && at+width > lo && at < hi {
			return false
		}
	}
	return true
}

// decodeProc decodes procedure pr into its slots and marks its block
// leaders with a 1 in the block table: branch targets inside the
// procedure, and the instruction after each block-ending transfer. It
// returns the number of leaders.
func (p *Program) decodeProc(pr *Proc) (int, error) {
	k0, k1 := p.span(pr)
	text := p.Exe.Text[uint64(k0)*4:]
	insts, leaders := p.insts[k0:k1], p.block[k0:k1]
	for k := range insts {
		addr := pr.Addr + uint64(k)*4
		if err := alpha.DecodeTo(&insts[k].I, binary.LittleEndian.Uint32(text[k*4:])); err != nil {
			return 0, fmt.Errorf("om: %s+%#x: %w", pr.Name, addr-pr.Addr, err)
		}
		insts[k].Addr = addr
	}
	if len(insts) == 0 {
		return 0, nil
	}
	leaders[0] = 1
	for k := range insts {
		in := &insts[k]
		if in.I.Op.Format() == alpha.FormatBranch {
			if t, ok := pr.branchSlot(in); ok {
				leaders[t] = 1
			}
		}
		if endsBlock(in.I) && k+1 < len(insts) {
			leaders[k+1] = 1
		}
	}
	nl := 0
	for _, l := range leaders {
		nl += int(l)
	}
	return nl, nil
}

// sliceBlocks slices procedure pr, its leaders marked in the block
// table, into blocks numbered from g on: each a capacity-limited window
// of the instruction array, pointed to by the first entries of
// blockPtrs. It overwrites the procedure's block-table entries with the
// numbers and returns the number after its last block.
func (p *Program) sliceBlocks(pr *Proc, g int, blockPtrs []*Block) int {
	k0, k1 := p.span(pr)
	bi, first := -1, k0
	for k := k0; k < k1; k++ {
		if p.block[k] == 1 {
			if bi >= 0 {
				p.blocks[g+bi].Insts = p.insts[first:k:k]
			}
			bi, first = bi+1, k
			p.blocks[g+bi] = Block{Index: bi, proc: pr}
			blockPtrs[bi] = &p.blocks[g+bi]
		}
		p.block[k] = int32(g + bi)
	}
	if bi < 0 {
		return g
	}
	p.blocks[g+bi].Insts = p.insts[first:k1:k1]
	pr.Blocks = blockPtrs[: bi+1 : bi+1]
	return g + bi + 1
}

// endsBlock reports whether the instruction terminates a basic block.
// Calls (bsr, jsr) do not: control returns to the next instruction.
func endsBlock(i alpha.Inst) bool {
	switch {
	case i.Op.IsCondBranch():
		return true
	case i.Op == alpha.OpBr:
		return true
	case i.Op == alpha.OpRet, i.Op == alpha.OpJmp:
		return true
	}
	return false
}

// branchSlot returns the position within the procedure of the
// instruction a branch-format instruction targets, if it lies inside the
// procedure.
func (pr *Proc) branchSlot(in *Inst) (int, bool) {
	target := in.Addr + 4 + uint64(int64(in.I.Disp)*4)
	if target < pr.Addr || target >= pr.Addr+pr.Size {
		return 0, false
	}
	return int((target - pr.Addr) / 4), true
}

// resolveSuccs wires the procedure's intra-procedure successor edges,
// carving every block's Succs from succs, which has room for two per
// block, and returns what is left of it. Every in-procedure branch
// target is a leader, so a branch inside the procedure always lands on a
// block.
func (p *Program) resolveSuccs(pr *Proc, succs []*Block) []*Block {
	k0, _ := p.span(pr)
	for bi, b := range pr.Blocks {
		last := &b.Insts[len(b.Insts)-1]
		n := len(succs)
		taken := func() {
			if k, ok := pr.branchSlot(last); ok {
				tb, _ := p.BlockAt(k0 + k)
				succs = append(succs, tb)
			}
		}
		fall := func() {
			if bi+1 < len(pr.Blocks) {
				succs = append(succs, pr.Blocks[bi+1])
			}
		}
		switch op := last.I.Op; {
		case op.IsCondBranch():
			taken()
			fall()
		case op == alpha.OpBr:
			taken()
		case op == alpha.OpRet || op == alpha.OpJmp:
			// no intra-proc successors
		default:
			fall()
		}
		if len(succs) > n {
			b.Succs = succs[n:len(succs):len(succs)]
		}
	}
	return succs
}

// NumInsts returns the total original instruction count.
func (p *Program) NumInsts() int { return len(p.insts) }
