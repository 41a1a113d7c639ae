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
// ATOM's extension is the action slot: every instruction carries lists of
// code sequences to splice before and after it. The higher-level
// entity-based insertions (procedure, basic block, program) are lowered
// by the atom layer onto instruction slots.
//
// Re-emission is a two-phase protocol, because ATOM places the analysis
// image immediately after the instrumented text and inserted calls
// reference analysis symbols:
//
//	prog, _ := om.Build(exe)
//	... attach actions ...
//	lay := prog.Layout()              // sizes and the old->new PC map
//	... link the analysis image at a base derived from lay.TextSize() ...
//	res, _ := lay.Finish(resolver)    // emit text, patch all references
//
// Layout also publishes the static new->old PC map that lets ATOM present
// original program counters to analysis routines (Section 4, "Keeping
// Pristine Behavior").
package om

import (
	"fmt"
	"sort"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/obs"
)

// Program is the symbolic IR of one executable.
type Program struct {
	Exe   *aout.File
	Procs []*Proc

	instAt map[uint64]*Inst // original address -> instruction
}

// Proc is one procedure.
type Proc struct {
	Name   string
	Index  int
	Addr   uint64 // original start address
	Size   uint64 // original size in bytes
	Blocks []*Block

	prog *Program
}

// Block is one basic block. Blocks are delimited by branch targets and by
// control-transfer instructions; calls (bsr/jsr) do not end blocks, in
// the tradition of Pixie-style block profiling.
type Block struct {
	Index int // within the procedure
	Insts []*Inst

	// Succs lists intra-procedure successor blocks (fallthrough and
	// branch targets). Cross-procedure transfers are not CFG edges.
	Succs []*Block

	proc *Proc
}

// Inst is one instruction occurrence with its action slots.
type Inst struct {
	I    alpha.Inst
	Addr uint64 // original address

	// Action slots: code spliced before/after this instruction, in the
	// order appended.
	Before []Code
	After  []Code

	block *Block
}

// Code is an instruction sequence to splice into the program. References
// to symbols outside the rewritten image (analysis procedures and data)
// are expressed as Relocs and resolved during Finish.
type Code struct {
	Insts  []alpha.Inst
	Relocs []CodeReloc
}

// CodeReloc marks one instruction of a Code sequence as referring to an
// external symbol.
type CodeReloc struct {
	Index  int // instruction index within Code.Insts
	Type   aout.RelocType
	Sym    string
	Addend int64
}

// Proc returns the procedure containing the instruction.
func (i *Inst) Proc() *Proc { return i.block.proc }

// Block returns the block containing the instruction.
func (i *Inst) Block() *Block { return i.block }

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

// InstAt returns the instruction at an original address, or nil.
func (p *Program) InstAt(addr uint64) *Inst { return p.instAt[addr] }

// Build constructs the IR from a linked executable. The executable must
// retain function symbols covering all of text (the .ent/.end discipline)
// and its relocation records.
func Build(exe *aout.File) (*Program, error) { return BuildCtx(nil, exe) }

// BuildCtx is Build with a stage context: IR construction runs under an
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
	fns := exe.Funcs()
	if len(fns) == 0 {
		return nil, fmt.Errorf("om: executable has no function symbols")
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Value < fns[j].Value })

	prog := &Program{Exe: exe, instAt: make(map[uint64]*Inst, len(exe.Text)/4)}
	textEnd := exe.TextAddr + uint64(len(exe.Text))
	// Coverage and overlap checks.
	expect := exe.TextAddr
	for _, f := range fns {
		if f.Value != expect {
			return nil, fmt.Errorf("om: text gap or overlap at %#x (procedure %q starts at %#x)", expect, f.Name, f.Value)
		}
		expect = f.Value + f.Size
	}
	if expect != textEnd {
		return nil, fmt.Errorf("om: text tail at %#x..%#x not covered by any procedure", expect, textEnd)
	}

	for idx, f := range fns {
		pr := &Proc{Name: f.Name, Index: idx, Addr: f.Value, Size: f.Size, prog: prog}
		if err := prog.buildProc(pr); err != nil {
			return nil, err
		}
		prog.Procs = append(prog.Procs, pr)
	}
	prog.resolveSuccs()
	return prog, nil
}

func (p *Program) buildProc(pr *Proc) error {
	exe := p.Exe
	if pr.Size%4 != 0 {
		return fmt.Errorf("om: procedure %q has misaligned size %d", pr.Name, pr.Size)
	}
	n := int(pr.Size / 4)
	insts := make([]*Inst, n)
	leaders := make([]bool, n)
	if n > 0 {
		leaders[0] = true
	}
	for k := 0; k < n; k++ {
		addr := pr.Addr + uint64(k)*4
		off := addr - exe.TextAddr
		w := uint32(exe.Text[off]) | uint32(exe.Text[off+1])<<8 | uint32(exe.Text[off+2])<<16 | uint32(exe.Text[off+3])<<24
		in, err := alpha.Decode(w)
		if err != nil {
			return fmt.Errorf("om: %s+%#x: %w", pr.Name, addr-pr.Addr, err)
		}
		insts[k] = &Inst{I: in, Addr: addr}
		p.instAt[addr] = insts[k]
	}
	// Mark leaders: branch targets inside this procedure, and the
	// instruction after each block-ending transfer.
	for k, in := range insts {
		op := in.I.Op
		if op.Format() == alpha.FormatBranch {
			target := in.Addr + 4 + uint64(int64(in.I.Disp)*4)
			if target >= pr.Addr && target < pr.Addr+pr.Size {
				leaders[(target-pr.Addr)/4] = true
			}
		}
		if endsBlock(in.I) && k+1 < n {
			leaders[k+1] = true
		}
	}
	// Slice into blocks.
	var cur *Block
	for k := 0; k < n; k++ {
		if leaders[k] {
			cur = &Block{Index: len(pr.Blocks), proc: pr}
			pr.Blocks = append(pr.Blocks, cur)
		}
		insts[k].block = cur
		cur.Insts = append(cur.Insts, insts[k])
	}
	return nil
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

// resolveSuccs wires intra-procedure successor edges.
func (p *Program) resolveSuccs() {
	for _, pr := range p.Procs {
		for bi, b := range pr.Blocks {
			if len(b.Insts) == 0 {
				continue
			}
			last := b.Insts[len(b.Insts)-1]
			fall := bi+1 < len(pr.Blocks)
			switch {
			case last.I.Op.IsCondBranch():
				if t := p.branchTargetBlock(pr, last); t != nil {
					b.Succs = append(b.Succs, t)
				}
				if fall {
					b.Succs = append(b.Succs, pr.Blocks[bi+1])
				}
			case last.I.Op == alpha.OpBr:
				if t := p.branchTargetBlock(pr, last); t != nil {
					b.Succs = append(b.Succs, t)
				}
			case last.I.Op == alpha.OpRet || last.I.Op == alpha.OpJmp:
				// no intra-proc successors
			default:
				if fall {
					b.Succs = append(b.Succs, pr.Blocks[bi+1])
				}
			}
		}
	}
}

// branchTargetBlock returns the block a branch targets if it lies within
// the same procedure and at a block boundary.
func (p *Program) branchTargetBlock(pr *Proc, in *Inst) *Block {
	target := in.Addr + 4 + uint64(int64(in.I.Disp)*4)
	t, ok := p.instAt[target]
	if !ok || t.block.proc != pr {
		return nil
	}
	if len(t.block.Insts) > 0 && t.block.Insts[0] == t {
		return t.block
	}
	return nil
}

// NumInsts returns the total original instruction count.
func (p *Program) NumInsts() int { return len(p.instAt) }
