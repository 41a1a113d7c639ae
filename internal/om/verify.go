package om

import (
	"encoding/binary"
	"fmt"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/obs"
)

// The IR verifier. Binary rewriting fails in ways ordinary tests miss —
// an edge wired to the wrong block, a branch displacement recomputed
// against a stale layout — and every such defect ends as silent
// corruption of an instrumented program. Verify checks the invariants
// the rest of the system assumes: CFG integrity (every successor edge
// lands on a block leader of the same procedure, fallthrough edges match
// layout order), decode/encode round-trip on every instruction, address
// contiguity, and relocation records within section bounds.
// Layout.VerifyCtx checks the slot tables the PC maps are read from, and
// Layout.VerifyRewriteCtx re-decodes the emitted text against the IR.
//
// All diagnostics carry ORIGINAL program counters (the new->old map is
// applied where a check starts from a new address), so a failure points
// at a source-level procedure of the input program, not at a coordinate
// in the rewritten image.

// Diag is one verifier finding, located by original PC and procedure.
type Diag struct {
	Proc string // containing procedure, when known
	Addr uint64 // original (pre-instrumentation) PC
	Msg  string
}

func (d Diag) String() string {
	if d.Proc != "" {
		return fmt.Sprintf("pc %#x (%s): %s", d.Addr, d.Proc, d.Msg)
	}
	return fmt.Sprintf("pc %#x: %s", d.Addr, d.Msg)
}

// VerifyCtx checks the program IR's structural invariants and returns
// every violation found (nil for a well-formed program). The pass runs
// under an "om.verify" span annotated with the number of instructions
// checked and diagnostics found, also published as "om.verify.checks" /
// "om.verify.diags" counters.
func (p *Program) VerifyCtx(ctx *obs.Ctx) []Diag {
	_, sp := ctx.Start("om.verify", obs.String("stage", "ir"))
	defer sp.End()
	var diags []Diag
	bad := func(pr *Proc, addr uint64, format string, args ...any) {
		name := ""
		if pr != nil {
			name = pr.Name
		}
		diags = append(diags, Diag{Proc: name, Addr: addr, Msg: fmt.Sprintf(format, args...)})
	}

	// Procedure coverage of the text segment; filler may separate two
	// procedures.
	expect := p.Exe.TextAddr
	for i, pr := range p.Procs {
		if i > 0 && pr.Addr > expect && p.fillerSpan(expect, pr.Addr) {
			expect = pr.Addr
		}
		if pr.Addr != expect {
			bad(pr, pr.Addr, "procedure starts at %#x, expected %#x (gap or overlap)", pr.Addr, expect)
		}
		expect = pr.Addr + pr.Size
	}
	if end := p.Exe.TextAddr + uint64(len(p.Exe.Text)); expect != end {
		bad(nil, expect, "procedures cover text up to %#x, segment ends at %#x", expect, end)
	}

	checked := 0
	for _, pr := range p.Procs {
		addr := pr.Addr
		for bi, b := range pr.Blocks {
			if b.Index != bi {
				bad(pr, addr, "block %d carries index %d", bi, b.Index)
			}
			if len(b.Insts) == 0 {
				bad(pr, addr, "block %d is empty", bi)
				continue
			}
			for k := range b.Insts {
				in := &b.Insts[k]
				checked++
				if in.Addr != addr {
					bad(pr, in.Addr, "instruction at position %d of block %d has address %#x, expected %#x", k, bi, in.Addr, addr)
				}
				addr += 4
				if s, ok := p.Slot(in); !ok {
					bad(pr, in.Addr, "text slot does not map back to this instruction")
				} else if sb, _ := p.BlockAt(s); sb != b {
					bad(pr, in.Addr, "block table does not map the slot back to block %d", bi)
				}
				// Decode round-trip: the IR must re-encode to exactly the
				// word it was decoded from.
				w, err := in.I.Encode()
				if err != nil {
					bad(pr, in.Addr, "unencodable instruction %v: %v", in.I, err)
					continue
				}
				rt, err := alpha.Decode(w)
				if err != nil {
					bad(pr, in.Addr, "encoded word %#08x does not decode: %v", w, err)
				} else if rt != in.I {
					bad(pr, in.Addr, "decode round-trip mismatch: %v -> %#08x -> %v", in.I, w, rt)
				}
				if k < len(b.Insts)-1 && endsBlock(in.I) {
					bad(pr, in.Addr, "block-ending %s is not the last instruction of block %d", in.I.Op, bi)
				}
			}
			diags = append(diags, verifySuccs(pr, b, bi)...)
		}
		if addr != pr.Addr+pr.Size {
			bad(pr, addr, "blocks cover %d bytes, procedure size is %d", addr-pr.Addr, pr.Size)
		}
	}

	diags = append(diags, verifyRelocs(p.Exe.Relocs, len(p.Exe.Symbols), uint64(len(p.Exe.Text)), uint64(len(p.Exe.Data)),
		func(sec aout.Section, off uint64) (string, uint64) {
			if sec == aout.SecText {
				addr := p.Exe.TextAddr + off
				return p.procFor(addr), addr
			}
			return "", off
		})...)

	sp.SetAttr(
		obs.Int("checks", int64(checked)),
		obs.Int("diags", int64(len(diags))))
	ctx.Count("om.verify.checks", int64(checked))
	ctx.Count("om.verify.diags", int64(len(diags)))
	return diags
}

// verifySuccs checks one block's successor edges against its terminator:
// the edge set the terminator implies, in resolveSuccs order, each edge
// landing on a block leader of the same procedure.
func verifySuccs(pr *Proc, b *Block, bi int) []Diag {
	var diags []Diag
	last := b.Insts[len(b.Insts)-1]
	bad := func(format string, args ...any) {
		diags = append(diags, Diag{Proc: pr.Name, Addr: last.Addr, Msg: fmt.Sprintf(format, args...)})
	}

	// Every successor must be a block of this procedure, indexed where it
	// claims to be — that makes its first instruction a block leader.
	for _, s := range b.Succs {
		if s.Index < 0 || s.Index >= len(pr.Blocks) || pr.Blocks[s.Index] != s {
			bad("successor edge leaves the procedure or targets a non-leader")
			return diags
		}
	}

	// The expected successor addresses, in resolveSuccs order.
	var want []uint64
	branchTarget := func() (uint64, bool) {
		target := last.Addr + 4 + uint64(int64(last.I.Disp)*4)
		return target, target >= pr.Addr && target < pr.Addr+pr.Size
	}
	fallAddr := last.Addr + 4
	hasFall := bi+1 < len(pr.Blocks)
	switch {
	case last.I.Op.IsCondBranch():
		if t, in := branchTarget(); in {
			want = append(want, t)
		}
		if hasFall {
			want = append(want, fallAddr)
		}
	case last.I.Op == alpha.OpBr:
		if t, in := branchTarget(); in {
			want = append(want, t)
		}
	case last.I.Op == alpha.OpRet || last.I.Op == alpha.OpJmp:
		// no intra-procedure successors
	default:
		if hasFall {
			want = append(want, fallAddr)
		}
	}

	if len(b.Succs) != len(want) {
		bad("%s has %d successor edges, expected %d", last.I.Op, len(b.Succs), len(want))
		return diags
	}
	for i, s := range b.Succs {
		got := s.Insts[0].Addr
		if got != want[i] {
			bad("successor %d lands at %#x, expected %#x", i, got, want[i])
		}
		if i == len(want)-1 && want[i] == fallAddr && s != pr.Blocks[bi+1] {
			bad("fallthrough edge does not match layout order")
		}
	}
	// In-procedure branch targets must be block leaders.
	if last.I.Op.Format() == alpha.FormatBranch && last.I.Op != alpha.OpBsr {
		if t, in := branchTarget(); in {
			leader := false
			for _, tb := range pr.Blocks {
				if len(tb.Insts) > 0 && tb.Insts[0].Addr == t {
					leader = true
					break
				}
			}
			if !leader {
				bad("branch targets %#x, which is not a block leader", t)
			}
		}
	}
	return diags
}

// relocWidth is the number of bytes a relocation type patches.
func relocWidth(t aout.RelocType) uint64 {
	if t == aout.RelQuad {
		return 8
	}
	return 4
}

// verifyRelocs checks relocation records: valid section, symbol index in
// range, patched range within the section. locate attributes a
// (section, offset) pair to a procedure name and original PC for the
// diagnostic.
func verifyRelocs(relocs []aout.Reloc, nsyms int, textLen, dataLen uint64, locate func(aout.Section, uint64) (string, uint64)) []Diag {
	var diags []Diag
	bad := func(r aout.Reloc, format string, args ...any) {
		proc, addr := locate(r.Section, r.Offset)
		diags = append(diags, Diag{Proc: proc, Addr: addr, Msg: fmt.Sprintf(format, args...)})
	}
	for i, r := range relocs {
		var limit uint64
		switch r.Section {
		case aout.SecText:
			limit = textLen
		case aout.SecData:
			limit = dataLen
		default:
			bad(r, "reloc %d in unexpected section %v", i, r.Section)
			continue
		}
		if r.Offset+relocWidth(r.Type) > limit {
			bad(r, "reloc %d (%s) at offset %#x exceeds %d-byte section", i, r.Type, r.Offset, limit)
		}
		if r.Sym < 0 || r.Sym >= nsyms {
			bad(r, "reloc %d references symbol %d of %d", i, r.Sym, nsyms)
		}
	}
	return diags
}

// fillerSpan reports whether every slot of [lo, hi) is filler.
func (p *Program) fillerSpan(lo, hi uint64) bool {
	for a := lo; a < hi; a += 4 {
		k, ok := p.slotOf(a)
		if !ok || !p.filler(k) {
			return false
		}
	}
	return true
}

// procFor attributes an original address to its procedure name.
func (p *Program) procFor(addr uint64) string {
	for _, pr := range p.Procs {
		if addr >= pr.Addr && addr < pr.Addr+pr.Size {
			return pr.Name
		}
	}
	return ""
}

// VerifyCtx checks the layout's slot tables, which both PC maps read: the
// instructions' new addresses are word-aligned, inside the instrumented
// text and strictly increasing (so OldAddr's binary search is exact and
// the maps are mutually inverse), and each slot's before-splices fill
// exactly the gap from start to at. It runs under an "om.verify" span,
// stage "layout".
func (l *Layout) VerifyCtx(ctx *obs.Ctx) []Diag {
	_, sp := ctx.Start("om.verify", obs.String("stage", "layout"))
	defer sp.End()
	var diags []Diag
	p := l.prog
	base := p.Exe.TextAddr
	bad := func(addr uint64, format string, args ...any) {
		diags = append(diags, Diag{Proc: p.procFor(addr), Addr: addr, Msg: fmt.Sprintf(format, args...)})
	}
	if len(l.at) != len(p.insts) || len(l.start) != len(p.insts) {
		bad(base, "layout tables cover %d and %d slots, program has %d", len(l.at), len(l.start), len(p.insts))
	} else {
		j := 0
		for k, n := range l.at {
			old := base + uint64(k)*4
			if n%4 != 0 {
				bad(old, "new address %#x is misaligned", n)
			}
			if n < base || n >= base+l.size {
				bad(old, "new address %#x outside instrumented text [%#x,%#x)", n, base, base+l.size)
			}
			if k > 0 && n <= l.at[k-1] {
				bad(old, "new address %#x does not follow %#x of the previous instruction", n, l.at[k-1])
			}
			var want uint64
			for ; j < len(l.splices) && l.splices[j].Slot == k; j++ {
				if !l.splices[j].After {
					want += uint64(len(l.splices[j].Insts)) * 4
				}
			}
			if s := l.start[k]; s > n {
				bad(old, "before-code starts at %#x, after the instruction at %#x", s, n)
			} else if n-s != want {
				bad(old, "before-code spans %d bytes, its sequences hold %d", n-s, want)
			}
		}
	}
	sp.SetAttr(obs.Int("diags", int64(len(diags))))
	ctx.Count("om.verify.diags", int64(len(diags)))
	return diags
}

// VerifyRewriteCtx re-verifies the rewritten program against the IR: every
// original instruction must decode at its new address with its opcode
// intact and, for branches, a displacement that reaches the new address
// of its original target; every spliced instruction must decode; the
// carried-forward relocation records must stay within the emitted
// sections. Diagnostics locate failures by ORIGINAL PC via the new->old
// map. It runs under an "om.verify" span, stage "rewrite".
func (l *Layout) VerifyRewriteCtx(ctx *obs.Ctx, res *Result) []Diag {
	_, sp := ctx.Start("om.verify", obs.String("stage", "rewrite"))
	defer sp.End()
	var diags []Diag
	p := l.prog
	base := p.Exe.TextAddr
	bad := func(pr *Proc, addr uint64, format string, args ...any) {
		name := ""
		if pr != nil {
			name = pr.Name
		}
		diags = append(diags, Diag{Proc: name, Addr: addr, Msg: fmt.Sprintf(format, args...)})
	}

	if uint64(len(res.Text)) != l.size {
		bad(nil, base, "emitted text is %d bytes, layout sized %d", len(res.Text), l.size)
		sp.SetAttr(obs.Int("diags", int64(len(diags))))
		return diags
	}

	decodeAt := func(newAddr uint64) (alpha.Inst, bool) {
		off := newAddr - base
		if off+4 > uint64(len(res.Text)) {
			return alpha.Inst{}, false
		}
		w := binary.LittleEndian.Uint32(res.Text[off:])
		in, err := alpha.Decode(w)
		return in, err == nil
	}

	checked := 0
	for _, pr := range p.Procs {
		for _, b := range pr.Blocks {
			for j := range b.Insts {
				in := &b.Insts[j]
				checked++
				k, ok := p.Slot(in)
				if !ok || k >= len(l.at) {
					bad(pr, in.Addr, "instruction unmapped by layout")
					continue
				}
				newAddr := l.at[k]
				got, ok := decodeAt(newAddr)
				if !ok {
					bad(pr, in.Addr, "rewritten word at new %#x does not decode", newAddr)
					continue
				}
				if got.Op != in.I.Op {
					bad(pr, in.Addr, "rewritten opcode %s, expected %s", got.Op, in.I.Op)
					continue
				}
				if in.I.Op.Format() == alpha.FormatBranch {
					// The displacement was recomputed; it must reach the new
					// address of the original target.
					oldTarget := in.Addr + 4 + uint64(int64(in.I.Disp)*4)
					wantTarget, ok := l.NewAddr(oldTarget)
					gotTarget := newAddr + 4 + uint64(int64(got.Disp)*4)
					if !ok || gotTarget != wantTarget {
						bad(pr, in.Addr, "rewritten branch reaches new %#x, expected %#x (original target %#x)", gotTarget, wantTarget, oldTarget)
					}
					if got.Ra != in.I.Ra {
						bad(pr, in.Addr, "rewritten branch register %s, expected %s", got.Ra, in.I.Ra)
					}
				} else if got.Ra != in.I.Ra || got.Rb != in.I.Rb || got.Rc != in.I.Rc {
					// Displacements of memory-format instructions may be
					// legitimately re-patched by address relocations; the
					// register operands never change.
					bad(pr, in.Addr, "rewritten operands %v, expected %v", got, in.I)
				}
			}
		}
	}
	// Spliced code — call-site templates and inlined analysis bodies
	// alike. Layout emits each splice's Insts verbatim at its address,
	// then patches exactly the instructions named by its Relocs, so every
	// word must decode, un-patched instructions must match the splice
	// EXACTLY (this re-checks inlined bodies' re-indexed internal branch
	// displacements), and patched ones keep their opcode (relocations
	// rewrite displacement fields only). Diagnostics name the original
	// instruction the splice is attached to.
	for j := range l.splices {
		s, addr := &l.splices[j], l.spliceAt[j]
		in := &p.insts[s.Slot]
		b, _ := p.BlockAt(s.Slot)
		pr := b.proc
		patched := map[int]bool{}
		for _, r := range s.Relocs {
			patched[r.Index] = true
		}
		for k := range s.Insts {
			checked++
			at := addr + uint64(k)*4
			w, ok := decodeAt(at)
			if !ok {
				bad(pr, in.Addr, "spliced word %d at new %#x does not decode", k, at)
				continue
			}
			if w.Op != s.Insts[k].Op {
				bad(pr, in.Addr, "spliced opcode %s at new %#x, expected %s", w.Op, at, s.Insts[k].Op)
				continue
			}
			if !patched[k] && w != s.Insts[k] {
				bad(pr, in.Addr, "spliced instruction %v at new %#x, expected %v", w, at, s.Insts[k])
			}
		}
	}
	// Filler is re-emitted word for word.
	for k := range p.insts {
		if k >= len(l.at) || !p.filler(k) {
			continue
		}
		checked++
		old := binary.LittleEndian.Uint32(p.Exe.Text[k*4:])
		if off := l.at[k] - base; off+4 > uint64(len(res.Text)) || binary.LittleEndian.Uint32(res.Text[off:]) != old {
			bad(nil, p.insts[k].Addr, "filler word at new %#x is not the original %#08x", l.at[k], old)
		}
	}

	// The carried-forward relocation records must stay in bounds of the
	// emitted sections; text offsets are attributed back to original PCs
	// through the new->old map.
	diags = append(diags, verifyRelocs(res.Relocs, len(res.Symbols), uint64(len(res.Text)), uint64(len(res.Data)),
		func(sec aout.Section, off uint64) (string, uint64) {
			if sec == aout.SecText {
				if old, ok := l.OldAddr(base + off); ok {
					return p.procFor(old), old
				}
			}
			return "", off
		})...)

	sp.SetAttr(
		obs.Int("checks", int64(checked)),
		obs.Int("diags", int64(len(diags))))
	ctx.Count("om.verify.checks", int64(checked))
	ctx.Count("om.verify.diags", int64(len(diags)))
	return diags
}
