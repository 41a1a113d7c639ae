package om

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/link"
	"atom/internal/obs"
)

// Layout is the address assignment for an instrumented program: every
// original instruction and every spliced Code sequence has been given a
// new address, and the old<->new PC maps are available. No bytes are
// emitted yet — Finish does that once external (analysis image) symbol
// addresses are known.
//
// The assignment is two tables indexed by text slot (Program.Slot): at[k]
// is the new address of the instruction itself, start[k] the new address
// of its first before-sequence (at[k] when it has none). Its
// before-sequences fill [start[k], at[k]) in order and its
// after-sequences follow at[k]+4. Layout keeps program order, so at is
// strictly increasing.
type Layout struct {
	prog  *Program
	size  uint64
	at    []uint64
	start []uint64
}

// Layout assigns new addresses. Original instruction order is preserved;
// each instruction becomes [before-code][instruction][after-code].
func (p *Program) Layout() *Layout { return p.LayoutCtx(nil) }

// LayoutCtx is Layout with a stage context: address assignment runs under
// an "om.layout" span annotated with the instrumented text size.
func (p *Program) LayoutCtx(ctx *obs.Ctx) *Layout {
	_, sp := ctx.Start("om.layout")
	defer sp.End()
	n := len(p.insts)
	tab := make([]uint64, 2*n)
	l := &Layout{prog: p, at: tab[:n:n], start: tab[n:]}
	addr := p.Exe.TextAddr
	for k := range p.insts {
		in := &p.insts[k]
		l.start[k] = addr
		addr += codeBytes(in.Before)
		l.at[k] = addr
		addr += 4 + codeBytes(in.After)
	}
	l.size = addr - p.Exe.TextAddr
	sp.SetAttr(obs.Int("text_bytes", int64(l.size)))
	return l
}

// codeBytes is the size of a list of spliced sequences.
func codeBytes(codes []Code) uint64 {
	n := 0
	for ci := range codes {
		n += len(codes[ci].Insts)
	}
	return uint64(n) * 4
}

// TextSize returns the size in bytes of the instrumented text.
func (l *Layout) TextSize() uint64 { return l.size }

// NewAddr maps an original instruction address to its new address (the
// start of its before-code, so branches into it execute the
// instrumentation, as ATOM requires).
func (l *Layout) NewAddr(old uint64) (uint64, bool) {
	k, ok := l.prog.slotOf(old)
	if !ok {
		return 0, false
	}
	return l.start[k], true
}

// OldAddr maps a new instruction address back to the original address,
// for addresses corresponding to original instructions. Spliced code has
// no original address.
func (l *Layout) OldAddr(new uint64) (uint64, bool) {
	k, ok := slices.BinarySearch(l.at, new)
	if !ok {
		return 0, false
	}
	return l.prog.Exe.TextAddr + uint64(k)*4, true
}

// PCPair is one entry of the static old↔new PC map.
type PCPair struct {
	Old uint64 // original (pre-instrumentation) address
	New uint64 // address in the rewritten text
}

// PCPairs returns the old->new PC map as a slice of pairs sorted by
// original address.
func (l *Layout) PCPairs() []PCPair {
	out := make([]PCPair, len(l.at))
	base := l.prog.Exe.TextAddr
	for k, n := range l.at {
		out[k] = PCPair{Old: base + uint64(k)*4, New: n}
	}
	return out
}

// ProcRange is one procedure's name and [Start,End) address range, in
// ORIGINAL (pre-instrumentation) addresses. Together with OldAddr it is
// everything a run-time observer needs to report measurements in the
// application's own terms (paper, "Keeping Pristine Behavior").
type ProcRange struct {
	Name  string
	Start uint64
	End   uint64
}

// OrigProcs returns the program's procedures as original-address ranges,
// sorted by start address.
func (l *Layout) OrigProcs() []ProcRange {
	out := make([]ProcRange, 0, len(l.prog.Procs))
	for _, pr := range l.prog.Procs {
		out = append(out, ProcRange{Name: pr.Name, Start: pr.Addr, End: pr.Addr + pr.Size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Result is the re-emitted program produced by Finish.
type Result struct {
	Text    []byte        // instrumented text, based at the original TextAddr
	Data    []byte        // application data with text-pointer relocs re-fixed
	Symbols []aout.Symbol // symbol table with text symbols moved
	Entry   uint64
	// Relocs carries the input's relocation records forward, with text
	// offsets remapped to the new layout (branch relocations, which are
	// recomputed from the IR, are dropped). Keeping them means a
	// re-emitted image is still rigidly relocatable — ATOM relies on this
	// to move a spliced analysis image without relinking it.
	Relocs []aout.Reloc
}

// Finish emits the instrumented text. resolve maps external symbol names
// (analysis procedures and data) to absolute addresses.
func (l *Layout) Finish(resolve func(string) (uint64, bool)) (*Result, error) {
	return l.FinishCtx(nil, resolve)
}

// FinishCtx is Finish with a stage context: re-emission and reference
// patching run under an "om.finish" span.
func (l *Layout) FinishCtx(ctx *obs.Ctx, resolve func(string) (uint64, bool)) (*Result, error) {
	_, sp := ctx.Start("om.finish")
	defer sp.End()
	p := l.prog
	exe := p.Exe
	text := make([]byte, l.size)
	base := exe.TextAddr

	// emitCodes emits a slot's before- or after-sequences, laid out
	// back to back from addr.
	emitCodes := func(codes []Code, addr uint64) error {
		for ci := range codes {
			c := &codes[ci]
			// Encode instructions first, then apply code relocs.
			for i, in := range c.Insts {
				w, err := in.Encode()
				if err != nil {
					return fmt.Errorf("om: spliced code: %w", err)
				}
				binary.LittleEndian.PutUint32(text[addr-base+uint64(i)*4:], w)
			}
			for _, r := range c.Relocs {
				target, ok := resolve(r.Sym)
				if !ok {
					return fmt.Errorf("om: spliced code references unknown symbol %q", r.Sym)
				}
				site := addr + uint64(r.Index)*4
				if err := link.Patch(text, site-base, site, r.Type, target+uint64(r.Addend), r.Sym); err != nil {
					return err
				}
			}
			addr += uint64(len(c.Insts)) * 4
		}
		return nil
	}

	for k := range p.insts {
		in := &p.insts[k]
		if err := emitCodes(in.Before, l.start[k]); err != nil {
			return nil, err
		}
		if err := l.emitInst(text, k); err != nil {
			return nil, err
		}
		if err := emitCodes(in.After, l.at[k]+4); err != nil {
			return nil, err
		}
	}

	// Re-apply the retained relocations: address constants referring to
	// text symbols must now produce the NEW addresses (the program has to
	// jump to where code actually is); data-symbol references are
	// unchanged because ATOM never moves application data. Each surviving
	// record is re-emitted (with its text offset remapped) so the result
	// itself remains rigidly relocatable.
	data := append([]byte(nil), exe.Data...)
	var relocs []aout.Reloc
	for _, r := range exe.Relocs {
		sym := exe.Symbols[r.Sym]
		target := sym.Value + uint64(r.Addend)
		if sym.Section == aout.SecText {
			nt, ok := l.NewAddr(sym.Value)
			if !ok {
				return nil, fmt.Errorf("om: reloc against text symbol %q at unmapped %#x", sym.Name, sym.Value)
			}
			target = nt + uint64(r.Addend)
		}
		switch r.Section {
		case aout.SecText:
			oldSite := exe.TextAddr + r.Offset
			k, ok := p.slotOf(oldSite)
			if !ok {
				return nil, fmt.Errorf("om: reloc at unmapped text offset %#x", r.Offset)
			}
			newSite := l.at[k]
			// Branch relocations were already resolved against the old
			// layout and are recomputed by emitInst from displacement;
			// skip them here to avoid double-patching — except they do
			// not occur: the linker resolves BR21 to displacements and
			// emitInst handles those. Address pairs must be re-patched.
			if r.Type == aout.RelBr21 {
				continue
			}
			if err := link.Patch(text, newSite-base, newSite, r.Type, target, sym.Name); err != nil {
				return nil, err
			}
			nr := r
			nr.Offset = newSite - base
			relocs = append(relocs, nr)
		case aout.SecData:
			relocs = append(relocs, r)
			if sym.Section != aout.SecText {
				continue // data-to-data references are unchanged
			}
			if err := link.Patch(data, r.Offset, exe.DataAddr+r.Offset, r.Type, target, sym.Name); err != nil {
				return nil, err
			}
		}
	}

	// Move text symbols to their new addresses. A function's new size
	// runs to the first procedure that now starts after it; procedures
	// are in address order, so their new starts are sorted. A zero-size
	// function (an alias of the code at its address) stays zero-size.
	starts := make([]uint64, 0, len(p.Procs))
	for _, pr := range p.Procs {
		if n, ok := l.NewAddr(pr.Addr); ok {
			starts = append(starts, n)
		}
	}
	syms := make([]aout.Symbol, len(exe.Symbols))
	copy(syms, exe.Symbols)
	for i := range syms {
		if syms[i].Section != aout.SecText {
			continue
		}
		n, ok := l.NewAddr(syms[i].Value)
		if !ok {
			return nil, fmt.Errorf("om: text symbol %q at unmapped %#x", syms[i].Name, syms[i].Value)
		}
		if syms[i].Kind == aout.SymFunc && syms[i].Size != 0 {
			end := base + l.size
			if j, _ := slices.BinarySearch(starts, n+1); j < len(starts) {
				end = starts[j]
			}
			syms[i].Size = end - n
		}
		syms[i].Value = n
	}

	var entry uint64
	if exe.Entry != 0 { // images without an entry point (analysis images)
		var ok bool
		entry, ok = l.NewAddr(exe.Entry)
		if !ok {
			return nil, fmt.Errorf("om: entry point %#x unmapped", exe.Entry)
		}
	}
	return &Result{Text: text, Data: data, Symbols: syms, Entry: entry, Relocs: relocs}, nil
}

// emitInst encodes the instruction in slot k at its new address,
// recomputing PC-relative displacements against the new layout.
func (l *Layout) emitInst(text []byte, k int) error {
	in := &l.prog.insts[k]
	base := l.prog.Exe.TextAddr
	newAddr := l.at[k]
	i := in.I
	if i.Op.Format() == alpha.FormatBranch {
		oldTarget := in.Addr + 4 + uint64(int64(i.Disp)*4)
		newTarget, ok := l.NewAddr(oldTarget)
		if !ok {
			return fmt.Errorf("om: branch at %#x targets unmapped %#x", in.Addr, oldTarget)
		}
		delta := int64(newTarget) - int64(newAddr+4)
		if delta%4 != 0 {
			return fmt.Errorf("om: misaligned rebranch at %#x", in.Addr)
		}
		disp := delta / 4
		if disp < -(1<<20) || disp >= 1<<20 {
			return fmt.Errorf("om: instrumented branch at %#x out of 21-bit range (%d words)", in.Addr, disp)
		}
		i.Disp = int32(disp)
	}
	w, err := i.Encode()
	if err != nil {
		return fmt.Errorf("om: re-encode at %#x: %w", in.Addr, err)
	}
	binary.LittleEndian.PutUint32(text[newAddr-base:], w)
	return nil
}
