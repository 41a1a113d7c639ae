package core

import (
	"fmt"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/om"
)

// The analysis-routine inliner. The paper's call-site machinery (Section
// 4) pays a fixed toll per event: the bsr/ret pair, the register-save
// wrapper, and the frame traffic around a call whose body is often a
// handful of instructions — a basic-block counter is two loads, an add
// and two stores. For such routines ATOM can splice the callee body
// directly into the call site: arguments are still materialized into
// a0..a5 exactly as for a call, but the bsr is replaced by the body
// itself, ret edges become fall-throughs, internal branches are
// re-indexed, and the callee's address constants are re-expressed as
// om.CodeRelocs against the analysis image base (the image is rebased
// rigidly per application, so one symbolic base plus a fixed offset
// resolves every reference). The site save set then shrinks from
// "ra + argument registers + whatever the wrapper would save" to
// live ∩ clobbered-by-body — no ra save, no wrapper, no call, no return.
//
// Classification runs on the linked analysis image's own OM IR, when
// the image is built and again when it is decoded from the store, so
// templates have no wire form. Whether a given call site actually
// inlines is decided per plan (Options.NoInline, inlineLimit), so one
// cached image serves every option mix.

// inlineLimit is the largest analysis-routine body, in original
// instructions, that is inlined.
const inlineLimit = 16

// inlineBaseSym is the synthetic symbol inlined bodies' address
// constants are expressed against: it resolves to the rebased analysis
// image's text base, and each CodeReloc carries the target's fixed
// offset from that base as its addend. Rebase is a rigid shift of text,
// data and bss together, so a single base covers all three sections.
const inlineBaseSym = "atom$inline$base"

// inlineTemplate is the splice-ready form of one inlinable analysis
// procedure, extracted from the canonical-base tool image.
type inlineTemplate struct {
	// insts is the body as spliced: removable save/restore pairs
	// stripped, rets rewritten to fall-through branches, internal branch
	// displacements re-encoded against template positions (position-
	// independent, so the template can land anywhere in a site).
	insts  []alpha.Inst
	relocs []om.CodeReloc // against inlineBaseSym, template-relative indices
	// clobbers is the set of caller-save registers the spliced body may
	// overwrite; the site saves live ∩ clobbers around it.
	clobbers om.RegSet
	bodyLen  int // original body size in instructions (inlineLimit gates on this)
	// touchesSP reports whether insts read or write sp. A body that
	// never names sp runs on the application's sp, its site's saves
	// below it (siteBuilder.build).
	touchesSP bool
}

// namesSP reports whether any instruction reads or writes sp.
func namesSP(insts []alpha.Inst) bool {
	var regs [3]alpha.Reg
	for _, i := range insts {
		if w, ok := i.WritesReg(); ok && w == alpha.SP {
			return true
		}
		for _, r := range i.ReadsRegs(regs[:0]) {
			if r == alpha.SP {
				return true
			}
		}
	}
	return false
}

// wrappedProcs returns those of names that have a wrapper in img: every
// defined routine of a wrapper-mode image, none of an in-analysis one,
// whose routines carry spliced saves an inlined copy would duplicate.
// Only a wrapped routine can have a template, since a template replaces
// a wrapper call.
func wrappedProcs(img *aout.File, names []string) []string {
	var out []string
	for _, name := range names {
		if img.SymIndex(WrapperName(name)) >= 0 {
			out = append(out, name)
		}
	}
	return out
}

// extractInlineTemplates classifies each named procedure of prog, the
// lift of the final analysis image img, and returns a template for every
// one that can be spliced into call sites, or nil if none can. A tool
// image's build and its decode both call it with wrappedProcs' names, so
// the templates are a function of the linked file. Rejection is silent —
// a procedure that fails classification is simply called through its
// wrapper as before.
func extractInlineTemplates(prog *om.Program, img *aout.File, names []string) map[string]*inlineTemplate {
	var out map[string]*inlineTemplate
	for _, name := range names {
		pr := prog.Proc(name)
		if pr == nil {
			continue
		}
		if tmpl, _ := classifyInline(pr, img); tmpl != nil {
			if out == nil {
				out = map[string]*inlineTemplate{}
			}
			out[name] = tmpl
		}
	}
	return out
}

// classifyInline decides whether one procedure of the analysis image can
// be spliced into call sites, and builds its template if so. The reason
// string explains a rejection (for tests and diagnostics).
//
// A body is inlinable when:
//   - it is a leaf: no bsr/jsr, no indirect jmp, no call_pal (PAL
//     bodies would also dodge the sbrk redirection, which patches the
//     image text the template is lifted from);
//   - every branch targets the procedure itself (internally relocatable
//     control flow) and control cannot fall off the end;
//   - it never writes gp (no gp reload) and every ret is the standard
//     `ret (ra)`;
//   - its stack discipline is the canonical frame: at most one
//     balanced `lda sp,-F(sp)` / `lda sp,F(sp)` pair per exit, with no
//     other sp writes;
//   - every register it writes is caller-save, or is provably
//     preserved (saved in the prologue and restored on every exit from
//     an otherwise untouched slot);
//   - apart from rets (which are rewritten), nothing reads ra — an
//     inlined body sees the application's ra, not a return address.
//
// Save/restore pairs of preserved registers whose slot serves no other
// purpose are stripped from the template — that is what eliminates the
// ra save/restore of compiler-generated bodies — with branches into
// stripped instructions redirected to the next surviving one.
func classifyInline(pr *om.Proc, img *aout.File) (*inlineTemplate, string) {
	n := int(pr.Size / 4)
	if n == 0 {
		return nil, "empty procedure"
	}
	flat := make([]om.Inst, 0, n)
	for _, b := range pr.Blocks {
		flat = append(flat, b.Insts...)
	}

	// Leaf and opcode screen.
	var regs []alpha.Reg
	for _, in := range flat {
		switch in.I.Op {
		case alpha.OpBsr, alpha.OpJsr:
			return nil, "not a leaf (calls another procedure)"
		case alpha.OpJmp:
			return nil, "indirect jump"
		case alpha.OpCallPal:
			return nil, "PAL call"
		}
		if w, ok := in.I.WritesReg(); ok && w == alpha.GP {
			return nil, "reloads gp"
		}
	}

	// Control flow: branches stay inside the procedure, the last
	// instruction cannot fall off the end, rets are the standard form.
	for _, in := range flat {
		if in.I.Op.Format() == alpha.FormatBranch {
			t := in.Addr + 4 + uint64(int64(in.I.Disp)*4)
			if t < pr.Addr || t >= pr.Addr+pr.Size {
				return nil, "branches outside the procedure"
			}
		}
		if in.I.Op == alpha.OpRet && (in.I.Rb != alpha.RA || in.I.Ra != alpha.Zero) {
			return nil, "nonstandard ret"
		}
	}
	if last := flat[n-1].I; last.Op != alpha.OpRet && last.Op != alpha.OpBr {
		return nil, "control can fall off the end"
	}

	// Frame recognition: an optional `lda sp,-F(sp)` prologue followed
	// by a run of stq saves into the frame.
	isLdaSP := func(i alpha.Inst, disp int64) bool {
		return i.Op == alpha.OpLda && i.Ra == alpha.SP && i.Rb == alpha.SP && int64(i.Disp) == disp
	}
	var frame int64
	spOK := map[int]bool{} // audited sp writes: prologue + per-exit epilogue ldas
	pos := 0
	if i := flat[0].I; i.Op == alpha.OpLda && i.Ra == alpha.SP && i.Rb == alpha.SP && i.Disp < 0 {
		frame = -int64(i.Disp)
		spOK[0] = true
		pos = 1
	}
	type slotInfo struct {
		off int64
		idx int
	}
	saveSlot := map[alpha.Reg]slotInfo{}
	if frame > 0 {
		for pos < n {
			i := flat[pos].I
			if i.Op != alpha.OpStq || i.Rb != alpha.SP {
				break
			}
			off := int64(i.Disp)
			if off < 0 || off+8 > frame {
				break
			}
			if _, dup := saveSlot[i.Ra]; dup {
				break
			}
			clash := false
			for _, s := range saveSlot {
				if off < s.off+8 && s.off < off+8 {
					clash = true
				}
			}
			if clash {
				break
			}
			saveSlot[i.Ra] = slotInfo{off: off, idx: pos}
			pos++
		}
	}

	// Per-exit epilogue: each ret must be preceded by the balancing
	// `lda sp,F(sp)`, itself preceded by a run of ldq restores from the
	// prologue's slots. A register restored at EVERY exit from its own
	// untouched slot is preserved.
	preserved := om.RegSet(0)
	for r := range saveSlot {
		preserved = preserved.Add(r)
	}
	restoreIdx := map[alpha.Reg][]int{}
	sawRet := false
	for k, in := range flat {
		if in.I.Op != alpha.OpRet {
			continue
		}
		sawRet = true
		j := k - 1
		if frame > 0 {
			if j < 0 || !isLdaSP(flat[j].I, frame) {
				return nil, "exit without a balanced frame deallocation"
			}
			spOK[j] = true
			j--
		}
		var restored om.RegSet
		for j >= 0 {
			i := flat[j].I
			s, saved := saveSlot[i.Ra]
			if i.Op != alpha.OpLdq || i.Rb != alpha.SP || !saved || int64(i.Disp) != s.off {
				break
			}
			restored = restored.Add(i.Ra)
			restoreIdx[i.Ra] = append(restoreIdx[i.Ra], j)
			j--
		}
		preserved &= restored
	}
	if !sawRet && frame > 0 {
		// A framed body whose every path ends in an internal br loop
		// never deallocates; nothing to splice safely.
		return nil, "framed body never returns"
	}

	// sp write audit: only the recognized prologue/epilogue ldas may
	// touch sp.
	for idx, in := range flat {
		if w, ok := in.I.WritesReg(); ok && w == alpha.SP && !spOK[idx] {
			return nil, "unrecognized stack-pointer write"
		}
	}

	// A preserved register's slot must hold the prologue value until the
	// restores: any other store into it demotes the register to
	// clobbered (sound — it is then saved at the site if live).
	for idx, in := range flat {
		i := in.I
		if !i.Op.IsStore() || i.Rb != alpha.SP {
			continue
		}
		isSave := false
		if s, ok := saveSlot[i.Ra]; ok && s.idx == idx {
			isSave = true
		}
		if isSave {
			continue
		}
		lo, hi := int64(i.Disp), int64(i.Disp)+int64(i.Op.MemBytes())
		for _, r := range preserved.Regs() {
			s := saveSlot[r]
			if lo < s.off+8 && s.off < hi {
				preserved &^= om.RegSet(0).Add(r)
			}
		}
	}

	// Strip set: a preserved register whose only body appearances are
	// its prologue save and epilogue restores — and whose slot no other
	// memory access touches — contributes nothing once inlined; its
	// save/restore pair is dropped. ra of compiler-generated bodies
	// always qualifies.
	drop := make([]bool, n)
	for _, r := range preserved.Regs() {
		s := saveSlot[r]
		ok := true
		for idx, in := range flat {
			i := in.I
			if idx == s.idx || i.Op == alpha.OpRet {
				continue
			}
			isRestore := false
			for _, ri := range restoreIdx[r] {
				if ri == idx {
					isRestore = true
				}
			}
			if isRestore {
				continue
			}
			if w, wok := i.WritesReg(); wok && w == r {
				ok = false
				break
			}
			touched := false
			for _, rr := range i.ReadsRegs(regs[:0]) {
				if rr == r {
					touched = true
				}
			}
			if touched {
				ok = false
				break
			}
			if (i.Op.IsLoad() || i.Op.IsStore()) && i.Rb == alpha.SP {
				lo, hi := int64(i.Disp), int64(i.Disp)+int64(i.Op.MemBytes())
				if lo < s.off+8 && s.off < hi {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		drop[s.idx] = true
		for _, ri := range restoreIdx[r] {
			drop[ri] = true
		}
	}
	// A trailing ret becomes a plain fall-through into the site's
	// restore sequence.
	if flat[n-1].I.Op == alpha.OpRet {
		drop[n-1] = true
	}

	// Clobber set and register-discipline check over the surviving body.
	var clobbers om.RegSet
	for idx, in := range flat {
		if drop[idx] {
			continue
		}
		i := in.I
		if i.Op == alpha.OpRet {
			continue // rewritten to a branch; writes nothing
		}
		if w, ok := i.WritesReg(); ok && w != alpha.SP {
			switch {
			case preserved.Has(w):
				// restored before every exit; the kept save/restore
				// pair travels with the splice
			case w.IsCallerSave():
				clobbers = clobbers.Add(w)
			default:
				return nil, fmt.Sprintf("clobbers callee-save register %s", w)
			}
		}
		// An inlined body runs with the application's ra, not a return
		// address; any surviving read of ra changes meaning.
		for _, r := range i.ReadsRegs(regs[:0]) {
			if r == alpha.RA {
				return nil, "reads ra"
			}
		}
	}

	// Relocation audit: only absolute address pairs (ldah/lda Hi16+Lo16)
	// against defined image symbols are re-expressible; PC-relative
	// Br21s of internal branches are recomputed during the rewrite and
	// dropped.
	relocAt := map[int][]aout.Reloc{}
	procOff := pr.Addr - img.TextAddr
	for _, r := range img.Relocs {
		if r.Section != aout.SecText || r.Offset < procOff || r.Offset >= procOff+pr.Size {
			continue
		}
		relocAt[int((r.Offset-procOff)/4)] = append(relocAt[int((r.Offset-procOff)/4)], r)
	}

	// Build the spliced form: prefix-count index map (a branch into a
	// dropped instruction redirects to the next surviving one), rets to
	// fall-through branches, internal displacements re-encoded.
	newIdx := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		newIdx[i] = total
		if !drop[i] {
			total++
		}
	}
	out := &inlineTemplate{bodyLen: n}
	for idx, in := range flat {
		if drop[idx] {
			if len(relocAt[idx]) > 0 {
				return nil, "relocation on a stripped instruction"
			}
			continue
		}
		i := in.I
		pos := len(out.insts)
		switch {
		case i.Op == alpha.OpRet:
			i = alpha.Br(alpha.OpBr, alpha.Zero, int32(total-pos-1))
		case i.Op.Format() == alpha.FormatBranch:
			tIdx := int((in.Addr + 4 + uint64(int64(i.Disp)*4) - pr.Addr) / 4)
			i.Disp = int32(newIdx[tIdx] - (pos + 1))
		}
		for _, r := range relocAt[idx] {
			if r.Type == aout.RelBr21 {
				continue // internal; displacement recomputed above
			}
			if r.Type != aout.RelHi16 && r.Type != aout.RelLo16 {
				return nil, fmt.Sprintf("unsupported relocation %v in body", r.Type)
			}
			sym := img.Symbols[r.Sym]
			if sym.Section == aout.SecUndef || sym.Section == aout.SecAbs {
				return nil, fmt.Sprintf("body references non-relocatable symbol %q", sym.Name)
			}
			out.relocs = append(out.relocs, om.CodeReloc{
				Index:  pos,
				Type:   r.Type,
				Sym:    inlineBaseSym,
				Addend: int64(sym.Value+uint64(r.Addend)) - int64(img.TextAddr),
			})
		}
		out.insts = append(out.insts, i)
	}
	out.clobbers = clobbers
	out.touchesSP = namesSP(out.insts)
	return out, ""
}
