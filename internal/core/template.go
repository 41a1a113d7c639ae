package core

import (
	"fmt"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/om"
)

// Call-site code generation. ATOM "does not steal any registers from the
// application program. It allocates space on the stack before the call,
// saves registers that may be modified during the call, restores the
// saved registers after the call and deallocates the stack space"
// (Section 4). The inserted sequence at each site:
//
//	lda   sp, -frame(sp)                  ; only if frame is not 0
//	stq   <site-saved regs>, ...(sp)      ; ra, the arg registers this
//	                                      ; call writes, and at if used
//	<materialize stack args via at>       ; calls with > 6 arguments
//	<materialize a0..a5>                  ; constants, REGV, VALUEs
//	bsr   ra, <wrapper or analysis proc>  ; or the inlined body
//	ldq   <site-saved regs>, ...(sp)
//	lda   sp, frame(sp)                   ; only if frame is not 0
//
// Stack space that holds nothing is not allocated: a site that saves
// nothing and passes no stack arguments has frame 0. An inlined body
// that never reads or writes sp (and takes at most six arguments) has
// frame 0 too: its saves go to negative offsets from sp, the same bytes
// an allocated frame would cover, so the memory it writes is unchanged.
//
// The remaining caller-save registers in the analysis routine's data-flow
// summary are saved by its wrapper (default) or by save/restore code
// spliced into the analysis routine itself (SaveInAnalysis).

// site is one call site as the plan shapes it: the request, what it
// calls or splices, the registers it saves, and the length of its code.
// spliceSites sizes every site first and then writes them all into one
// instruction buffer and one relocation buffer.
type site struct {
	req     *callReq
	tmpl    *inlineTemplate // non-nil: the body spliced in place of the call
	saved   om.RegSet       // registers saved at this site
	wrapped bool            // the call goes through the procedure's wrapper

	ninsts, nrelocs int // code length, set when the site is sized
}

// target is the symbol a site calls: its analysis procedure or the
// procedure's wrapper.
func (s *site) target() string {
	if s.wrapped {
		return s.req.proto.wrapper
	}
	return s.req.proto.Name
}

// siteBuilder writes the spliced code for one site, appending to insts
// and relocs. spliceSites runs it twice per site: once into scratch
// buffers to size the site, then into the site's window of the apply's
// buffers, whose capacity is exactly that size.
type siteBuilder struct {
	s      *site
	consts []constBlob // the plan's constant blobs, for their labels
	insts  []alpha.Inst
	relocs []om.CodeReloc

	slot      [alpha.NumRegs]int64 // register -> sp offset of its slot
	frame     int64                // bytes sp is lowered by; 0: no adjust
	clobbered om.RegSet            // argument registers already overwritten
}

// siteSaves decides the save set of one call site. clobbers are the
// registers the callee may overwrite that nothing but the site saves:
// the body's clobber set when tmpl is non-nil — the analysis routine's
// body is then spliced in place of the bsr, and the wrapper and the
// call/return disappear entirely — or the site save set of a routine
// called directly. dead are the caller-save registers the application
// cannot read at the site.
func siteSaves(req *callReq, dead, clobbers om.RegSet, tmpl *inlineTemplate) om.RegSet {
	// For a call: ra is always saved ("the return address register is
	// always modified when a call is made so we always save the return
	// address register"); every argument register this site writes; at
	// when the template needs a scratch register; and the callee's
	// clobbers. For an inlined body there is no call — ra is saved only
	// if the body itself clobbers it.
	saved := clobbers
	if tmpl == nil {
		saved = saved.Add(alpha.RA)
	}
	argRegs := alpha.ArgRegs()
	for i := 0; i < min(len(req.args), alpha.MaxRegArgs); i++ {
		saved = saved.Add(argRegs[i])
	}
	if len(req.args) > alpha.MaxRegArgs {
		saved = saved.Add(alpha.AT)
	}

	// Live-register refinement: drop saves of registers the global
	// liveness analysis (internal/om/dataflow) proves dead at this site
	// (dead is empty under Options.NoLiveness) — except registers the
	// template itself must read as argument sources after clobbering
	// them (their save slot doubles as the source copy).
	if dead != 0 {
		var sources om.RegSet
		for _, a := range req.args {
			switch a.kind {
			case argRegV:
				sources = sources.Add(a.reg)
			case argEffAddr:
				sources = sources.Add(req.inst.I.Rb)
			case argBrCond:
				sources = sources.Add(req.inst.I.Ra)
			}
		}
		saved &^= dead &^ sources
	}
	return saved
}

// build appends the site's code to b.insts and b.relocs.
func (b *siteBuilder) build() error {
	s, req := b.s, b.s.req
	nargs := len(req.args)
	nreg := min(nargs, alpha.MaxRegArgs)
	b.clobbered = 0

	// Assign slots above the outgoing stack arguments.
	off := int64(nargs-nreg) * 8
	for r := alpha.Reg(0); r < alpha.NumRegs; r++ {
		if s.saved.Has(r) {
			b.slot[r] = off
			off += 8
		}
	}
	size := (off + 15) &^ 15
	if size > 0x7FFF {
		return fmt.Errorf("atom: call frame too large (%d args)", nargs)
	}
	// A spliced body that never names sp leaves sp alone, and the saves
	// go below it, into the bytes the frame would have covered.
	b.frame = size
	if s.tmpl != nil && !s.tmpl.touchesSP && nargs <= alpha.MaxRegArgs {
		b.frame = 0
		for r := range b.slot {
			b.slot[r] -= size
		}
	}

	// Prologue: allocate, save.
	if b.frame != 0 {
		b.emit(alpha.Mem(alpha.OpLda, alpha.SP, alpha.SP, int32(-b.frame)))
	}
	b.saveRestore(alpha.OpStq)

	// Stack arguments first (they use at as scratch, and their register
	// sources are still pristine).
	for i := alpha.MaxRegArgs; i < nargs; i++ {
		if err := b.materialize(req.args[i], alpha.AT); err != nil {
			return err
		}
		b.emit(alpha.Mem(alpha.OpStq, alpha.AT, alpha.SP, int32(int64(i-alpha.MaxRegArgs)*8)))
	}
	if nargs > alpha.MaxRegArgs {
		// at no longer holds the application's value; later reads of it
		// (REGV(at), effective addresses based on at) use the save slot.
		b.clobbered = b.clobbered.Add(alpha.AT)
	}
	// Register arguments in ascending order; sources that are argument
	// registers already overwritten are reloaded from their save slots.
	argRegs := alpha.ArgRegs()
	for i := 0; i < nreg; i++ {
		if err := b.materialize(req.args[i], argRegs[i]); err != nil {
			return err
		}
		b.clobbered = b.clobbered.Add(argRegs[i])
	}

	if s.tmpl != nil {
		// The inlined body in place of the call. Its internal branches
		// are template-relative (re-encoded at extraction), so the splice
		// is position-independent; its address constants carry CodeRelocs
		// against the analysis image base, offset to site indices here.
		base := len(b.insts)
		for _, r := range s.tmpl.relocs {
			r.Index += base
			b.relocs = append(b.relocs, r)
		}
		b.insts = append(b.insts, s.tmpl.insts...)
	} else {
		// The call. A PC-relative bsr reaches the analysis image, which ATOM
		// places directly after the instrumented text; Finish range-checks.
		b.relocs = append(b.relocs, om.CodeReloc{Index: len(b.insts), Type: aout.RelBr21, Sym: s.target()})
		b.emit(alpha.Br(alpha.OpBsr, alpha.RA, 0))
	}

	// Epilogue: restore, deallocate.
	b.saveRestore(alpha.OpLdq)
	if b.frame != 0 {
		b.emit(alpha.Mem(alpha.OpLda, alpha.SP, alpha.SP, int32(b.frame)))
	}
	return nil
}

// saveRestore emits op (stq or ldq) for every saved register and its
// slot, in register order.
func (b *siteBuilder) saveRestore(op alpha.Op) {
	for r := alpha.Reg(0); r < alpha.NumRegs; r++ {
		if b.s.saved.Has(r) {
			b.emit(alpha.Mem(op, r, alpha.SP, int32(b.slot[r])))
		}
	}
}

func (b *siteBuilder) emit(i alpha.Inst) { b.insts = append(b.insts, i) }

// source yields the register holding the current value of app register r,
// reloading from the save slot when r has been overwritten by earlier
// argument setup. dst is used as the reload target.
func (b *siteBuilder) source(r alpha.Reg, dst alpha.Reg) alpha.Reg {
	if b.clobbered.Has(r) {
		b.emit(alpha.Mem(alpha.OpLdq, dst, alpha.SP, int32(b.slot[r])))
		return dst
	}
	return r
}

// materialize computes one argument value into dst.
func (b *siteBuilder) materialize(a arg, dst alpha.Reg) error {
	in := b.s.req.inst
	switch a.kind {
	case argConst:
		b.insts = alpha.AppendImm(b.insts, dst, a.num)

	case argBlobAddr:
		sym := b.consts[a.blob].label
		b.relocs = append(b.relocs,
			om.CodeReloc{Index: len(b.insts), Type: aout.RelHi16, Sym: sym},
			om.CodeReloc{Index: len(b.insts) + 1, Type: aout.RelLo16, Sym: sym},
		)
		b.emit(alpha.Mem(alpha.OpLdah, dst, alpha.Zero, 0))
		b.emit(alpha.Mem(alpha.OpLda, dst, dst, 0))

	case argRegV:
		switch {
		case a.reg == alpha.SP:
			// The application's sp is the current sp plus our frame.
			b.emit(alpha.Mem(alpha.OpLda, dst, alpha.SP, int32(b.frame)))
		case a.reg == alpha.Zero:
			b.emit(alpha.Mem(alpha.OpLda, dst, alpha.Zero, 0))
		default:
			src := b.source(a.reg, dst)
			if src != dst {
				b.emit(alpha.Mov(src, dst))
			}
		}

	case argEffAddr:
		base := in.I.Rb
		switch {
		case base == alpha.SP:
			disp := int64(in.I.Disp) + b.frame
			if disp >= -0x8000 && disp <= 0x7FFF {
				b.emit(alpha.Mem(alpha.OpLda, dst, alpha.SP, int32(disp)))
			} else {
				b.insts = alpha.AppendImm(b.insts, dst, disp)
				b.emit(alpha.RR(alpha.OpAddq, alpha.SP, dst, dst))
			}
		case base == alpha.Zero:
			b.emit(alpha.Mem(alpha.OpLda, dst, alpha.Zero, in.I.Disp))
		default:
			src := b.source(base, dst)
			b.emit(alpha.Mem(alpha.OpLda, dst, src, in.I.Disp))
		}

	case argBrCond:
		src := b.source(in.I.Ra, dst)
		if in.I.Ra == alpha.Zero {
			src = alpha.Zero
		}
		switch in.I.Op {
		case alpha.OpBeq:
			b.emit(alpha.RI(alpha.OpCmpeq, src, 0, dst))
		case alpha.OpBne:
			b.emit(alpha.RI(alpha.OpCmpeq, src, 0, dst))
			b.emit(alpha.RI(alpha.OpXor, dst, 1, dst))
		case alpha.OpBlt:
			b.emit(alpha.RI(alpha.OpCmplt, src, 0, dst))
		case alpha.OpBle:
			b.emit(alpha.RI(alpha.OpCmple, src, 0, dst))
		case alpha.OpBgt:
			b.emit(alpha.RR(alpha.OpCmplt, alpha.Zero, src, dst))
		case alpha.OpBge:
			b.emit(alpha.RR(alpha.OpCmple, alpha.Zero, src, dst))
		case alpha.OpBlbs:
			b.emit(alpha.RI(alpha.OpAnd, src, 1, dst))
		case alpha.OpBlbc:
			b.emit(alpha.RI(alpha.OpAnd, src, 1, dst))
			b.emit(alpha.RI(alpha.OpXor, dst, 1, dst))
		default:
			return fmt.Errorf("atom: BrCondValue on %s", in.I.Op)
		}

	default:
		return fmt.Errorf("atom: unknown argument kind %d", a.kind)
	}
	return nil
}
