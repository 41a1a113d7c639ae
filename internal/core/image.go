package core

import (
	"encoding/binary"
	"fmt"
	"strings"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/asm"
	"atom/internal/obs"
	"atom/internal/om"
)

// Analysis-image helpers shared by the tool-image build (toolimage.go):
// register-save wrappers, the in-analysis save/restore splices, and the
// sbrk redirection that gives the analysis side its own heap zone.

// spliceSaves returns the save/restore splices for the analysis
// program: a prologue before each target's first instruction and an
// epilogue before each of its rets.
func spliceSaves(prog *om.Program, targets []string, save map[string]om.RegSet) ([]om.Splice, error) {
	var splices []om.Splice
	before := func(in *om.Inst, insts []alpha.Inst) error {
		k, ok := prog.Slot(in)
		if !ok {
			return fmt.Errorf("atom: internal: analysis instruction at %#x has no slot", in.Addr)
		}
		splices = append(splices, om.Splice{Slot: k, Insts: insts})
		return nil
	}
	for _, name := range targets {
		s := save[name]
		if s.Count() == 0 {
			continue
		}
		pr := prog.Proc(name)
		frame := int64(8*s.Count()+15) &^ 15
		pro := []alpha.Inst{alpha.Mem(alpha.OpLda, alpha.SP, alpha.SP, int32(-frame))}
		for i, r := range s.Regs() {
			pro = append(pro, alpha.Mem(alpha.OpStq, r, alpha.SP, int32(i*8)))
		}
		if err := before(&pr.Blocks[0].Insts[0], pro); err != nil {
			return nil, err
		}
		for _, b := range pr.Blocks {
			last := &b.Insts[len(b.Insts)-1]
			if last.I.Op != alpha.OpRet {
				continue
			}
			var epi []alpha.Inst
			for i, r := range s.Regs() {
				epi = append(epi, alpha.Mem(alpha.OpLdq, r, alpha.SP, int32(i*8)))
			}
			epi = append(epi, alpha.Mem(alpha.OpLda, alpha.SP, alpha.SP, int32(frame)))
			if err := before(last, epi); err != nil {
				return nil, err
			}
		}
	}
	return splices, nil
}

// wrapperModule generates the wrapper procedures for the given (sorted)
// analysis procedures: each saves the registers its routine's summary
// says may be clobbered (minus those the call site already saved),
// forwards the call, and restores. Wrappers for >6-argument routines also
// relay the stack arguments.
func wrapperModule(ctx *obs.Ctx, names []string, protos map[string]*Proto, wrapSave map[string]om.RegSet) (*aout.File, error) {
	var b strings.Builder
	b.WriteString("\t.text\n")
	for _, name := range names {
		save := wrapSave[name].Regs()
		nStack := len(protos[name].Params) - alpha.MaxRegArgs
		if nStack < 0 {
			nStack = 0
		}
		useAT := nStack > 0
		w := WrapperName(name)
		fmt.Fprintf(&b, "\t.globl %s\n\t.ent %s\n%s:\n", w, w, w)
		slots := 1 + len(save) // ra + saved registers
		if useAT && !wrapSave[name].Has(alpha.AT) {
			slots++
		}
		frame := (int64(nStack)*8 + int64(slots)*8 + 15) &^ 15
		fmt.Fprintf(&b, "\tlda sp, -%d(sp)\n", frame)
		off := int64(nStack) * 8
		fmt.Fprintf(&b, "\tstq ra, %d(sp)\n", off)
		off += 8
		atSaved := false
		for _, r := range save {
			fmt.Fprintf(&b, "\tstq %s, %d(sp)\n", r, off)
			if r == alpha.AT {
				atSaved = true
			}
			off += 8
		}
		atOff := off
		if useAT && !atSaved {
			fmt.Fprintf(&b, "\tstq at, %d(sp)\n", atOff)
			off += 8
		}
		// Relay incoming stack arguments to the callee's frame.
		for k := 0; k < nStack; k++ {
			fmt.Fprintf(&b, "\tldq at, %d(sp)\n", frame+int64(k)*8)
			fmt.Fprintf(&b, "\tstq at, %d(sp)\n", int64(k)*8)
		}
		fmt.Fprintf(&b, "\tbsr ra, %s\n", name)
		off = int64(nStack) * 8
		fmt.Fprintf(&b, "\tldq ra, %d(sp)\n", off)
		off += 8
		for _, r := range save {
			fmt.Fprintf(&b, "\tldq %s, %d(sp)\n", r, off)
			off += 8
		}
		if useAT && !atSaved {
			fmt.Fprintf(&b, "\tldq at, %d(sp)\n", atOff)
		}
		fmt.Fprintf(&b, "\tlda sp, %d(sp)\n", frame)
		fmt.Fprintf(&b, "\tret (ra)\n\t.end %s\n", w)
	}
	return asm.AssembleCtx(ctx, "atom$wrappers.s", b.String())
}

// WrapperName returns the wrapper symbol for an analysis procedure.
func WrapperName(proc string) string { return "atom$w$" + proc }

// redirectSbrk rewrites the analysis image's sbrk to allocate from the
// second heap zone (CALL_PAL sbrk2). With a zero zone offset the two
// zones share one break pointer — the paper's default "linked sbrks"
// scheme; a non-zero offset partitions the heap.
func redirectSbrk(img *aout.File) error {
	sym, ok := img.Lookup("sbrk")
	if !ok {
		return nil // image does not allocate dynamic memory
	}
	start := sym.Value - img.TextAddr
	end := start + sym.Size
	patched := false
	for off := start; off+4 <= end && off+4 <= uint64(len(img.Text)); off += 4 {
		w := binary.LittleEndian.Uint32(img.Text[off:])
		in, err := alpha.Decode(w)
		if err != nil {
			continue
		}
		if in.Op == alpha.OpCallPal && in.PalFn == alpha.PalSbrk {
			in.PalFn = alpha.PalSbrk2
			binary.LittleEndian.PutUint32(img.Text[off:], in.MustEncode())
			patched = true
		}
	}
	if !patched {
		return fmt.Errorf("atom: could not locate the sbrk CALL_PAL in the analysis image")
	}
	return nil
}
