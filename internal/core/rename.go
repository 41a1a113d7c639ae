package core

import (
	"encoding/binary"
	"fmt"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/om"
	"atom/internal/om/dataflow"
)

// Register renaming inside analysis routines (paper, Section 4). An
// analysis routine's scratch registers are arbitrary: the compiler picks
// t0, t1, … — the same registers it picks in the application, so the
// routine's clobber set lands on exactly the registers the application
// keeps live at its sites, and every event pays to save them. Renaming a
// routine's scratch registers to t11, t10, … downward moves its clobber
// set to registers the application rarely holds a value in; the site's
// live ∩ clobbered save set, the wrapper's save set and an inlined body's
// clobber set all shrink with it.
//
// A routine is renamed only when the renaming is invisible to every
// caller: it is a prototyped leaf (no bsr, jsr or jmp, every branch
// internal), nothing in the analysis image enters it — only ATOM's call
// sites and wrappers, which read none of its scratch registers after it
// returns — and none of the registers it renames is live at its entry.
// The argument registers, v0, ra, sp, gp and at keep their roles.

// renameTargets are the registers scratch registers are renamed to, in
// order.
var renameTargets = []alpha.Reg{
	alpha.T11, alpha.T10, alpha.T9, alpha.T8,
	alpha.T7, alpha.T6, alpha.T5, alpha.T4, alpha.T3, alpha.T2, alpha.T1, alpha.T0,
	alpha.PV,
}

// renamable is the set of registers renaming may move: the targets above.
var renamable = func() om.RegSet {
	var s om.RegSet
	for _, r := range renameTargets {
		s = s.Add(r)
	}
	return s
}()

// regMap is a register renaming; identity where unset.
type regMap [alpha.NumRegs]alpha.Reg

func (m *regMap) inst(i alpha.Inst) alpha.Inst {
	switch i.Op.Format() {
	case alpha.FormatMem, alpha.FormatJump:
		i.Ra, i.Rb = m[i.Ra], m[i.Rb]
	case alpha.FormatBranch:
		i.Ra = m[i.Ra]
	case alpha.FormatOperate:
		i.Ra, i.Rc = m[i.Ra], m[i.Rc]
		if !i.HasLit {
			i.Rb = m[i.Rb]
		}
	}
	return i
}

// scratchRenames picks the renaming of each eligible routine among names
// (the prototyped procedures of the analysis program). Routines that
// need no change are left out.
func scratchRenames(prog *om.Program, names []string) map[string]*regMap {
	entered := dataflow.Entered(prog)
	out := map[string]*regMap{}
	for _, name := range names {
		pr := prog.Proc(name)
		if pr == nil || entered[pr.Index] {
			continue
		}
		used, ok := leafRegs(pr)
		if !ok || used&dataflow.UpwardExposed(pr) != 0 {
			continue
		}
		var m regMap
		for r := range m {
			m[r] = alpha.Reg(r)
		}
		changed := false
		k := 0
		for r := alpha.Reg(0); r < alpha.NumRegs; r++ {
			if used.Has(r) {
				m[r] = renameTargets[k]
				changed = changed || m[r] != r
				k++
			}
		}
		if changed {
			out[name] = &m
		}
	}
	return out
}

// leafRegs returns the renamable registers a procedure uses, and whether
// it is a leaf whose control flow stays inside it.
func leafRegs(pr *om.Proc) (om.RegSet, bool) {
	var used om.RegSet
	var buf [2]alpha.Reg
	for _, b := range pr.Blocks {
		for _, in := range b.Insts {
			switch in.I.Op {
			case alpha.OpBsr, alpha.OpJsr, alpha.OpJmp:
				return 0, false
			}
			if in.I.Op.Format() == alpha.FormatBranch {
				if t := in.Addr + 4 + uint64(int64(in.I.Disp)*4); t < pr.Addr || t >= pr.Addr+pr.Size {
					return 0, false
				}
			}
			if w, ok := in.I.WritesReg(); ok {
				used = used.Add(w)
			}
			for _, r := range in.I.ReadsRegs(buf[:0]) {
				used = used.Add(r)
			}
		}
	}
	return used & renamable, true
}

// renameProg applies the renamings to a program's IR in place.
func renameProg(prog *om.Program, renames map[string]*regMap) {
	for name, m := range renames {
		for _, b := range prog.Proc(name).Blocks {
			for k := range b.Insts {
				b.Insts[k].I = m.inst(b.Insts[k].I)
			}
		}
	}
}

// renameImage applies the renamings to the text of a linked image, each
// routine found by its symbol. Only register fields change, so the
// image's relocation records stay valid.
func renameImage(img *aout.File, renames map[string]*regMap) error {
	for name, m := range renames {
		sym, ok := img.Lookup(name)
		if !ok {
			return fmt.Errorf("atom: internal: renamed routine %q missing from the analysis image", name)
		}
		for off := sym.Value - img.TextAddr; off < sym.Value-img.TextAddr+sym.Size; off += 4 {
			in, err := alpha.Decode(binary.LittleEndian.Uint32(img.Text[off:]))
			if err != nil {
				return fmt.Errorf("atom: renaming %s: %w", name, err)
			}
			binary.LittleEndian.PutUint32(img.Text[off:], m.inst(in).MustEncode())
		}
	}
	return nil
}
