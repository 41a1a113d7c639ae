package om

import (
	"math/bits"
	"slices"

	"atom/internal/alpha"
)

// RegSet is a set of integer registers, one bit per register.
type RegSet uint32

// Add returns the set with r included.
func (s RegSet) Add(r alpha.Reg) RegSet { return s | 1<<uint(r) }

// Has reports whether r is in the set.
func (s RegSet) Has(r alpha.Reg) bool { return s&(1<<uint(r)) != 0 }

// Union returns the union of two sets.
func (s RegSet) Union(o RegSet) RegSet { return s | o }

// Count returns the number of registers in the set.
func (s RegSet) Count() int { return bits.OnesCount32(uint32(s)) }

// Regs returns the registers in ascending order.
func (s RegSet) Regs() []alpha.Reg {
	var out []alpha.Reg
	for r := alpha.Reg(0); r < alpha.NumRegs; r++ {
		if s.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// DefUse returns the registers the instruction writes
// (alpha.Inst.WritesReg) and reads (alpha.Inst.ReadsRegs) as sets. It
// reads a table of operand roles per operation, derived from those two
// methods, so it costs a few loads and shifts: liveness takes it once per
// instruction of every program it analyzes.
func DefUse(i alpha.Inst) (def, use RegSet) {
	f := RegSet(operandRoles[i.Op])
	var lit RegSet
	if i.HasLit {
		lit = useBReg
	}
	const zero = RegSet(1) << alpha.Zero
	use = (f&useA)<<i.Ra | ((f&useB)>>1|(f&^lit&useBReg)>>2)<<i.Rb
	def = (f&defA)>>3<<i.Ra | (f&defC)>>4<<i.Rc
	return def &^ zero, use &^ zero
}

// Operand roles: which fields an operation reads and writes. useBReg is
// an rb read that a literal operand replaces.
const (
	useA = 1 << iota
	useB
	useBReg
	defA
	defC
)

// operandRoles is DefUse's table, filled by probing WritesReg and
// ReadsRegs on every operation with distinct registers in ra, rb and rc,
// once with a register operand and once with a literal.
var operandRoles = func() (t [256]uint8) {
	const ra, rb, rc = alpha.Reg(1), alpha.Reg(2), alpha.Reg(3)
	var rbuf, lbuf [2]alpha.Reg
	for op := range t {
		in := alpha.Inst{Op: alpha.Op(op), Ra: ra, Rb: rb, Rc: rc}
		var f uint8
		switch w, ok := in.WritesReg(); {
		case ok && w == ra:
			f |= defA
		case ok && w == rc:
			f |= defC
		}
		reg := in.ReadsRegs(rbuf[:0])
		in.HasLit = true
		lit := in.ReadsRegs(lbuf[:0])
		if slices.Contains(lit, ra) {
			f |= useA
		}
		switch {
		case slices.Contains(lit, rb):
			f |= useB
		case slices.Contains(reg, rb):
			f |= useBReg
		}
		t[op] = f
	}
	return t
}()

// allCallerSave is computed once: AllCallerSave sits on per-site and
// per-instruction paths.
var allCallerSave = func() RegSet {
	var s RegSet
	for _, r := range alpha.CallerSaveRegs() {
		s = s.Add(r)
	}
	return s
}()

// AllCallerSave is the set of every caller-save register.
func AllCallerSave() RegSet { return allCallerSave }
