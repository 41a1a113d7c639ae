package om

import (
	"math/bits"

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

// Reads returns the registers the instruction reads (alpha.Inst.ReadsRegs)
// as a set, without allocating.
func Reads(i alpha.Inst) RegSet {
	var buf [2]alpha.Reg // no instruction reads more than two registers
	var s RegSet
	for _, r := range i.ReadsRegs(buf[:0]) {
		s = s.Add(r)
	}
	return s
}

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
