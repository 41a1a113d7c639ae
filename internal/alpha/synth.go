package alpha

// Constructors for the instruction shapes emitted by the assembler and by
// ATOM's call-insertion machinery.

// Mem builds a memory-format instruction: op ra, disp(rb).
func Mem(op Op, ra, rb Reg, disp int32) Inst {
	return Inst{Op: op, Ra: ra, Rb: rb, Disp: disp}
}

// RR builds a register-register operate instruction: op ra, rb, rc.
func RR(op Op, ra, rb, rc Reg) Inst {
	return Inst{Op: op, Ra: ra, Rb: rb, Rc: rc}
}

// RI builds a register-literal operate instruction: op ra, #lit, rc.
func RI(op Op, ra Reg, lit uint8, rc Reg) Inst {
	return Inst{Op: op, Ra: ra, Lit: lit, HasLit: true, Rc: rc}
}

// Br builds a branch-format instruction with a word displacement.
func Br(op Op, ra Reg, disp int32) Inst {
	return Inst{Op: op, Ra: ra, Disp: disp}
}

// Mov builds a register move (bis zero, rb, rc).
func Mov(src, dst Reg) Inst {
	return Inst{Op: OpBis, Ra: Zero, Rb: src, Rc: dst}
}

// HiLo splits a 32-bit-representable value into the (ldah, lda)
// displacement pair such that hi<<16 + sext16(lo) == v.
func HiLo(v int64) (hi, lo int16) {
	lo = int16(v)
	hi = int16((v - int64(lo)) >> 16)
	return hi, lo
}

// FitsHiLo reports whether v can be materialized by a single ldah/lda
// pair, i.e. hi<<16 + sext16(lo) reconstructs v exactly.
func FitsHiLo(v int64) bool {
	hi, lo := HiLo(v)
	return int64(hi)<<16+int64(lo) == v
}

// AppendImm appends to dst the shortest supported instruction sequence
// that loads the 64-bit constant v into register r, and returns the
// extended slice:
//
//	1 instruction for values fitting a signed 16-bit immediate,
//	2 for values fitting the ldah/lda pair (roughly signed 32-bit),
//	up to 5 for arbitrary 64-bit values (build high half, shift, add low).
//
// This mirrors the cost model in the paper (Section 4: "a 16-bit integer
// constant can be built in 1 instruction, a 32-bit constant in two
// instructions, a 64-bit program counter in 3 instructions and so on").
// A dst with room for the sequence is written in place, so a caller that
// sized its buffer allocates nothing.
func AppendImm(dst []Inst, r Reg, v int64) []Inst {
	if v >= -0x8000 && v <= 0x7FFF {
		return append(dst, Mem(OpLda, r, Zero, int32(v)))
	}
	if FitsHiLo(v) {
		hi, lo := HiLo(v)
		dst = append(dst, Mem(OpLdah, r, Zero, int32(hi)))
		if lo != 0 {
			dst = append(dst, Mem(OpLda, r, r, int32(lo)))
		}
		return dst
	}
	// General 64-bit: pick the ldah/lda pair congruent to v modulo 2^32,
	// materialize the remaining base (which the pair's sign carries make
	// an exact multiple of 2^32), shift it up, and add the pair. All
	// arithmetic relies on Go's (and the machine's) wrapping int64
	// semantics, so this is exact across the full 64-bit range.
	lo := int16(v)
	hi := int16((v - int64(lo)) >> 16)
	covered := int64(hi)<<16 + int64(lo)
	base := (v - covered) >> 32
	dst = AppendImm(dst, r, base)
	dst = append(dst, RI(OpSll, r, 32, r))
	if hi != 0 {
		dst = append(dst, Mem(OpLdah, r, r, int32(hi)))
	}
	if lo != 0 {
		dst = append(dst, Mem(OpLda, r, r, int32(lo)))
	}
	return dst
}
