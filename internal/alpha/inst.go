package alpha

import "fmt"

// Inst is a decoded instruction. Fields are interpreted per the
// operation's format:
//
//   - FormatPal: PalFn.
//   - FormatMem: Ra, Rb, Disp (signed 16-bit byte displacement).
//   - FormatBranch: Ra, Disp (signed 21-bit displacement in words,
//     relative to the updated PC, i.e. the instruction address + 4).
//   - FormatOperate: Ra, Rc, and either Rb (HasLit false) or Lit
//     (HasLit true, 8-bit zero-extended literal).
//   - FormatJump: Ra (link register), Rb (target register).
type Inst struct {
	Op     Op
	Ra     Reg
	Rb     Reg
	Rc     Reg
	Disp   int32
	Lit    uint8
	HasLit bool
	PalFn  uint32
}

// Encode packs the instruction into a 32-bit word. It validates field
// ranges and returns an error for out-of-range displacements or function
// codes.
func (i Inst) Encode() (uint32, error) {
	if i.Op == OpInvalid || i.Op >= opCount {
		return 0, fmt.Errorf("alpha: encode: invalid op %d", i.Op)
	}
	info := opTable[i.Op]
	w := info.opcode << 26
	switch info.format {
	case FormatPal:
		if i.PalFn >= 1<<26 {
			return 0, fmt.Errorf("alpha: encode %s: PAL function %#x out of range", i.Op, i.PalFn)
		}
		return w | i.PalFn, nil
	case FormatMem:
		if i.Disp < -0x8000 || i.Disp > 0x7FFF {
			return 0, fmt.Errorf("alpha: encode %s: displacement %d exceeds 16 bits", i.Op, i.Disp)
		}
		return w | uint32(i.Ra)<<21 | uint32(i.Rb)<<16 | uint32(uint16(i.Disp)), nil
	case FormatBranch:
		if i.Disp < -(1<<20) || i.Disp >= 1<<20 {
			return 0, fmt.Errorf("alpha: encode %s: branch displacement %d exceeds 21 bits", i.Op, i.Disp)
		}
		return w | uint32(i.Ra)<<21 | (uint32(i.Disp) & 0x1FFFFF), nil
	case FormatOperate:
		w |= uint32(i.Ra)<<21 | info.fn<<5 | uint32(i.Rc)
		if i.HasLit {
			w |= uint32(i.Lit)<<13 | 1<<12
		} else {
			w |= uint32(i.Rb) << 16
		}
		return w, nil
	case FormatJump:
		return w | uint32(i.Ra)<<21 | uint32(i.Rb)<<16 | info.fn<<14, nil
	}
	return 0, fmt.Errorf("alpha: encode %s: unknown format", i.Op)
}

// MustEncode is Encode for instructions known to be valid; it panics on
// error and is intended for compile-time-constant instruction templates.
func (i Inst) MustEncode() uint32 {
	w, err := i.Encode()
	if err != nil {
		panic(err)
	}
	return w
}

// Decode unpacks a 32-bit instruction word. It returns an error for major
// opcodes or function codes outside the supported subset.
func Decode(w uint32) (Inst, error) {
	var i Inst
	err := DecodeTo(&i, w)
	return i, err
}

// DecodeTo is Decode into *dst, which it overwrites whole (with the zero
// Inst on error). A loop decoding into an array of instructions writes
// each one in place instead of copying Decode's result: an Inst is too
// wide to travel in registers, and the copy costs more than the decode.
func DecodeTo(dst *Inst, w uint32) error {
	opcode := w >> 26
	switch opcode {
	case 0x00:
		*dst = Inst{Op: OpCallPal, PalFn: w & 0x03FFFFFF}
		return nil
	case 0x08, 0x09, 0x0A, 0x0C, 0x0D, 0x0E, 0x28, 0x29, 0x2C, 0x2D:
		*dst = Inst{
			Op:   majorOps[opcode],
			Ra:   Reg(w >> 21 & 31),
			Rb:   Reg(w >> 16 & 31),
			Disp: int32(int16(w)),
		}
		return nil
	case 0x1A:
		fn := w >> 14 & 3
		op := jumpOps[fn]
		if op == OpInvalid {
			*dst = Inst{}
			return fmt.Errorf("alpha: decode %#08x: jump function %d unsupported", w, fn)
		}
		*dst = Inst{Op: op, Ra: Reg(w >> 21 & 31), Rb: Reg(w >> 16 & 31)}
		return nil
	case 0x30, 0x34, 0x38, 0x39, 0x3A, 0x3B, 0x3C, 0x3D, 0x3E, 0x3F:
		disp := int32(w<<11) >> 11 // sign-extend 21 bits
		*dst = Inst{Op: majorOps[opcode], Ra: Reg(w >> 21 & 31), Disp: disp}
		return nil
	case 0x10, 0x11, 0x12, 0x13:
		fn := w >> 5 & 0x7F
		op := operateOps[opcode-0x10][fn]
		if op == OpInvalid {
			*dst = Inst{}
			return fmt.Errorf("alpha: decode %#08x: operate %#02x.%#02x unsupported", w, opcode, fn)
		}
		*dst = Inst{Op: op, Ra: Reg(w >> 21 & 31), Rc: Reg(w & 31)}
		if w>>12&1 == 1 {
			dst.HasLit = true
			dst.Lit = uint8(w >> 13)
		} else {
			dst.Rb = Reg(w >> 16 & 31)
		}
		return nil
	}
	*dst = Inst{}
	return fmt.Errorf("alpha: decode %#08x: major opcode %#02x unsupported", w, opcode)
}

// The decode tables, indexed by encoding fields rather than looked up in
// maps: Decode runs once per word of every lift, superblock harvest and
// disassembly, and once per instruction the VM steps. OpInvalid marks an unassigned entry.
var (
	majorOps   [64]Op     // memory and branch formats, by major opcode
	jumpOps    [4]Op      // jump format, by function (bits 15..14)
	operateOps [4][128]Op // operate format, by major opcode - 0x10 and function
)

func init() {
	for op := Op(1); op < opCount; op++ {
		info := opTable[op]
		switch info.format {
		case FormatMem, FormatBranch:
			majorOps[info.opcode] = op
		case FormatJump:
			jumpOps[info.fn] = op
		case FormatOperate:
			operateOps[info.opcode-0x10][info.fn] = op
		}
	}
}

// String renders the instruction in assembler syntax with numeric
// displacements (no symbol resolution).
func (i Inst) String() string {
	switch i.Op.Format() {
	case FormatPal:
		return fmt.Sprintf("call_pal %#x", i.PalFn)
	case FormatMem:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Ra, i.Disp, i.Rb)
	case FormatBranch:
		return fmt.Sprintf("%s %s, .%+d", i.Op, i.Ra, (i.Disp+1)*Word)
	case FormatOperate:
		if i.HasLit {
			return fmt.Sprintf("%s %s, %d, %s", i.Op, i.Ra, i.Lit, i.Rc)
		}
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Ra, i.Rb, i.Rc)
	case FormatJump:
		if i.Op == OpRet {
			return fmt.Sprintf("ret (%s)", i.Rb)
		}
		return fmt.Sprintf("%s %s, (%s)", i.Op, i.Ra, i.Rb)
	}
	return "<invalid>"
}

// WritesReg returns the register written by the instruction, if any.
// Writes to the zero register are reported as no write.
func (i Inst) WritesReg() (Reg, bool) {
	var r Reg
	switch i.Op.Format() {
	case FormatMem:
		if i.Op.IsStore() {
			return 0, false
		}
		r = i.Ra // loads and lda/ldah write ra
	case FormatBranch:
		if i.Op != OpBsr {
			return 0, false
		}
		r = i.Ra
	case FormatOperate:
		r = i.Rc
	case FormatJump:
		r = i.Ra
	default:
		return 0, false
	}
	if r == Zero {
		return 0, false
	}
	return r, true
}

// ReadsRegs appends the registers read by the instruction to dst and
// returns the extended slice. The zero register is omitted.
func (i Inst) ReadsRegs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != Zero {
			dst = append(dst, r)
		}
	}
	switch i.Op.Format() {
	case FormatMem:
		add(i.Rb)
		if i.Op.IsStore() {
			add(i.Ra)
		}
	case FormatBranch:
		if i.Op.IsCondBranch() {
			add(i.Ra)
		}
	case FormatOperate:
		add(i.Ra)
		if !i.HasLit {
			add(i.Rb)
		}
	case FormatJump:
		add(i.Rb)
	}
	return dst
}

// CondHolds evaluates a conditional branch's condition against the value
// of its tested register. It panics if the operation is not a conditional
// branch.
func (i Inst) CondHolds(ra int64) bool {
	switch i.Op {
	case OpBlbc:
		return ra&1 == 0
	case OpBeq:
		return ra == 0
	case OpBlt:
		return ra < 0
	case OpBle:
		return ra <= 0
	case OpBlbs:
		return ra&1 == 1
	case OpBne:
		return ra != 0
	case OpBge:
		return ra >= 0
	case OpBgt:
		return ra > 0
	}
	panic(fmt.Sprintf("alpha: CondHolds on %s", i.Op))
}
