// Package alpha defines the Alpha AXP instruction-set subset used by the
// ATOM reproduction: instruction formats and encodings, the integer
// register file, and the OSF/1 calling convention.
//
// The subset is faithful to the Alpha Architecture Reference Manual where
// it matters for link-time instrumentation: real major opcodes and
// function codes, 32-bit little-endian instruction words, the memory /
// branch / operate / jump / CALL_PAL formats, and the standard register
// roles (v0, t0-t11, s0-s6, a0-a5, ra, pv, at, gp, sp, zero). Floating
// point and a handful of exotic integer operations are omitted; byte and
// word memory operations follow the BWX extension.
package alpha

import (
	"fmt"
	"strconv"
)

// Reg is an integer register number, 0 through 31.
type Reg uint8

// Register numbers with their OSF/1 software names.
const (
	V0   Reg = 0 // function result
	T0   Reg = 1 // caller-save temporaries
	T1   Reg = 2
	T2   Reg = 3
	T3   Reg = 4
	T4   Reg = 5
	T5   Reg = 6
	T6   Reg = 7
	T7   Reg = 8
	S0   Reg = 9 // callee-save
	S1   Reg = 10
	S2   Reg = 11
	S3   Reg = 12
	S4   Reg = 13
	S5   Reg = 14
	FP   Reg = 15 // frame pointer (callee-save, a.k.a. s6)
	A0   Reg = 16 // argument registers
	A1   Reg = 17
	A2   Reg = 18
	A3   Reg = 19
	A4   Reg = 20
	A5   Reg = 21
	T8   Reg = 22 // more caller-save temporaries
	T9   Reg = 23
	T10  Reg = 24
	T11  Reg = 25
	RA   Reg = 26 // return address
	PV   Reg = 27 // procedure value (t12)
	AT   Reg = 28 // assembler temporary
	GP   Reg = 29 // global pointer
	SP   Reg = 30 // stack pointer
	Zero Reg = 31 // wired zero
)

// NumRegs is the size of the integer register file.
const NumRegs = 32

var regNames = [NumRegs]string{
	"v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "fp",
	"a0", "a1", "a2", "a3", "a4", "a5",
	"t8", "t9", "t10", "t11",
	"ra", "pv", "at", "gp", "sp", "zero",
}

// String returns the OSF/1 software name of the register.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d?", uint8(r))
}

// regByName holds every accepted register spelling — the software
// names, "$0".."$31" and "r0".."r31" — and nothing else.
var regByName = func() map[string]Reg {
	m := make(map[string]Reg, 3*NumRegs)
	for i, n := range regNames {
		m[n] = Reg(i)
		m["$"+strconv.Itoa(i)] = Reg(i)
		m["r"+strconv.Itoa(i)] = Reg(i)
	}
	return m
}()

// RegByName maps both software names ("a0", "ra", "zero") and raw names
// ("$16", "r16") to register numbers. Any other spelling ("r05", "$+3",
// "r5junk") is rejected.
func RegByName(name string) (Reg, bool) {
	r, ok := regByName[name]
	return r, ok
}

// IsCallerSave reports whether the register is caller-save (not preserved
// across calls) under the OSF/1 calling convention. The at register is
// included: inserted instrumentation may use it freely only after saving.
func (r Reg) IsCallerSave() bool {
	switch {
	case r == V0:
		return true
	case r >= T0 && r <= T7:
		return true
	case r >= A0 && r <= A5:
		return true
	case r >= T8 && r <= T11:
		return true
	case r == RA || r == PV || r == AT:
		return true
	}
	return false
}

// IsCalleeSave reports whether the register must be preserved by a callee.
func (r Reg) IsCalleeSave() bool {
	return (r >= S0 && r <= S5) || r == FP || r == GP || r == SP
}

// CallerSaveRegs lists every caller-save register in ascending order.
func CallerSaveRegs() []Reg {
	var out []Reg
	for r := Reg(0); r < NumRegs; r++ {
		if r.IsCallerSave() {
			out = append(out, r)
		}
	}
	return out
}

// ArgRegs returns the six argument registers a0-a5 in order.
func ArgRegs() [6]Reg { return [6]Reg{A0, A1, A2, A3, A4, A5} }

// MaxRegArgs is the number of procedure arguments passed in registers;
// further arguments go on the stack.
const MaxRegArgs = 6

// PAL function codes for the OSF/1-like services provided by the VM.
// These stand in for the OSF/1 PALcode + kernel syscall layer.
const (
	PalHalt   = 0x00 // terminate; a0 = exit status
	PalWrite  = 0x01 // a0 fd, a1 buf, a2 len -> v0 written or -errno
	PalRead   = 0x02 // a0 fd, a1 buf, a2 len -> v0 read or -errno
	PalOpen   = 0x03 // a0 path cstring, a1 flags -> v0 fd or -errno
	PalClose  = 0x04 // a0 fd -> v0 0 or -errno
	PalSbrk   = 0x05 // a0 increment -> v0 previous break (application zone)
	PalCycles = 0x06 // -> v0 instructions retired so far
	PalSbrk2  = 0x07 // a0 increment -> v0 previous break (analysis zone)
)

// PalDefined reports whether fn is one of the PAL services above. Every
// defined service reads at most a0-a2 and writes at most v0.
func PalDefined(fn uint32) bool { return fn <= PalSbrk2 }

// Word is the size in bytes of one instruction.
const Word = 4
