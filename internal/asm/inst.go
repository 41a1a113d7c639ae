package asm

import (
	"fmt"
	"strings"

	"atom/internal/alpha"
	"atom/internal/aout"
)

func (a *assembler) instruction(op, rest string) error {
	if a.section != aout.SecText {
		return a.errf("instruction %s outside .text", op)
	}
	ops := splitOperands(rest)

	// Pseudo-instructions.
	switch op {
	case "la": // la r, sym[+off] — materialize an address, 2 instructions
		if len(ops) != 2 {
			return a.errf("la needs register, symbol")
		}
		r, ok := alpha.RegByName(ops[0])
		if !ok {
			return a.errf("la: bad register %q", ops[0])
		}
		name, addend, err := parseSymRef(ops[1])
		if err != nil {
			return a.errf("la: %v", err)
		}
		a.addReloc(aout.SecText, a.loc(), aout.RelHi16, name, addend)
		a.emit(alpha.Mem(alpha.OpLdah, r, alpha.Zero, 0))
		a.addReloc(aout.SecText, a.loc(), aout.RelLo16, name, addend)
		a.emit(alpha.Mem(alpha.OpLda, r, r, 0))
		return nil
	case "li": // li r, imm — shortest immediate sequence
		if len(ops) != 2 {
			return a.errf("li needs register, immediate")
		}
		r, ok := alpha.RegByName(ops[0])
		if !ok {
			return a.errf("li: bad register %q", ops[0])
		}
		v, err := parseInt(ops[1])
		if err != nil {
			return a.errf("li: bad immediate %q", ops[1])
		}
		var seq [5]alpha.Inst
		for _, i := range alpha.AppendImm(seq[:0], r, v) {
			a.emit(i)
		}
		return nil
	case "mov": // mov rs, rd
		if len(ops) != 2 {
			return a.errf("mov needs two registers")
		}
		rs, ok1 := alpha.RegByName(ops[0])
		rd, ok2 := alpha.RegByName(ops[1])
		if !ok1 || !ok2 {
			return a.errf("mov: bad registers %q", rest)
		}
		a.emit(alpha.Mov(rs, rd))
		return nil
	case "clr":
		if len(ops) != 1 {
			return a.errf("clr needs one register")
		}
		rd, ok := alpha.RegByName(ops[0])
		if !ok {
			return a.errf("clr: bad register %q", ops[0])
		}
		a.emit(alpha.Mov(alpha.Zero, rd))
		return nil
	case "nop":
		a.emit(alpha.Mov(alpha.Zero, alpha.Zero))
		return nil
	case "negq":
		if len(ops) != 2 {
			return a.errf("negq needs two registers")
		}
		rs, ok1 := alpha.RegByName(ops[0])
		rd, ok2 := alpha.RegByName(ops[1])
		if !ok1 || !ok2 {
			return a.errf("negq: bad registers %q", rest)
		}
		a.emit(alpha.RR(alpha.OpSubq, alpha.Zero, rs, rd))
		return nil
	case "not":
		if len(ops) != 2 {
			return a.errf("not needs two registers")
		}
		rs, ok1 := alpha.RegByName(ops[0])
		rd, ok2 := alpha.RegByName(ops[1])
		if !ok1 || !ok2 {
			return a.errf("not: bad registers %q", rest)
		}
		a.emit(alpha.RR(alpha.OpOrnot, alpha.Zero, rs, rd))
		return nil
	}

	aop, known := alpha.OpByName(op)
	if !known {
		return a.errf("unknown instruction %q", op)
	}

	switch aop.Format() {
	case alpha.FormatPal:
		if len(ops) != 1 {
			return a.errf("call_pal needs a function code")
		}
		fn, err := parseInt(ops[0])
		if err != nil || fn < 0 {
			return a.errf("call_pal: bad function %q", ops[0])
		}
		a.emit(alpha.Inst{Op: alpha.OpCallPal, PalFn: uint32(fn)})
		return nil

	case alpha.FormatMem:
		if len(ops) != 2 {
			return a.errf("%s needs register, address", op)
		}
		r, ok := alpha.RegByName(ops[0])
		if !ok {
			return a.errf("%s: bad register %q", op, ops[0])
		}
		disp, base, err := parseAddr(ops[1])
		if err != nil {
			return a.errf("%s: %v", op, err)
		}
		a.emit(alpha.Mem(aop, r, base, disp))
		return nil

	case alpha.FormatBranch:
		// br/bsr allow an implicit link register.
		var raName, target string
		switch {
		case len(ops) == 2:
			raName, target = ops[0], ops[1]
		case len(ops) == 1 && aop == alpha.OpBr:
			raName, target = "zero", ops[0]
		case len(ops) == 1 && aop == alpha.OpBsr:
			raName, target = "ra", ops[0]
		default:
			return a.errf("%s needs [register,] target", op)
		}
		ra, ok := alpha.RegByName(raName)
		if !ok {
			return a.errf("%s: bad register %q", op, raName)
		}
		return a.emitBranch(aop, ra, target)

	case alpha.FormatOperate:
		if len(ops) != 3 {
			return a.errf("%s needs three operands", op)
		}
		ra, ok := alpha.RegByName(ops[0])
		if !ok {
			return a.errf("%s: bad register %q", op, ops[0])
		}
		rc, ok := alpha.RegByName(ops[2])
		if !ok {
			return a.errf("%s: bad register %q", op, ops[2])
		}
		if rb, ok := alpha.RegByName(ops[1]); ok {
			a.emit(alpha.RR(aop, ra, rb, rc))
			return nil
		}
		lit, err := parseInt(ops[1])
		if err != nil || lit < 0 || lit > 255 {
			return a.errf("%s: operand %q is neither register nor 8-bit literal", op, ops[1])
		}
		a.emit(alpha.RI(aop, ra, uint8(lit), rc))
		return nil

	case alpha.FormatJump:
		return a.emitJump(aop, ops)
	}
	return a.errf("unhandled instruction %q", op)
}

func (a *assembler) emitJump(aop alpha.Op, ops []string) error {
	parseInd := func(s string) (alpha.Reg, bool) {
		s = strings.TrimSpace(s)
		if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
			return 0, false
		}
		return alpha.RegByName(strings.TrimSpace(s[1 : len(s)-1]))
	}
	switch aop {
	case alpha.OpRet:
		switch len(ops) {
		case 0:
			a.emit(alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA})
			return nil
		case 1:
			rb, ok := parseInd(ops[0])
			if !ok {
				return a.errf("ret: bad operand %q", ops[0])
			}
			a.emit(alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: rb})
			return nil
		}
		return a.errf("ret takes at most one operand")
	case alpha.OpJmp:
		if len(ops) != 1 {
			return a.errf("jmp needs (register)")
		}
		rb, ok := parseInd(ops[0])
		if !ok {
			return a.errf("jmp: bad operand %q", ops[0])
		}
		a.emit(alpha.Inst{Op: alpha.OpJmp, Ra: alpha.Zero, Rb: rb})
		return nil
	case alpha.OpJsr:
		switch len(ops) {
		case 1:
			if rb, ok := parseInd(ops[0]); ok {
				a.emit(alpha.Inst{Op: alpha.OpJsr, Ra: alpha.RA, Rb: rb})
				return nil
			}
			// jsr sym — pseudo: load the procedure value, jump through it.
			name, addend, err := parseSymRef(ops[0])
			if err != nil {
				return a.errf("jsr: %v", err)
			}
			a.addReloc(aout.SecText, a.loc(), aout.RelHi16, name, addend)
			a.emit(alpha.Mem(alpha.OpLdah, alpha.PV, alpha.Zero, 0))
			a.addReloc(aout.SecText, a.loc(), aout.RelLo16, name, addend)
			a.emit(alpha.Mem(alpha.OpLda, alpha.PV, alpha.PV, 0))
			a.emit(alpha.Inst{Op: alpha.OpJsr, Ra: alpha.RA, Rb: alpha.PV})
			return nil
		case 2:
			ra, ok1 := alpha.RegByName(ops[0])
			rb, ok2 := parseInd(ops[1])
			if !ok1 || !ok2 {
				return a.errf("jsr: bad operands")
			}
			a.emit(alpha.Inst{Op: alpha.OpJsr, Ra: ra, Rb: rb})
			return nil
		}
		return a.errf("jsr needs a target")
	}
	return a.errf("unhandled jump %v", aop)
}

// parseAddr parses a memory operand: "disp(rb)", "(rb)", or "disp"
// (base defaults to the zero register).
func parseAddr(s string) (disp int32, base alpha.Reg, err error) {
	s = strings.TrimSpace(s)
	base = alpha.Zero
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return 0, 0, fmt.Errorf("bad address %q", s)
		}
		r, ok := alpha.RegByName(strings.TrimSpace(s[i+1 : len(s)-1]))
		if !ok {
			return 0, 0, fmt.Errorf("bad base register in %q", s)
		}
		base = r
		s = strings.TrimSpace(s[:i])
		if s == "" {
			return 0, base, nil
		}
	}
	v, err := parseInt(s)
	if err != nil {
		return 0, 0, fmt.Errorf("bad displacement %q", s)
	}
	if v < -0x8000 || v > 0x7FFF {
		return 0, 0, fmt.Errorf("displacement %d out of 16-bit range", v)
	}
	return int32(v), base, nil
}

// emitBranch resolves a branch to a local text label directly; anything
// else becomes a BR21 relocation for the linker.
func (a *assembler) emitBranch(aop alpha.Op, ra alpha.Reg, target string) error {
	name, addend, err := parseSymRef(target)
	if err != nil {
		return a.errf("%s: %v", aop, err)
	}
	if a.pass == 1 {
		a.sym(name) // record the reference
		a.emit(alpha.Br(aop, ra, 0))
		return nil
	}
	s := a.sym(name)
	if s.defined && s.section == aout.SecText {
		delta := int64(s.offset) + addend - int64(a.loc()+4)
		if delta%4 != 0 {
			return a.errf("%s: target %q misaligned", aop, target)
		}
		disp := delta / 4
		if disp < -(1<<20) || disp >= 1<<20 {
			return a.errf("%s: target %q out of branch range (%d words)", aop, target, disp)
		}
		a.emit(alpha.Br(aop, ra, int32(disp)))
		return nil
	}
	if s.defined {
		return a.errf("%s: target %q is not in .text", aop, target)
	}
	a.addReloc(aout.SecText, a.loc(), aout.RelBr21, name, addend)
	a.emit(alpha.Br(aop, ra, 0))
	return nil
}

// emit appends one instruction to the text section. Pass 1 only reserves
// space; pass 2 encodes.
func (a *assembler) emit(i alpha.Inst) {
	if a.pass == 1 {
		a.text = append(a.text, 0, 0, 0, 0)
		return
	}
	w, err := i.Encode()
	if err != nil {
		if a.emitErr == nil {
			a.emitErr = a.errf("%v", err)
		}
		w = 0
	}
	a.text = append(a.text, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
}
