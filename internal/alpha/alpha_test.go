package alpha

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegNames(t *testing.T) {
	cases := []struct {
		r    Reg
		name string
	}{
		{V0, "v0"}, {T0, "t0"}, {S0, "s0"}, {FP, "fp"},
		{A0, "a0"}, {A5, "a5"}, {RA, "ra"}, {PV, "pv"},
		{AT, "at"}, {GP, "gp"}, {SP, "sp"}, {Zero, "zero"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.name {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.name)
		}
		r, ok := RegByName(c.name)
		if !ok || r != c.r {
			t.Errorf("RegByName(%q) = %v, %v; want %v, true", c.name, r, ok, c.r)
		}
	}
}

func TestRegByNameNumeric(t *testing.T) {
	for _, name := range []string{"$16", "r16"} {
		r, ok := RegByName(name)
		if !ok || r != A0 {
			t.Errorf("RegByName(%q) = %v, %v; want a0, true", name, r, ok)
		}
	}
	if _, ok := RegByName("r32"); ok {
		t.Error("RegByName(r32) succeeded; want failure")
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName(bogus) succeeded; want failure")
	}
}

// TestRegByName: the software names, "$N" and "rN" for N in 0..31 are
// the only accepted spellings; anything else — trailing junk, a sign, a
// leading zero, inner space, an out-of-range number — is rejected.
func TestRegByName(t *testing.T) {
	for _, c := range []struct {
		name string
		r    Reg
		ok   bool
	}{
		{"$0", V0, true},
		{"r31", Zero, true},
		{"$31", Zero, true},
		{"t11", T11, true},
		{"$32", 0, false},
		{"$-1", 0, false},
		{"", 0, false},
		{"r5junk", 0, false},
		{"$7,", 0, false},
		{"r05", 0, false},
		{"$+3", 0, false},
		{"r 4", 0, false},
		{"R4", 0, false},
		{"A0", 0, false},
		{"a0 ", 0, false},
		{"t12", 0, false},
	} {
		r, ok := RegByName(c.name)
		if r != c.r || ok != c.ok {
			t.Errorf("RegByName(%q) = %v, %v; want %v, %v", c.name, r, ok, c.r, c.ok)
		}
	}
}

func TestCallerCalleePartition(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		caller, callee := r.IsCallerSave(), r.IsCalleeSave()
		if r == Zero {
			if caller || callee {
				t.Errorf("zero register classified caller=%v callee=%v", caller, callee)
			}
			continue
		}
		if caller == callee {
			t.Errorf("%s: caller=%v callee=%v; want exactly one", r, caller, callee)
		}
	}
	if n := len(CallerSaveRegs()); n != 22 {
		t.Errorf("len(CallerSaveRegs()) = %d, want 22", n)
	}
}

func TestEncodeDecodeGolden(t *testing.T) {
	// Encodings checked against the Alpha Architecture Reference Manual
	// formats: opcode<<26 | ra<<21 | rb<<16 | disp16 for memory format, etc.
	cases := []struct {
		in   Inst
		want uint32
	}{
		{Inst{Op: OpLda, Ra: SP, Rb: SP, Disp: -32}, 0x08<<26 | 30<<21 | 30<<16 | 0xFFE0},
		{Inst{Op: OpLdq, Ra: RA, Rb: SP, Disp: 8}, 0x29<<26 | 26<<21 | 30<<16 | 8},
		{Inst{Op: OpStq, Ra: A0, Rb: SP, Disp: 0}, 0x2D<<26 | 16<<21 | 30<<16},
		{Inst{Op: OpBeq, Ra: T0, Disp: 3}, 0x39<<26 | 1<<21 | 3},
		{Inst{Op: OpBr, Ra: Zero, Disp: -1}, 0x30<<26 | 31<<21 | 0x1FFFFF},
		{Inst{Op: OpAddq, Ra: T0, Rb: T1, Rc: T2}, 0x10<<26 | 1<<21 | 2<<16 | 0x20<<5 | 3},
		{Inst{Op: OpAddq, Ra: T0, Lit: 8, HasLit: true, Rc: T0}, 0x10<<26 | 1<<21 | 8<<13 | 1<<12 | 0x20<<5 | 1},
		{Inst{Op: OpJsr, Ra: RA, Rb: PV}, 0x1A<<26 | 26<<21 | 27<<16 | 1<<14},
		{Inst{Op: OpRet, Ra: Zero, Rb: RA}, 0x1A<<26 | 31<<21 | 26<<16 | 2<<14},
		{Inst{Op: OpCallPal, PalFn: PalWrite}, 0x01},
	}
	for _, c := range cases {
		got, err := c.in.Encode()
		if err != nil {
			t.Errorf("Encode(%v): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Encode(%v) = %#08x, want %#08x", c.in, got, c.want)
		}
		back, err := Decode(got)
		if err != nil {
			t.Errorf("Decode(%#08x): %v", got, err)
			continue
		}
		if back != c.in {
			t.Errorf("Decode(Encode(%v)) = %v", c.in, back)
		}
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	bad := []Inst{
		{Op: OpLda, Ra: T0, Rb: T1, Disp: 0x8000},
		{Op: OpLda, Ra: T0, Rb: T1, Disp: -0x8001},
		{Op: OpBr, Ra: Zero, Disp: 1 << 20},
		{Op: OpBr, Ra: Zero, Disp: -(1<<20 + 1)},
		{Op: OpCallPal, PalFn: 1 << 26},
		{Op: OpInvalid},
		{Op: opCount},
	}
	for _, in := range bad {
		if _, err := in.Encode(); err == nil {
			t.Errorf("Encode(%+v) succeeded; want error", in)
		}
	}
}

func TestDecodeUnsupported(t *testing.T) {
	bad := []uint32{
		0x20 << 26,         // LDF (floating) unsupported
		0x10<<26 | 0x7F<<5, // unknown arith function
		0x1A<<26 | 3<<14,   // jsr_coroutine unsupported
		0x17 << 26,         // FLTL unsupported
	}
	for _, w := range bad {
		if _, err := Decode(w); err == nil {
			t.Errorf("Decode(%#08x) succeeded; want error", w)
		}
	}
}

// randInst generates a random valid instruction for roundtrip testing.
func randInst(r *rand.Rand) Inst {
	for {
		op := Op(1 + r.Intn(int(opCount)-1))
		i := Inst{Op: op}
		switch op.Format() {
		case FormatPal:
			i.PalFn = uint32(r.Intn(8))
		case FormatMem:
			i.Ra = Reg(r.Intn(32))
			i.Rb = Reg(r.Intn(32))
			i.Disp = int32(int16(r.Uint32()))
		case FormatBranch:
			i.Ra = Reg(r.Intn(32))
			i.Disp = r.Int31n(1<<21) - 1<<20
		case FormatOperate:
			i.Ra = Reg(r.Intn(32))
			i.Rc = Reg(r.Intn(32))
			if r.Intn(2) == 0 {
				i.HasLit = true
				i.Lit = uint8(r.Uint32())
			} else {
				i.Rb = Reg(r.Intn(32))
			}
		case FormatJump:
			i.Ra = Reg(r.Intn(32))
			i.Rb = Reg(r.Intn(32))
		}
		return i
	}
}

func TestEncodeDecodeRoundtripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInst(r)
		w, err := in.Encode()
		if err != nil {
			t.Logf("Encode(%+v): %v", in, err)
			return false
		}
		out, err := Decode(w)
		if err != nil {
			t.Logf("Decode(%#08x): %v", w, err)
			return false
		}
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeTables covers the decode tables exhaustively: every op of
// opTable round-trips through Encode and Decode, and every (major opcode,
// function) pair no op claims fails with the error text Decode has
// always given it.
func TestDecodeTables(t *testing.T) {
	for op := Op(1); op < opCount; op++ {
		in := Inst{Op: op}
		switch op.Format() {
		case FormatPal:
			in.PalFn = 0x3f
		case FormatMem:
			in.Ra, in.Rb, in.Disp = T1, SP, -8
		case FormatBranch:
			in.Ra, in.Disp = T2, -3
		case FormatOperate:
			in.Ra, in.Rb, in.Rc = T3, T4, T5
		case FormatJump:
			in.Ra, in.Rb = RA, PV
		}
		w, err := in.Encode()
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		if out, err := Decode(w); err != nil || out != in {
			t.Errorf("Decode(Encode(%v)) = %v, %v", in, out, err)
		}
		if in.Op.Format() == FormatOperate {
			in.Rb, in.HasLit, in.Lit = 0, true, 200
			if out, err := Decode(in.MustEncode()); err != nil || out != in {
				t.Errorf("Decode(Encode(%v)) = %v, %v", in, out, err)
			}
		}
	}

	claimed := map[[2]uint32]bool{}
	for op := Op(1); op < opCount; op++ {
		info := opTable[op]
		claimed[[2]uint32{info.opcode, info.fn}] = true
	}
	const regs = 7<<21 | 9<<16 // ra, rb: decoding fails whatever they are
	for opcode := uint32(0); opcode < 64; opcode++ {
		var words []uint32
		var want []string
		switch opcode {
		case 0x1A:
			for fn := uint32(0); fn < 4; fn++ {
				if !claimed[[2]uint32{opcode, fn}] {
					w := opcode<<26 | regs | fn<<14
					words = append(words, w)
					want = append(want, fmt.Sprintf("alpha: decode %#08x: jump function %d unsupported", w, fn))
				}
			}
		case 0x10, 0x11, 0x12, 0x13:
			for fn := uint32(0); fn < 128; fn++ {
				if !claimed[[2]uint32{opcode, fn}] {
					w := opcode<<26 | regs | fn<<5 | 3
					words = append(words, w)
					want = append(want, fmt.Sprintf("alpha: decode %#08x: operate %#02x.%#02x unsupported", w, opcode, fn))
				}
			}
		default:
			if !claimed[[2]uint32{opcode, 0}] {
				w := opcode<<26 | regs | 0x1234
				words = append(words, w)
				want = append(want, fmt.Sprintf("alpha: decode %#08x: major opcode %#02x unsupported", w, opcode))
			}
		}
		for k, w := range words {
			if _, err := Decode(w); err == nil || err.Error() != want[k] {
				t.Errorf("Decode(%#08x) error = %v, want %q", w, err, want[k])
			}
		}
	}
	// Spot-check one text of each kind literally, so a change to the
	// format strings above cannot pass unnoticed.
	for w, want := range map[uint32]string{
		0x20 << 26:         "alpha: decode 0x80000000: major opcode 0x20 unsupported",
		0x10<<26 | 0x7F<<5: "alpha: decode 0x40000fe0: operate 0x10.0x7f unsupported",
		0x1A<<26 | 3<<14:   "alpha: decode 0x6800c000: jump function 3 unsupported",
	} {
		if _, err := Decode(w); err == nil || err.Error() != want {
			t.Errorf("Decode(%#08x) error = %v, want %q", w, err, want)
		}
	}
}

func TestClassifiers(t *testing.T) {
	if !OpBeq.IsCondBranch() || OpBr.IsCondBranch() || OpBsr.IsCondBranch() {
		t.Error("IsCondBranch misclassifies")
	}
	if !OpBr.IsUncondBranch() || !OpBsr.IsUncondBranch() || OpBeq.IsUncondBranch() {
		t.Error("IsUncondBranch misclassifies")
	}
	if !OpBsr.IsCall() || !OpJsr.IsCall() || OpBr.IsCall() || OpRet.IsCall() {
		t.Error("IsCall misclassifies")
	}
	if !OpLdq.IsLoad() || OpStq.IsLoad() || OpLda.IsLoad() {
		t.Error("IsLoad misclassifies")
	}
	if !OpStb.IsStore() || OpLdbu.IsStore() {
		t.Error("IsStore misclassifies")
	}
	widths := map[Op]int{OpLdbu: 1, OpStb: 1, OpLdwu: 2, OpStw: 2, OpLdl: 4, OpStl: 4, OpLdq: 8, OpStq: 8, OpAddq: 0, OpLda: 0}
	for op, want := range widths {
		if got := op.MemBytes(); got != want {
			t.Errorf("%s.MemBytes() = %d, want %d", op, got, want)
		}
	}
}

func TestWritesReadsRegs(t *testing.T) {
	cases := []struct {
		in     Inst
		writes Reg
		hasW   bool
		reads  []Reg
	}{
		{Inst{Op: OpAddq, Ra: T0, Rb: T1, Rc: T2}, T2, true, []Reg{T0, T1}},
		{Inst{Op: OpAddq, Ra: T0, Lit: 1, HasLit: true, Rc: Zero}, 0, false, []Reg{T0}},
		{Inst{Op: OpLdq, Ra: V0, Rb: SP, Disp: 8}, V0, true, []Reg{SP}},
		{Inst{Op: OpStq, Ra: A0, Rb: SP}, 0, false, []Reg{SP, A0}},
		{Inst{Op: OpLda, Ra: SP, Rb: SP, Disp: -16}, SP, true, []Reg{SP}},
		{Inst{Op: OpBsr, Ra: RA, Disp: 4}, RA, true, nil},
		{Inst{Op: OpBeq, Ra: T0, Disp: 2}, 0, false, []Reg{T0}},
		{Inst{Op: OpBr, Ra: Zero, Disp: 2}, 0, false, nil},
		{Inst{Op: OpJsr, Ra: RA, Rb: PV}, RA, true, []Reg{PV}},
		{Inst{Op: OpRet, Ra: Zero, Rb: RA}, 0, false, []Reg{RA}},
	}
	for _, c := range cases {
		w, ok := c.in.WritesReg()
		if ok != c.hasW || (ok && w != c.writes) {
			t.Errorf("%v WritesReg() = %v, %v; want %v, %v", c.in, w, ok, c.writes, c.hasW)
		}
		got := c.in.ReadsRegs(nil)
		if len(got) != len(c.reads) {
			t.Errorf("%v ReadsRegs() = %v, want %v", c.in, got, c.reads)
			continue
		}
		for i := range got {
			if got[i] != c.reads[i] {
				t.Errorf("%v ReadsRegs() = %v, want %v", c.in, got, c.reads)
				break
			}
		}
	}
}

func TestCondHolds(t *testing.T) {
	cases := []struct {
		op   Op
		val  int64
		want bool
	}{
		{OpBeq, 0, true}, {OpBeq, 1, false},
		{OpBne, 0, false}, {OpBne, -5, true},
		{OpBlt, -1, true}, {OpBlt, 0, false},
		{OpBle, 0, true}, {OpBle, 1, false},
		{OpBge, 0, true}, {OpBge, -1, false},
		{OpBgt, 1, true}, {OpBgt, 0, false},
		{OpBlbs, 3, true}, {OpBlbs, 2, false},
		{OpBlbc, 2, true}, {OpBlbc, 3, false},
	}
	for _, c := range cases {
		i := Inst{Op: c.op, Ra: T0}
		if got := i.CondHolds(c.val); got != c.want {
			t.Errorf("%s.CondHolds(%d) = %v, want %v", c.op, c.val, got, c.want)
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpLda, Ra: SP, Rb: SP, Disp: -32}, "lda sp, -32(sp)"},
		{Inst{Op: OpAddq, Ra: T0, Rb: T1, Rc: T2}, "addq t0, t1, t2"},
		{Inst{Op: OpAddq, Ra: T0, Lit: 8, HasLit: true, Rc: T0}, "addq t0, 8, t0"},
		{Inst{Op: OpRet, Rb: RA}, "ret (ra)"},
		{Inst{Op: OpJsr, Ra: RA, Rb: PV}, "jsr ra, (pv)"},
		{Inst{Op: OpCallPal, PalFn: 1}, "call_pal 0x1"},
		{Inst{Op: OpBeq, Ra: T0, Disp: 3}, "beq t0, .+16"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}
