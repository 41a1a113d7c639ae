package alpha

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// evalImmSeq interprets an AppendImm sequence and returns the final
// value of register r, mirroring the VM's semantics for the instructions
// the synthesizer may emit.
func evalImmSeq(t *testing.T, seq []Inst, r Reg) int64 {
	t.Helper()
	var regs [NumRegs]int64
	for _, i := range seq {
		var v int64
		switch i.Op {
		case OpLda:
			v = regs[i.Rb] + int64(i.Disp)
		case OpLdah:
			v = regs[i.Rb] + int64(i.Disp)<<16
		case OpSll:
			v = regs[i.Ra] << (uint64(i.Lit) & 63)
		default:
			t.Fatalf("unexpected op %s in immediate sequence", i.Op)
		}
		if i.Op.Format() == FormatMem {
			if i.Rb == r && regs[i.Rb] == 0 && i.Rb != Zero {
				// base is the destination register mid-sequence; fine
			}
			regs[i.Ra] = v
		} else {
			regs[i.Rc] = v
		}
	}
	return regs[r]
}

func TestMaterializeImmExact(t *testing.T) {
	cases := []struct {
		v    int64
		lens int
	}{
		{0, 1}, {1, 1}, {-1, 1}, {0x7FFF, 1}, {-0x8000, 1},
		{0x8000, 2}, {0x12345678, 2}, {-0x12345678, 2},
		{0x7FFFFFFF, 0}, {int64(-0x80000000), 1},
		{0x123456789A, 0}, {-0x123456789A, 0},
		{0x7FFFFFFFFFFFFFFF, 0}, {-0x8000000000000000, 0},
		{0x100000000, 0},
	}
	for _, c := range cases {
		seq := AppendImm(nil, T0, c.v)
		if c.lens > 0 && len(seq) != c.lens {
			t.Errorf("AppendImm(%#x): %d instructions, want %d", c.v, len(seq), c.lens)
		}
		if got := evalImmSeq(t, seq, T0); got != c.v {
			t.Errorf("AppendImm(%#x) evaluates to %#x", c.v, got)
		}
		for _, i := range seq {
			if _, err := i.Encode(); err != nil {
				t.Errorf("AppendImm(%#x) emitted unencodable %v: %v", c.v, i, err)
			}
		}
	}
}

func TestMaterializeImmQuick(t *testing.T) {
	f := func(v int64) bool {
		return evalImmSeq(t, AppendImm(nil, T1, v), T1) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	// Bias toward small and 32-bit-ish values too.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		v := r.Int63n(1<<33) - 1<<32
		if evalImmSeq(t, AppendImm(nil, T1, v), T1) != v {
			t.Fatalf("AppendImm(%#x) wrong", v)
		}
	}
}

// TestAppendImmKeepsPrefix appends after existing instructions, as a
// sized site buffer does: the prefix is untouched, the sequence lands
// right behind it, and a buffer with room for it is written in place.
func TestAppendImmKeepsPrefix(t *testing.T) {
	prefix := []Inst{Mov(A0, T3), Br(OpBr, Zero, 7)}
	for _, v := range []int64{5, 0x12345678, -0x123456789A, 0x7FFFFFFFFFFFFFFF} {
		want := AppendImm(nil, T2, v)
		buf := make([]Inst, len(prefix), len(prefix)+len(want))
		copy(buf, prefix)
		got := AppendImm(buf, T2, v)
		if &got[0] != &buf[0] {
			t.Errorf("AppendImm(%#x) reallocated a buffer with room for %d instructions", v, len(want))
		}
		if len(got) != len(prefix)+len(want) {
			t.Fatalf("AppendImm(%#x) after %d instructions: length %d, want %d", v, len(prefix), len(got), len(prefix)+len(want))
		}
		for i, in := range prefix {
			if got[i] != in {
				t.Errorf("AppendImm(%#x) changed prefix instruction %d: %v, want %v", v, i, got[i], in)
			}
		}
		if ev := evalImmSeq(t, got[len(prefix):], T2); ev != v {
			t.Errorf("AppendImm(%#x) after a prefix evaluates to %#x", v, ev)
		}
	}
}

func TestHiLo(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 0x8000, 0xFFFF, 0x10000, -0x8000, 0x7FFF7FFF, -0x80000000} {
		hi, lo := HiLo(v)
		if got := int64(hi)<<16 + int64(lo); got != v {
			t.Errorf("HiLo(%#x): hi=%d lo=%d reconstructs %#x", v, hi, lo, got)
		}
		if !FitsHiLo(v) {
			t.Errorf("FitsHiLo(%#x) = false", v)
		}
	}
	if FitsHiLo(0x100000000) {
		t.Error("FitsHiLo(2^32) = true")
	}
}

func TestMov(t *testing.T) {
	m := Mov(A0, T3)
	if m.Op != OpBis || m.Ra != Zero || m.Rb != A0 || m.Rc != T3 {
		t.Errorf("Mov = %+v", m)
	}
}
