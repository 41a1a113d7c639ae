package link

import (
	"encoding/binary"
	"strings"
	"testing"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/asm"
)

func obj(t *testing.T, src string) *aout.File {
	t.Helper()
	f, err := asm.AssembleCtx(nil, "t.s", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return f
}

const startSrc = `
	.text
	.globl __start
	.ent __start
__start:
	bsr ra, main
	mov v0, a0
	call_pal 0
	.end __start
`

func TestLinkTwoModules(t *testing.T) {
	a := obj(t, startSrc)
	b := obj(t, `
	.text
	.globl main
	.ent main
main:
	la t0, value
	ldq v0, 0(t0)
	ret (ra)
	.end main
	.data
	.globl value
value:	.quad 42
`)
	exe, err := LinkCtx(nil, Config{}, []*aout.File{a, b})
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if !exe.Linked || exe.TextAddr != DefaultTextAddr || exe.DataAddr != DefaultDataAddr {
		t.Errorf("layout: %+v", exe)
	}
	if exe.Entry != DefaultTextAddr {
		t.Errorf("entry = %#x", exe.Entry)
	}
	mainSym, ok := exe.Lookup("main")
	if !ok || mainSym.Value != DefaultTextAddr+3*4 {
		t.Errorf("main = %+v", mainSym)
	}
	// The bsr in __start (word 0) must reach main (word 3): disp 2.
	w := binary.LittleEndian.Uint32(exe.Text[0:])
	in, _ := alpha.Decode(w)
	if in.Op != alpha.OpBsr || in.Disp != 2 {
		t.Errorf("bsr patched to %v", in)
	}
	// The la pair in main must materialize value's address.
	val, _ := exe.Lookup("value")
	ldah, _ := alpha.Decode(binary.LittleEndian.Uint32(exe.Text[12:]))
	lda, _ := alpha.Decode(binary.LittleEndian.Uint32(exe.Text[16:]))
	got := int64(ldah.Disp)<<16 + int64(lda.Disp)
	if uint64(got) != val.Value {
		t.Errorf("la materializes %#x, want %#x", got, val.Value)
	}
	// Data contents preserved.
	if binary.LittleEndian.Uint64(exe.Data[0:]) != 42 {
		t.Error("data contents lost")
	}
	// Relocations retained for OM.
	if len(exe.Relocs) != 3 {
		t.Errorf("retained relocs = %d, want 3", len(exe.Relocs))
	}
}

func TestUndefinedSymbol(t *testing.T) {
	a := obj(t, startSrc)
	_, err := LinkCtx(nil, Config{}, []*aout.File{a})
	if err == nil || !strings.Contains(err.Error(), "undefined symbols") || !strings.Contains(err.Error(), "main") {
		t.Errorf("err = %v", err)
	}
}

func TestDuplicateSymbol(t *testing.T) {
	a := obj(t, "\t.text\n\t.globl f\n\t.ent f\nf:\tret (ra)\n\t.end f\n")
	b := obj(t, "\t.text\n\t.globl f\n\t.ent f\nf:\tret (ra)\n\t.end f\n")
	_, err := LinkCtx(nil, Config{Entry: "f"}, []*aout.File{a, b})
	if err == nil || !strings.Contains(err.Error(), "multiply defined") {
		t.Errorf("err = %v", err)
	}
}

func TestLocalSymbolsDoNotCollide(t *testing.T) {
	a := obj(t, "\t.text\n\t.globl __start\n\t.ent __start\n__start:\nloop:\tbr loop\n\t.end __start\n")
	b := obj(t, "\t.text\n\t.globl g\n\t.ent g\ng:\nloop:\tbr loop\n\t.end g\n")
	if _, err := LinkCtx(nil, Config{}, []*aout.File{a, b}); err != nil {
		t.Errorf("Link with colliding locals: %v", err)
	}
}

func TestLibrarySelection(t *testing.T) {
	mainObj := obj(t, startSrc+`
	.text
	.globl main
	.ent main
main:
	bsr ra, helper1
	ret (ra)
	.end main
`)
	// helper1 needs helper2 (transitive); helper3 is unused.
	h1 := obj(t, "\t.text\n\t.globl helper1\n\t.ent helper1\nhelper1:\tbsr ra, helper2\n\tret (ra)\n\t.end helper1\n")
	h2 := obj(t, "\t.text\n\t.globl helper2\n\t.ent helper2\nhelper2:\tret (ra)\n\t.end helper2\n")
	h3 := obj(t, "\t.text\n\t.globl helper3\n\t.ent helper3\nhelper3:\tret (ra)\n\t.end helper3\n")
	lib := &Library{Name: "libh", Members: []*aout.File{h3, h2, h1}}
	exe, err := LinkCtx(nil, Config{}, []*aout.File{mainObj}, lib)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if _, ok := exe.Lookup("helper1"); !ok {
		t.Error("helper1 not linked")
	}
	if _, ok := exe.Lookup("helper2"); !ok {
		t.Error("helper2 (transitive) not linked")
	}
	if _, ok := exe.Lookup("helper3"); ok {
		t.Error("helper3 linked although unused")
	}
}

func TestZeroBss(t *testing.T) {
	a := obj(t, startSrc+`
	.text
	.globl main
	.ent main
main:	ret (ra)
	.end main
	.data
d:	.quad 1
	.bss
	.comm buf, 64
`)
	exe, err := LinkCtx(nil, Config{ZeroBss: true}, []*aout.File{a})
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if exe.Bss != 0 {
		t.Errorf("bss = %d, want 0", exe.Bss)
	}
	buf, ok := exe.Lookup("buf")
	if !ok || buf.Section != aout.SecData {
		t.Errorf("buf = %+v, want in .data", buf)
	}
	off := buf.Value - exe.DataAddr
	for i := uint64(0); i < 64; i++ {
		if exe.Data[off+i] != 0 {
			t.Fatalf("bss byte %d not zero-initialized", i)
		}
	}
}

func TestTextDataOverlapRejected(t *testing.T) {
	a := obj(t, startSrc+"\t.text\n\t.globl main\n\t.ent main\nmain:\tret (ra)\n\t.end main\n")
	_, err := LinkCtx(nil, Config{TextAddr: 0x1000, DataAddr: 0x1008}, []*aout.File{a})
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("err = %v", err)
	}
}

func TestEntryMissing(t *testing.T) {
	a := obj(t, "\t.text\n\t.globl f\n\t.ent f\nf:\tret (ra)\n\t.end f\n")
	if _, err := LinkCtx(nil, Config{}, []*aout.File{a}); err == nil {
		t.Error("link without __start succeeded")
	}
	// Entry "-" skips the requirement (analysis images).
	if _, err := LinkCtx(nil, Config{Entry: "-"}, []*aout.File{a}); err != nil {
		t.Errorf("Entry=-: %v", err)
	}
}

func TestRejectsLinkedInput(t *testing.T) {
	a := obj(t, startSrc+"\t.text\n\t.globl main\n\t.ent main\nmain:\tret (ra)\n\t.end main\n")
	exe, err := LinkCtx(nil, Config{}, []*aout.File{a})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LinkCtx(nil, Config{}, []*aout.File{exe}); err == nil {
		t.Error("linking an executable succeeded")
	}
}

func TestPatchBr21Range(t *testing.T) {
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint32(buf, alpha.Br(alpha.OpBr, alpha.Zero, 0).MustEncode())
	if err := Patch(buf, 0, 0x1000, aout.RelBr21, 0x1000+4+(1<<20)*4, "far"); err == nil {
		t.Error("out-of-range branch accepted")
	}
	if err := Patch(buf, 0, 0x1000, aout.RelBr21, 0x1002, "odd"); err == nil {
		t.Error("misaligned branch target accepted")
	}
	if err := Patch(buf, 0, 0x1000, aout.RelBr21, 0x2000, "ok"); err != nil {
		t.Errorf("valid branch rejected: %v", err)
	}
	in, _ := alpha.Decode(binary.LittleEndian.Uint32(buf))
	if in.Disp != (0x2000-0x1004)/4 {
		t.Errorf("patched disp = %d", in.Disp)
	}
}

func TestPatchHiLoPair(t *testing.T) {
	for _, target := range []uint64{0x400000, 0x408000, 0x40FFFF, 0x7FFFFFFF & 0x7FFF7FFF} {
		buf := make([]byte, 8)
		w0 := alpha.Mem(alpha.OpLdah, alpha.T0, alpha.Zero, 0).MustEncode()
		w1 := alpha.Mem(alpha.OpLda, alpha.T0, alpha.T0, 0).MustEncode()
		binary.LittleEndian.PutUint32(buf[0:], w0)
		binary.LittleEndian.PutUint32(buf[4:], w1)
		if err := Patch(buf, 0, 0, aout.RelHi16, target, "s"); err != nil {
			t.Fatalf("hi16: %v", err)
		}
		if err := Patch(buf, 4, 4, aout.RelLo16, target, "s"); err != nil {
			t.Fatalf("lo16: %v", err)
		}
		hi, _ := alpha.Decode(binary.LittleEndian.Uint32(buf[0:]))
		lo, _ := alpha.Decode(binary.LittleEndian.Uint32(buf[4:]))
		if got := int64(hi.Disp)<<16 + int64(lo.Disp); uint64(got) != target {
			t.Errorf("pair materializes %#x, want %#x", got, target)
		}
	}
}
