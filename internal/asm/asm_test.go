package asm

import (
	"encoding/binary"
	"strings"
	"testing"

	"atom/internal/alpha"
	"atom/internal/aout"
)

func mustAssemble(t *testing.T, src string) *aout.File {
	t.Helper()
	f, err := AssembleCtx(nil, "test.s", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return f
}

func word(t *testing.T, f *aout.File, i int) alpha.Inst {
	t.Helper()
	w := binary.LittleEndian.Uint32(f.Text[i*4:])
	inst, err := alpha.Decode(w)
	if err != nil {
		t.Fatalf("decode word %d (%#08x): %v", i, w, err)
	}
	return inst
}

func TestBasicProgram(t *testing.T) {
	f := mustAssemble(t, `
	.text
	.globl main
	.ent main
main:
	lda sp, -16(sp)
	stq ra, 0(sp)
	addq a0, a1, v0
	subq v0, 1, v0
	ldq ra, 0(sp)
	lda sp, 16(sp)
	ret (ra)
	.end main
`)
	if len(f.Text) != 7*4 {
		t.Fatalf("text = %d bytes, want 28", len(f.Text))
	}
	main, ok := f.Lookup("main")
	if !ok || main.Kind != aout.SymFunc || !main.Global || main.Size != 28 {
		t.Errorf("main symbol = %+v", main)
	}
	if i := word(t, f, 0); i.Op != alpha.OpLda || i.Ra != alpha.SP || i.Disp != -16 {
		t.Errorf("word 0 = %v", i)
	}
	if i := word(t, f, 3); i.Op != alpha.OpSubq || !i.HasLit || i.Lit != 1 {
		t.Errorf("word 3 = %v", i)
	}
	if i := word(t, f, 6); i.Op != alpha.OpRet || i.Rb != alpha.RA {
		t.Errorf("word 6 = %v", i)
	}
}

func TestBranchResolution(t *testing.T) {
	f := mustAssemble(t, `
	.text
	.ent f
f:
	beq t0, done
	addq t1, 1, t1
	br f
done:
	ret (ra)
	.end f
`)
	// beq at word 0 targets word 3: disp = 3 - 1 = 2.
	if i := word(t, f, 0); i.Op != alpha.OpBeq || i.Disp != 2 {
		t.Errorf("forward branch = %v, want disp 2", i)
	}
	// br at word 2 targets word 0: disp = 0 - 3 = -3.
	if i := word(t, f, 2); i.Op != alpha.OpBr || i.Disp != -3 {
		t.Errorf("backward branch = %v, want disp -3", i)
	}
	if len(f.Relocs) != 0 {
		t.Errorf("local branches produced %d relocs", len(f.Relocs))
	}
}

func TestExternalBranchReloc(t *testing.T) {
	f := mustAssemble(t, `
	.text
	.ent f
f:
	bsr ra, printf
	ret (ra)
	.end f
`)
	if len(f.Relocs) != 1 {
		t.Fatalf("relocs = %d, want 1", len(f.Relocs))
	}
	r := f.Relocs[0]
	if r.Type != aout.RelBr21 || r.Offset != 0 || r.Section != aout.SecText {
		t.Errorf("reloc = %+v", r)
	}
	s := f.Symbols[r.Sym]
	if s.Name != "printf" || s.Section != aout.SecUndef || !s.Global {
		t.Errorf("reloc symbol = %+v", s)
	}
}

func TestLaPseudo(t *testing.T) {
	f := mustAssemble(t, `
	.text
	.ent f
f:
	la a0, msg+4
	ret (ra)
	.end f
	.data
msg:
	.asciiz "hello"
`)
	if len(f.Text) != 3*4 {
		t.Fatalf("la should expand to 2 instructions; text = %d bytes", len(f.Text))
	}
	if i := word(t, f, 0); i.Op != alpha.OpLdah || i.Ra != alpha.A0 || i.Rb != alpha.Zero {
		t.Errorf("word 0 = %v", i)
	}
	if i := word(t, f, 1); i.Op != alpha.OpLda || i.Ra != alpha.A0 || i.Rb != alpha.A0 {
		t.Errorf("word 1 = %v", i)
	}
	if len(f.Relocs) != 2 || f.Relocs[0].Type != aout.RelHi16 || f.Relocs[1].Type != aout.RelLo16 {
		t.Fatalf("relocs = %+v", f.Relocs)
	}
	for _, r := range f.Relocs {
		if r.Addend != 4 {
			t.Errorf("reloc addend = %d, want 4", r.Addend)
		}
		if f.Symbols[r.Sym].Name != "msg" {
			t.Errorf("reloc symbol = %q", f.Symbols[r.Sym].Name)
		}
	}
	if string(f.Data) != "hello\x00" {
		t.Errorf("data = %q", f.Data)
	}
}

func TestJsrSymbolPseudo(t *testing.T) {
	f := mustAssemble(t, `
	.text
	.ent f
f:
	jsr qsort
	ret (ra)
	.end f
`)
	if len(f.Text) != 4*4 { // 3 for the jsr pseudo + 1 for ret
		t.Fatalf("jsr sym should expand to 3 instructions; got %d bytes total", len(f.Text))
	}
	if i := word(t, f, 0); i.Op != alpha.OpLdah || i.Ra != alpha.PV {
		t.Errorf("word 0 = %v", i)
	}
	if i := word(t, f, 2); i.Op != alpha.OpJsr || i.Ra != alpha.RA || i.Rb != alpha.PV {
		t.Errorf("word 2 = %v", i)
	}
}

func TestLiPseudoSizes(t *testing.T) {
	cases := []struct {
		imm   string
		words int
	}{
		{"7", 1}, {"-1", 1}, {"0x7fff", 1},
		{"0x8000", 2}, {"0x12345678", 2},
		{"0x123456789abcdef0", 5},
	}
	for _, c := range cases {
		f := mustAssemble(t, "\t.text\n\tli t0, "+c.imm+"\n")
		if len(f.Text) != c.words*4 {
			t.Errorf("li %s: %d words, want %d", c.imm, len(f.Text)/4, c.words)
		}
	}
}

func TestDataDirectives(t *testing.T) {
	f := mustAssemble(t, `
	.data
a:	.byte 1, 2, 0xFF
	.word 0x1234
	.align 3
b:	.quad 0x1122334455667788
	.long 7
	.space 3, 0xAA
	.ascii "hi"
`)
	sym, _ := f.Lookup("b")
	if sym.Value != 8 {
		t.Errorf("b at %d, want 8 (aligned)", sym.Value)
	}
	if f.Data[0] != 1 || f.Data[2] != 0xFF {
		t.Errorf(".byte data = %v", f.Data[:3])
	}
	if binary.LittleEndian.Uint64(f.Data[8:]) != 0x1122334455667788 {
		t.Error(".quad value wrong")
	}
	if binary.LittleEndian.Uint32(f.Data[16:]) != 7 {
		t.Error(".long value wrong")
	}
	if f.Data[20] != 0xAA || f.Data[22] != 0xAA {
		t.Error(".space fill wrong")
	}
	if string(f.Data[23:25]) != "hi" {
		t.Error(".ascii wrong")
	}
}

func TestQuadSymbolReloc(t *testing.T) {
	f := mustAssemble(t, `
	.text
	.ent f
f:	ret (ra)
	.end f
	.data
tbl:	.quad f, f+8
`)
	if len(f.Relocs) != 2 {
		t.Fatalf("relocs = %+v", f.Relocs)
	}
	if f.Relocs[0].Type != aout.RelQuad || f.Relocs[0].Section != aout.SecData {
		t.Errorf("reloc 0 = %+v", f.Relocs[0])
	}
	if f.Relocs[1].Addend != 8 || f.Relocs[1].Offset != 8 {
		t.Errorf("reloc 1 = %+v", f.Relocs[1])
	}
}

func TestBssAndComm(t *testing.T) {
	f := mustAssemble(t, `
	.bss
buf:	.space 100
	.align 3
buf2:	.space 4
	.comm shared, 64
	.lcomm private, 16
`)
	if f.Bss < 100+4+64+16 {
		t.Errorf("bss = %d", f.Bss)
	}
	b, _ := f.Lookup("buf")
	if b.Section != aout.SecBss || b.Value != 0 {
		t.Errorf("buf = %+v", b)
	}
	b2, _ := f.Lookup("buf2")
	if b2.Value != 104 {
		t.Errorf("buf2 at %d, want 104", b2.Value)
	}
	sh, _ := f.Lookup("shared")
	if !sh.Global || sh.Section != aout.SecBss || sh.Size != 64 {
		t.Errorf("shared = %+v", sh)
	}
	pr, _ := f.Lookup("private")
	if pr.Global {
		t.Error("lcomm symbol is global")
	}
}

func TestCharLiterals(t *testing.T) {
	f := mustAssemble(t, `
	.text
	li t0, 'A'
	subq t0, 'a', t1
`)
	if i := word(t, f, 0); i.Disp != 65 {
		t.Errorf("li 'A' disp = %d", i.Disp)
	}
	if i := word(t, f, 1); i.Lit != 'a' {
		t.Errorf("subq lit = %d", i.Lit)
	}
}

func TestMovClrNopPseudos(t *testing.T) {
	f := mustAssemble(t, `
	.text
	mov a0, t0
	clr t1
	nop
	negq t0, t2
	not t0, t3
`)
	if i := word(t, f, 0); i.Op != alpha.OpBis || i.Ra != alpha.Zero || i.Rb != alpha.A0 || i.Rc != alpha.T0 {
		t.Errorf("mov = %v", i)
	}
	if i := word(t, f, 1); i.Rc != alpha.T1 || i.Rb != alpha.Zero {
		t.Errorf("clr = %v", i)
	}
	if i := word(t, f, 3); i.Op != alpha.OpSubq || i.Ra != alpha.Zero || i.Rb != alpha.T0 {
		t.Errorf("negq = %v", i)
	}
	if i := word(t, f, 4); i.Op != alpha.OpOrnot {
		t.Errorf("not = %v", i)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"\t.text\n\tbogus t0\n", "unknown instruction"},
		{"\t.text\n\t.bogus\n", "unknown directive"},
		{"x:\nx:\n", "redefined"},
		{"\t.data\n\taddq t0, t1, t2\n", "outside .text"},
		{"\t.text\n\t.quad 1\n", "outside .data"},
		{"\t.text\n\tlda t0, 40000(t1)\n", "range"},
		{"\t.text\n\taddq t0, 300, t1\n", "literal"},
		{"\t.text\n\t.ent f\n", "without matching .end"},
		{"\t.text\n\t.ent f\nf:\t.end g\n", "does not match"},
		{"\t.text\n\tbeq t0, x\n\t.data\nx: .byte 1\n", "not in .text"},
		{"\t.data\n\t.asciiz \"bad\\q\"\n", "unknown escape"},
		{"\t.text\n\tjmp t0\n", "bad operand"},
		{"\t.text\n\tli t0, zzz\n", "bad immediate"},
		{"\t.text\n\tnop\n\taddq r5junk, 1, $0\n", `t.s:3: addq: bad register "r5junk"`},
		{"\t.text\n\tmov $+3, t0\n", `t.s:2: mov: bad registers`},
	}
	for _, c := range cases {
		_, err := AssembleCtx(nil, "t.s", c.src)
		if err == nil {
			t.Errorf("Assemble(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) error = %q, want substring %q", c.src, err, c.want)
		}
	}
}

func TestCommentsAndMultipleLabels(t *testing.T) {
	f := mustAssemble(t, `
# full-line comment
	.text
a: b:	nop		# trailing comment
c:
	ret (ra)
`)
	for _, n := range []string{"a", "b", "c"} {
		s, ok := f.Lookup(n)
		if !ok {
			t.Fatalf("label %s missing", n)
		}
		want := uint64(0)
		if n == "c" {
			want = 4
		}
		if s.Value != want {
			t.Errorf("label %s at %d, want %d", n, s.Value, want)
		}
	}
}

func TestValidateOutput(t *testing.T) {
	f := mustAssemble(t, `
	.text
	.globl main
	.ent main
main:
	la a0, data
	bsr ra, ext
	ret (ra)
	.end main
	.data
data:	.quad main
`)
	if err := f.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Roundtrip through the codec.
	got, err := aout.Decode(f.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Symbols) != len(f.Symbols) || len(got.Relocs) != len(f.Relocs) {
		t.Error("roundtrip lost symbols or relocs")
	}
}
