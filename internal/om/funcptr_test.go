package om_test

import (
	"testing"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/asm"
	"atom/internal/link"
	"atom/internal/om"
	"atom/internal/vm"
)

// funcPtrProgram dispatches through a function-pointer table in the data
// segment — the case the paper flags: application text addresses change,
// so address constants referring to text must be re-fixed to the *new*
// locations (while data addresses stay put).
const funcPtrProgram = `
	.text
	.globl __start
	.ent __start
__start:
	# call table[0] then table[1] indirectly, sum results
	la s0, table
	ldq pv, 0(s0)
	jsr ra, (pv)
	mov v0, s1
	ldq pv, 8(s0)
	jsr ra, (pv)
	addq s1, v0, a0
	call_pal 0
	.end __start

	.globl addFive
	.ent addFive
addFive:
	li v0, 5
	ret (ra)
	.end addFive

	.globl addNine
	.ent addNine
addNine:
	li v0, 9
	ret (ra)
	.end addNine

	.data
	.align 3
table:
	.quad addFive, addNine
`

func buildFuncPtr(t *testing.T) *aout.File {
	t.Helper()
	obj, err := asm.AssembleCtx(nil, "fp.s", funcPtrProgram)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := link.LinkCtx(nil, link.Config{}, []*aout.File{obj})
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

func TestFunctionPointerTableRefixed(t *testing.T) {
	exe := buildFuncPtr(t)
	m, err := vm.New(exe, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	code, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if code != 14 {
		t.Fatalf("baseline exit = %d, want 14", code)
	}

	// Splice nops before every instruction: all procedures move.
	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatal(err)
	}
	nop := alpha.Mov(alpha.Zero, alpha.Zero)
	lay := layout(t, prog, spliceBefore(t, prog, allInsts(prog), nop, nop, nop))
	res, err := lay.FinishCtx(nil, make([]byte, lay.TextSize()), func(string) (uint64, bool) { return 0, false })
	if err != nil {
		t.Fatal(err)
	}
	out := &aout.File{
		Linked: true, Entry: res.Entry,
		Text: res.Text, TextAddr: exe.TextAddr,
		Data: res.Data, DataAddr: exe.DataAddr,
		Bss: exe.Bss, BssAddr: exe.BssAddr,
		Symbols: res.Symbols,
	}
	m2, err := vm.New(out, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	code, err = m2.Run()
	if err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	if code != 14 {
		t.Errorf("instrumented exit = %d, want 14 (function-pointer table not re-fixed?)", code)
	}
	// The table's entries must equal the NEW addresses of the targets.
	addFive, _ := lay.NewAddr(mustSym(t, exe, "addFive"))
	got := uint64(0)
	for i := 0; i < 8; i++ {
		got |= uint64(res.Data[i]) << (8 * i)
	}
	if got != addFive {
		t.Errorf("table[0] = %#x, want new addFive %#x", got, addFive)
	}
}

func mustSym(t *testing.T, f *aout.File, name string) uint64 {
	t.Helper()
	s, ok := f.Lookup(name)
	if !ok {
		t.Fatalf("symbol %q missing", name)
	}
	return s.Value
}
