package om_test

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/om"
	"atom/internal/rtl"
	"atom/internal/spec"
	"atom/internal/vm"
)

const sampleProgram = `
#include <stdio.h>
long fib(long n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main(int argc, char **argv) {
	long i;
	long s = 0;
	for (i = 0; i < 10; i++) s += fib(i);
	printf("sum=%d argc=%d\n", s, argc);
	return 0;
}
`

func buildSample(t testing.TB, src string) *aout.File {
	t.Helper()
	exe, err := rtl.BuildProgram("prog.c", src)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return exe
}

// spliceBefore returns one splice of code before each of insts.
func spliceBefore(t testing.TB, prog *om.Program, insts []*om.Inst, code ...alpha.Inst) []om.Splice {
	t.Helper()
	out := make([]om.Splice, 0, len(insts))
	for _, in := range insts {
		k, ok := prog.Slot(in)
		if !ok {
			t.Fatalf("instruction at %#x has no slot", in.Addr)
		}
		out = append(out, om.Splice{Slot: k, Insts: code})
	}
	return out
}

// allInsts returns every block instruction of prog, in program order.
func allInsts(prog *om.Program) []*om.Inst {
	var out []*om.Inst
	for _, pr := range prog.Procs {
		out = append(out, instsOf(pr.Blocks...)...)
	}
	return out
}

// instsOf returns the instructions of blocks, in order.
func instsOf(blocks ...*om.Block) []*om.Inst {
	var out []*om.Inst
	for _, b := range blocks {
		for k := range b.Insts {
			out = append(out, &b.Insts[k])
		}
	}
	return out
}

// layout lays prog out with splices, failing the test on error.
func layout(t testing.TB, prog *om.Program, splices []om.Splice) *om.Layout {
	t.Helper()
	lay, err := prog.LayoutCtx(nil, splices)
	if err != nil {
		t.Fatalf("LayoutCtx: %v", err)
	}
	return lay
}

func runExe(t *testing.T, exe *aout.File, cfg vm.Config) *vm.Machine {
	t.Helper()
	m, err := vm.New(exe, cfg)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v (stdout=%q)", err, m.Stdout)
	}
	return m
}

func TestBuildStructure(t *testing.T) {
	exe := buildSample(t, sampleProgram)
	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if prog.Proc("main") == nil || prog.Proc("fib") == nil || prog.Proc("printf") == nil {
		t.Fatal("expected procedures missing")
	}
	if prog.Proc("__start") == nil {
		t.Fatal("crt0 procedure missing")
	}
	fib := prog.Proc("fib")
	if len(fib.Blocks) < 3 {
		t.Errorf("fib has %d blocks, want >= 3 (branchy code)", len(fib.Blocks))
	}
	// Every block is non-empty; the block table maps every instruction
	// to its block, numbered in program order; block boundaries respect
	// branch targets.
	total, num := 0, 0
	for _, pr := range prog.Procs {
		addr := pr.Addr
		for _, b := range pr.Blocks {
			if len(b.Insts) == 0 {
				t.Fatalf("%s: empty block %d", pr.Name, b.Index)
			}
			for k := range b.Insts {
				in := &b.Insts[k]
				if in.Addr != addr {
					t.Fatalf("%s: instruction address %#x, want %#x", pr.Name, in.Addr, addr)
				}
				slot, _ := prog.Slot(in)
				if bb, g := prog.BlockAt(slot); bb != b || g != num {
					t.Fatalf("%s: block table maps %#x to block %d, want %d", pr.Name, in.Addr, g, num)
				}
				addr += 4
				total++
			}
			num++
			// Control transfers only at block ends.
			for k, in := range b.Insts[:len(b.Insts)-1] {
				op := in.I.Op
				if op.IsCondBranch() || op == alpha.OpBr || op == alpha.OpRet || op == alpha.OpJmp {
					t.Fatalf("%s block %d: control transfer %s at position %d is not last", pr.Name, b.Index, op, k)
				}
			}
		}
		if addr != pr.Addr+pr.Size {
			t.Fatalf("%s: blocks cover %#x..%#x, want size %#x", pr.Name, pr.Addr, addr, pr.Size)
		}
	}
	if total != prog.NumInsts() {
		t.Errorf("NumInsts = %d, blocks contain %d", prog.NumInsts(), total)
	}
}

// TestBuildAllocs pins the lift's allocations to a small constant per
// procedure: instructions, blocks and successor edges come from arrays
// allocated once per program or procedure, not one object per
// instruction.
func TestBuildAllocs(t *testing.T) {
	exe, err := spec.BuildCtx(nil, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := om.BuildCtx(nil, exe); err != nil {
			t.Fatal(err)
		}
	})
	procs := len(prog.Procs)
	if limit := float64(4*procs + 32); allocs > limit {
		t.Errorf("om.BuildCtx of gcc: %.0f allocations for %d procedures and %d instructions, want <= %.0f",
			allocs, procs, prog.NumInsts(), limit)
	}
	t.Logf("%.0f allocations, %d procedures, %d instructions", allocs, procs, prog.NumInsts())
}

func TestCFGSuccs(t *testing.T) {
	exe := buildSample(t, sampleProgram)
	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatal(err)
	}
	fib := prog.Proc("fib")
	condBlocks, retBlocks := 0, 0
	for _, b := range fib.Blocks {
		last := b.Insts[len(b.Insts)-1].I
		switch {
		case last.Op.IsCondBranch():
			condBlocks++
			if len(b.Succs) != 2 {
				t.Errorf("conditional block has %d successors", len(b.Succs))
			}
		case last.Op == alpha.OpRet:
			retBlocks++
			if len(b.Succs) != 0 {
				t.Errorf("ret block has %d successors", len(b.Succs))
			}
		}
	}
	if condBlocks == 0 {
		t.Error("fib has no conditional blocks")
	}
	if retBlocks == 0 {
		t.Error("fib has no return block")
	}
}

// TestIdentityTransform re-emits a program with no instrumentation and
// checks that behavior is bit-for-bit identical.
func TestIdentityTransform(t *testing.T) {
	exe := buildSample(t, sampleProgram)
	ref := runExe(t, exe, vm.Config{})

	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout(t, prog, nil)
	if lay.TextSize() != uint64(len(exe.Text)) {
		t.Fatalf("identity layout size %d != original %d", lay.TextSize(), len(exe.Text))
	}
	res, err := lay.FinishCtx(nil, make([]byte, lay.TextSize()), func(string) (uint64, bool) { return 0, false })
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	for i := range res.Text {
		if res.Text[i] != exe.Text[i] {
			t.Fatalf("identity transform changed text at offset %#x", i)
		}
	}
	out := &aout.File{
		Linked: true, Entry: res.Entry,
		Text: res.Text, TextAddr: exe.TextAddr,
		Data: res.Data, DataAddr: exe.DataAddr,
		Bss: exe.Bss, BssAddr: exe.BssAddr,
		Symbols: res.Symbols,
	}
	got := runExe(t, out, vm.Config{})
	if string(got.Stdout) != string(ref.Stdout) || got.Icount != ref.Icount {
		t.Errorf("identity run differs: stdout %q vs %q, icount %d vs %d",
			got.Stdout, ref.Stdout, got.Icount, ref.Icount)
	}
}

// TestNopSplice inserts a nop before every instruction of every block and
// checks the program still behaves identically (with exactly one extra
// instruction executed per original instruction executed).
func TestNopSplice(t *testing.T) {
	exe := buildSample(t, sampleProgram)
	ref := runExe(t, exe, vm.Config{})

	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatal(err)
	}
	nop := alpha.Mov(alpha.Zero, alpha.Zero)
	lay := layout(t, prog, spliceBefore(t, prog, allInsts(prog), nop))
	if lay.TextSize() != 2*uint64(len(exe.Text)) {
		t.Fatalf("nop-spliced size %d, want %d", lay.TextSize(), 2*len(exe.Text))
	}
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
	got := runExe(t, out, vm.Config{})
	if string(got.Stdout) != string(ref.Stdout) {
		t.Errorf("stdout differs: %q vs %q", got.Stdout, ref.Stdout)
	}
	if got.Icount != 2*ref.Icount {
		t.Errorf("icount = %d, want exactly 2x%d", got.Icount, ref.Icount)
	}
	// Data addresses are untouched (pristine behavior).
	if out.DataAddr != exe.DataAddr || string(out.Data) != string(exe.Data) {
		t.Error("data segment changed")
	}
}

// TestSpliceExternalRef splices code referencing an external symbol and
// checks resolution plumbing.
func TestSpliceExternalRef(t *testing.T) {
	exe := buildSample(t, sampleProgram)
	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Proc("main")
	slot, _ := prog.Slot(&main.Blocks[0].Insts[0])
	code := om.Splice{
		Slot: slot,
		Insts: []alpha.Inst{
			alpha.Mem(alpha.OpLdah, alpha.AT, alpha.Zero, 0),
			alpha.Mem(alpha.OpLda, alpha.AT, alpha.AT, 0),
		},
		Relocs: []om.CodeReloc{
			{Index: 0, Type: aout.RelHi16, Sym: "ext_data"},
			{Index: 1, Type: aout.RelLo16, Sym: "ext_data"},
		},
	}
	lay := layout(t, prog, []om.Splice{code})
	// Unknown symbol -> error.
	if _, err := lay.FinishCtx(nil, make([]byte, lay.TextSize()), func(string) (uint64, bool) { return 0, false }); err == nil || !strings.Contains(err.Error(), "ext_data") {
		t.Errorf("Finish with unresolved symbol: err = %v", err)
	}
	res, err := lay.FinishCtx(nil, make([]byte, lay.TextSize()), func(name string) (uint64, bool) {
		if name == "ext_data" {
			return 0x345678, true
		}
		return 0, false
	})
	if err != nil {
		t.Fatal(err)
	}
	// Decode the spliced pair and verify the materialized address.
	newMain, _ := lay.NewAddr(main.Addr)
	off := newMain - exe.TextAddr
	hi, _ := alpha.Decode(uint32(res.Text[off]) | uint32(res.Text[off+1])<<8 | uint32(res.Text[off+2])<<16 | uint32(res.Text[off+3])<<24)
	lo, _ := alpha.Decode(uint32(res.Text[off+4]) | uint32(res.Text[off+5])<<8 | uint32(res.Text[off+6])<<16 | uint32(res.Text[off+7])<<24)
	if got := int64(hi.Disp)<<16 + int64(lo.Disp); got != 0x345678 {
		t.Errorf("spliced pair materializes %#x, want 0x345678", got)
	}
}

func TestPCMaps(t *testing.T) {
	exe := buildSample(t, sampleProgram)
	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		t.Fatal(err)
	}
	nop := alpha.Mov(alpha.Zero, alpha.Zero)
	spliced := map[*om.Inst]bool{}
	for _, in := range instsOf(prog.Proc("main").Blocks[0]) {
		spliced[in] = true
	}
	lay := layout(t, prog, spliceBefore(t, prog, instsOf(prog.Proc("main").Blocks[0]), nop, nop))
	for _, pr := range prog.Procs {
		for _, b := range pr.Blocks {
			for k := range b.Insts {
				in := &b.Insts[k]
				n, ok := lay.NewAddr(in.Addr)
				if !ok {
					t.Fatalf("NewAddr(%#x) missing", in.Addr)
				}
				// NewAddr points at the before-code; the instruction
				// itself is 2 insts later when instrumented.
				instAddr := n
				if spliced[in] {
					instAddr = n + 8
				}
				back, ok := lay.OldAddr(instAddr)
				if !ok || back != in.Addr {
					t.Fatalf("OldAddr(NewAddr(%#x)) = %#x, %v", in.Addr, back, ok)
				}
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	exe := buildSample(t, sampleProgram)
	// Unlinked input.
	if _, err := om.BuildCtx(nil, &aout.File{}); err == nil {
		t.Error("Build of unlinked file succeeded")
	}
	// Gap in coverage: corrupt a function symbol size.
	bad := *exe
	bad.Symbols = append([]aout.Symbol(nil), exe.Symbols...)
	for i := range bad.Symbols {
		if bad.Symbols[i].Kind == aout.SymFunc && bad.Symbols[i].Size > 8 {
			bad.Symbols[i].Size -= 4
			break
		}
	}
	if _, err := om.BuildCtx(nil, &bad); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("Build with coverage gap: err = %v", err)
	}
	// Text running past the end of the address space: its procedures
	// tile it modulo 2^64, but the addresses past the wrap have no slot.
	w, err := alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	wrap := &aout.File{Linked: true, TextAddr: 1<<64 - 4, Text: binary.LittleEndian.AppendUint32(make([]byte, 4), w),
		Symbols: []aout.Symbol{{Name: "f", Kind: aout.SymFunc, Section: aout.SecText, Value: 1<<64 - 4, Size: 8, Global: true}}}
	if _, err := om.BuildCtx(nil, wrap); err == nil || !strings.Contains(err.Error(), "wraps") {
		t.Errorf("Build of text wrapping the address space: err = %v", err)
	}
}

// TestInstFootprint pins the instruction's size and keeps it free of
// pointers, so the collector never scans a program's instruction array.
func TestInstFootprint(t *testing.T) {
	var in om.Inst
	if n := unsafe.Sizeof(in); n != 24 {
		t.Errorf("om.Inst is %d bytes, want 24", n)
	}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("om.Inst%s is a %s, which holds a pointer", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(in), "")
}

func TestRegSetOps(t *testing.T) {
	var s om.RegSet
	s = s.Add(alpha.T0).Add(alpha.A0).Add(alpha.RA)
	if !s.Has(alpha.T0) || !s.Has(alpha.A0) || s.Has(alpha.T1) {
		t.Error("Add/Has broken")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	regs := s.Regs()
	if len(regs) != 3 || regs[0] != alpha.T0 || regs[1] != alpha.A0 || regs[2] != alpha.RA {
		t.Errorf("Regs = %v", regs)
	}
	u := s.Union(om.RegSet(0).Add(alpha.T1))
	if u.Count() != 4 {
		t.Error("Union broken")
	}
}

// TestDefUse holds the table-driven DefUse to WritesReg and ReadsRegs on
// every operation, including invalid ones, under random registers and
// literals.
func TestDefUse(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var buf [2]alpha.Reg
	for op := 0; op < 256; op++ {
		for n := 0; n < 64; n++ {
			in := alpha.Inst{
				Op: alpha.Op(op),
				Ra: alpha.Reg(r.Intn(32)), Rb: alpha.Reg(r.Intn(32)), Rc: alpha.Reg(r.Intn(32)),
				HasLit: r.Intn(2) == 0, Lit: uint8(r.Intn(256)),
			}
			var wantDef, wantUse om.RegSet
			if w, ok := in.WritesReg(); ok {
				wantDef = wantDef.Add(w)
			}
			for _, rr := range in.ReadsRegs(buf[:0]) {
				wantUse = wantUse.Add(rr)
			}
			if def, use := om.DefUse(in); def != wantDef || use != wantUse {
				t.Fatalf("DefUse(%v) = %v, %v; want %v, %v", in, def.Regs(), use.Regs(), wantDef.Regs(), wantUse.Regs())
			}
		}
	}
}
