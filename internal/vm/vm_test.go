package vm

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/asm"
	"atom/internal/link"
)

// build assembles and links a standalone program.
func build(t testing.TB, src string) *aout.File {
	t.Helper()
	obj, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	exe, err := link.Link(link.Config{}, []*aout.File{obj})
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return exe
}

// withHeapZone returns a copy of exe recording an analysis heap zone at
// off, as core.Instrument writes it for a partitioned heap.
func withHeapZone(exe *aout.File, off uint64) *aout.File {
	c := *exe
	c.Symbols = append(append([]aout.Symbol(nil), exe.Symbols...),
		aout.Symbol{Name: aout.HeapZoneSymbol, Section: aout.SecAbs, Value: off})
	return &c
}

// run builds and executes a program to completion.
func run(t *testing.T, src string, cfg Config) (*Machine, int) {
	t.Helper()
	return runExe(t, build(t, src), cfg)
}

// runExe executes a linked program to completion.
func runExe(t *testing.T, exe *aout.File, cfg Config) (*Machine, int) {
	t.Helper()
	m, err := New(exe, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	code, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m, code
}

func TestExitCode(t *testing.T) {
	_, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	li a0, 42
	call_pal 0
	.end __start
`, Config{})
	if code != 42 {
		t.Errorf("exit code = %d, want 42", code)
	}
}

func TestArithmeticLoop(t *testing.T) {
	// Sum 1..100 = 5050; exit code = 5050 % 256 = 186.
	m, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	clr t0          # sum
	li t1, 100      # i
loop:
	addq t0, t1, t0
	subq t1, 1, t1
	bgt t1, loop
	and t0, 0xff, a0
	call_pal 0
	.end __start
`, Config{})
	if code != 5050%256 {
		t.Errorf("exit = %d, want %d", code, 5050%256)
	}
	if m.Icount < 300 {
		t.Errorf("icount = %d, implausibly small", m.Icount)
	}
}

func TestHelloStdout(t *testing.T) {
	m, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	li a0, 1
	la a1, msg
	li a2, 14
	call_pal 1
	clr a0
	call_pal 0
	.end __start
	.data
msg:	.ascii "hello, world!\n"
`, Config{})
	if code != 0 {
		t.Errorf("exit = %d", code)
	}
	if string(m.Stdout) != "hello, world!\n" {
		t.Errorf("stdout = %q", m.Stdout)
	}
}

func TestMemoryAndCalls(t *testing.T) {
	// Call a procedure that stores then reloads a value via the stack.
	m, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	li a0, 7
	bsr ra, double
	mov v0, a0
	call_pal 0
	.end __start
	.ent double
double:
	lda sp, -16(sp)
	stq a0, 0(sp)
	ldq t0, 0(sp)
	addq t0, t0, v0
	lda sp, 16(sp)
	ret (ra)
	.end double
`, Config{})
	if code != 14 {
		t.Errorf("exit = %d, want 14", code)
	}
	if m.Loads != 1 || m.Stores != 1 {
		t.Errorf("loads=%d stores=%d, want 1/1", m.Loads, m.Stores)
	}
}

func TestLoadStoreWidths(t *testing.T) {
	_, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	la t0, buf
	li t1, -2
	stq t1, 0(t0)
	ldbu t2, 0(t0)       # 0xFE
	ldwu t3, 0(t0)       # 0xFFFE
	ldl t4, 0(t0)        # -2 sign-extended
	ldq t5, 0(t0)        # -2
	# verify: t2 == 0xFE
	subq t2, 0xFE, t6
	bne t6, bad
	# t3 == 0xFFFE: compare via computed value
	li t6, 0xFFFE
	subq t3, t6, t6
	bne t6, bad
	addq t4, 2, t6
	bne t6, bad
	addq t5, 2, t6
	bne t6, bad
	# byte store then reload
	li t1, 0x41
	stb t1, 3(t0)
	ldbu t2, 3(t0)
	subq t2, 0x41, t6
	bne t6, bad
	# stw / stl
	li t1, 0x1234
	stw t1, 8(t0)
	ldwu t2, 8(t0)
	subq t2, t1, t6
	bne t6, bad
	li t1, -5
	stl t1, 16(t0)
	ldl t2, 16(t0)
	subq t2, t1, t6
	bne t6, bad
	clr a0
	call_pal 0
bad:
	li a0, 1
	call_pal 0
	.end __start
	.bss
	.comm buf, 32
`, Config{})
	if code != 0 {
		t.Error("width test failed inside the VM")
	}
}

func TestUnalignedCounted(t *testing.T) {
	m, _ := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	la t0, buf
	ldq t1, 1(t0)   # unaligned quad load
	ldl t2, 2(t0)   # aligned for 2 but not 4
	ldl t3, 4(t0)   # aligned
	clr a0
	call_pal 0
	.end __start
	.bss
	.comm buf, 32
`, Config{})
	if m.Unaligned != 2 {
		t.Errorf("unaligned = %d, want 2", m.Unaligned)
	}
}

func TestArgvLayout(t *testing.T) {
	m, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	ldq t0, 0(sp)    # argc
	mov t0, a0
	call_pal 0
	.end __start
`, Config{Args: []string{"x", "yz"}})
	if code != 3 {
		t.Errorf("argc = %d, want 3", code)
	}
	_ = m
}

func TestArgvStrings(t *testing.T) {
	// Print argv[1].
	m, _ := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	ldq t0, 16(sp)   # argv[1] (sp: argc, argv[0], argv[1], ...)
	mov t0, a1
	# strlen inline
	clr a2
len:
	addq t0, a2, t1
	ldbu t2, 0(t1)
	beq t2, done
	addq a2, 1, a2
	br len
done:
	li a0, 1
	call_pal 1
	clr a0
	call_pal 0
	.end __start
`, Config{Args: []string{"hello-arg"}})
	if string(m.Stdout) != "hello-arg" {
		t.Errorf("stdout = %q", m.Stdout)
	}
}

func TestFileIO(t *testing.T) {
	m, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	# read 5 bytes from "in.txt"
	la a0, inpath
	clr a1
	call_pal 3       # open read
	blt v0, fail
	mov v0, s0
	mov s0, a0
	la a1, buf
	li a2, 5
	call_pal 2       # read
	mov s0, a0
	call_pal 4       # close
	# write them to "out.txt"
	la a0, outpath
	li a1, 1
	call_pal 3       # open write
	blt v0, fail
	mov v0, s1
	mov s1, a0
	la a1, buf
	li a2, 5
	call_pal 1       # write
	mov s1, a0
	call_pal 4       # close
	clr a0
	call_pal 0
fail:
	li a0, 1
	call_pal 0
	.end __start
	.data
inpath:	.asciiz "in.txt"
outpath: .asciiz "out.txt"
	.bss
	.comm buf, 16
`, Config{FS: map[string][]byte{"in.txt": []byte("abcdefgh")}})
	if code != 0 {
		t.Fatal("program reported failure")
	}
	if string(m.FSOut["out.txt"]) != "abcde" {
		t.Errorf("out.txt = %q", m.FSOut["out.txt"])
	}
}

func TestOpenMissingFile(t *testing.T) {
	_, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	la a0, path
	clr a1
	call_pal 3
	blt v0, missing
	clr a0
	call_pal 0
missing:
	li a0, 9
	call_pal 0
	.end __start
	.data
path:	.asciiz "nope"
`, Config{})
	if code != 9 {
		t.Errorf("exit = %d, want 9 (open should fail)", code)
	}
}

func TestSbrkZones(t *testing.T) {
	src := `
	.text
	.globl __start
	.ent __start
__start:
	li a0, 64
	call_pal 5       # app sbrk
	mov v0, s0
	li a0, 64
	call_pal 7       # analysis sbrk
	mov v0, s1
	subq s1, s0, a0  # difference between zone starts
	call_pal 0
	.end __start
`
	// Linked zones: second sbrk starts where the first left off (+64).
	_, code := run(t, src, Config{})
	if code != 64 {
		t.Errorf("linked zones: delta = %d, want 64", code)
	}
	// Partitioned zones: the executable records the analysis zone, which
	// starts at heapBase+offset.
	_, code = runExe(t, withHeapZone(build(t, src), 1<<20), Config{})
	if code != 1<<20 {
		t.Errorf("partitioned zones: delta = %d, want %d", code, 1<<20)
	}
}

func TestSbrkPartitionedExactDelta(t *testing.T) {
	src := `
	.text
	.globl __start
	.ent __start
__start:
	clr a0
	call_pal 5
	mov v0, s0
	clr a0
	call_pal 7
	subq v0, s0, t0
	srl t0, 12, a0   # delta in 4KiB pages
	call_pal 0
	.end __start
`
	_, code := runExe(t, withHeapZone(build(t, src), 40<<12), Config{})
	if code != 40 {
		t.Errorf("delta pages = %d, want 40", code)
	}
}

// sbrkDeltaSrc exits with the distance from the application sbrk zone
// to the analysis one.
const sbrkDeltaSrc = `
	.text
	.globl __start
	.ent __start
__start:
	clr a0
	call_pal 5
	mov v0, s0
	clr a0
	call_pal 7
	subq v0, s0, a0
	call_pal 0
	.end __start
`

// TestHeapZoneRecord: New takes the heap scheme from the executable's
// record, fails when Config.AnalysisHeapOffset disagrees with it (or
// the file has none), and rejects a recorded zone that is misaligned,
// wraps the address space or starts past the end of memory, naming the
// offset in the error.
func TestHeapZoneRecord(t *testing.T) {
	plain := build(t, sbrkDeltaSrc)
	for _, tc := range []struct {
		name  string
		exe   *aout.File
		cfg   Config
		delta int // zone distance when New succeeds
		err   string
	}{
		{"config agrees", withHeapZone(plain, 1<<20), Config{AnalysisHeapOffset: 1 << 20}, 1 << 20, ""},
		{"config without record", plain, Config{AnalysisHeapOffset: 1 << 20}, 0, "offset 0x100000 differs"},
		{"config disagrees", withHeapZone(plain, 2<<20), Config{AnalysisHeapOffset: 1 << 20}, 0, "offset 0x100000 differs"},
		{"misaligned", withHeapZone(plain, 3), Config{}, 0, "zone offset 0x3 "},
		{"wraps", withHeapZone(plain, 1<<64-8), Config{}, 0, "zone offset 0xfffffffffffffff8 "},
		{"past memory", withHeapZone(plain, 1<<62), Config{}, 0, "zone offset 0x4000000000000000 "},
		{"past small memory", withHeapZone(plain, 1<<20), Config{MemSize: 9 << 19}, 0, "zone offset 0x100000 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.exe, tc.cfg)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("New: err = %v, want it to contain %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			code, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if code != tc.delta {
				t.Errorf("zone distance %#x, want %#x", code, tc.delta)
			}
		})
	}
}

// TestNewRejectsBadSections: executables that decode and validate but
// do not fit the address space are errors from New, not panics or
// silent truncation.
func TestNewRejectsBadSections(t *testing.T) {
	base := build(t, sbrkDeltaSrc)
	const mem = 8 << 20
	for _, tc := range []struct {
		name string
		edit func(f *aout.File)
		err  string
	}{
		{"data past memory", func(f *aout.File) { f.DataAddr = mem + 0x1000 }, "data at"},
		{"text end wraps", func(f *aout.File) { f.TextAddr = 1<<64 - 4 }, "text at"},
		{"no room for stack", func(f *aout.File) { f.TextAddr = 0x10 }, "initial stack"},
		{"data straddles memory end", func(f *aout.File) {
			f.Data = make([]byte, 16)
			f.DataAddr = mem - 8
			f.BssAddr, f.Bss = mem-8, 0
		}, "data at"},
		{"bss end wraps", func(f *aout.File) { f.Bss = 0x800 - f.BssAddr }, "bss at"}, // BssAddr+Bss wraps to 0x800
	} {
		t.Run(tc.name, func(t *testing.T) {
			exe := *base
			tc.edit(&exe)
			if err := exe.Validate(); err != nil {
				t.Fatalf("case does not validate: %v", err)
			}
			_, err := New(&exe, Config{MemSize: mem})
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("New: err = %v, want it to contain %q", err, tc.err)
			}
		})
	}
}

// FuzzNew: any executable aout.Decode accepts must load and run on a
// small machine without panicking; New and Run may only fail.
func FuzzNew(f *testing.F) {
	obj, err := asm.Assemble("t.s", sbrkDeltaSrc)
	if err != nil {
		f.Fatal(err)
	}
	// A low text base keeps the seeds inside the fuzzed machine.
	exe, err := link.Link(link.Config{TextAddr: 0x10000, DataAfterText: true}, []*aout.File{obj})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(exe.Encode())
	f.Add(withHeapZone(exe, 0x8000).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		exe, err := aout.Decode(data)
		if err != nil {
			return
		}
		m, err := New(exe, Config{MemSize: 1 << 20, MaxInstr: 10_000})
		if err != nil {
			return
		}
		_, _ = m.Run() // a fault is an error; only a panic fails
	})
}

func TestNullPageFault(t *testing.T) {
	m, err := New(build(t, `
	.text
	.globl __start
	.ent __start
__start:
	clr t0
	ldq t1, 0(t0)
	call_pal 0
	.end __start
`), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "null-page") {
		t.Errorf("err = %v, want null-page fault", err)
	}
}

func TestFuelExhaustion(t *testing.T) {
	m, err := New(build(t, `
	.text
	.globl __start
	.ent __start
__start:
loop:	br loop
	.end __start
`), Config{MaxInstr: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("err = %v, want budget exhaustion", err)
	}
}

func TestCyclesPal(t *testing.T) {
	_, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	call_pal 6
	mov v0, s0
	nop
	nop
	nop
	call_pal 6
	subq v0, s0, a0
	call_pal 0
	.end __start
`, Config{})
	if code != 5 { // mov, nop, nop, nop, second call_pal
		t.Errorf("cycle delta = %d, want 5", code)
	}
}

// TestOperateSemanticsQuick cross-checks VM operate semantics against Go
// semantics on random inputs.
func TestOperateSemanticsQuick(t *testing.T) {
	exe := build(t, `
	.text
	.globl __start
	.ent __start
__start:
	call_pal 0
	.end __start
`)
	m, err := New(exe, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	ops := []struct {
		op alpha.Op
		f  func(a, b int64) int64
	}{
		{alpha.OpAddq, func(a, b int64) int64 { return a + b }},
		{alpha.OpSubq, func(a, b int64) int64 { return a - b }},
		{alpha.OpAddl, func(a, b int64) int64 { return int64(int32(a + b)) }},
		{alpha.OpSubl, func(a, b int64) int64 { return int64(int32(a - b)) }},
		{alpha.OpMulq, func(a, b int64) int64 { return a * b }},
		{alpha.OpMull, func(a, b int64) int64 { return int64(int32(a * b)) }},
		{alpha.OpS4addq, func(a, b int64) int64 { return a*4 + b }},
		{alpha.OpS8addq, func(a, b int64) int64 { return a*8 + b }},
		{alpha.OpAnd, func(a, b int64) int64 { return a & b }},
		{alpha.OpBis, func(a, b int64) int64 { return a | b }},
		{alpha.OpBic, func(a, b int64) int64 { return a &^ b }},
		{alpha.OpOrnot, func(a, b int64) int64 { return a | ^b }},
		{alpha.OpXor, func(a, b int64) int64 { return a ^ b }},
		{alpha.OpEqv, func(a, b int64) int64 { return a ^ ^b }},
		{alpha.OpSll, func(a, b int64) int64 { return a << (uint64(b) & 63) }},
		{alpha.OpSrl, func(a, b int64) int64 { return int64(uint64(a) >> (uint64(b) & 63)) }},
		{alpha.OpSra, func(a, b int64) int64 { return a >> (uint64(b) & 63) }},
		{alpha.OpCmpeq, func(a, b int64) int64 { return b2i(a == b) }},
		{alpha.OpCmplt, func(a, b int64) int64 { return b2i(a < b) }},
		{alpha.OpCmple, func(a, b int64) int64 { return b2i(a <= b) }},
		{alpha.OpCmpult, func(a, b int64) int64 { return b2i(uint64(a) < uint64(b)) }},
		{alpha.OpCmpule, func(a, b int64) int64 { return b2i(uint64(a) <= uint64(b)) }},
	}
	for i := 0; i < 20000; i++ {
		c := ops[r.Intn(len(ops))]
		a, b := r.Int63()-r.Int63(), r.Int63()-r.Int63()
		m.Reg[alpha.T0], m.Reg[alpha.T1] = a, b
		got, err := m.operate(alpha.RR(c.op, alpha.T0, alpha.T1, alpha.T2))
		if err != nil {
			t.Fatal(err)
		}
		if want := c.f(a, b); got != want {
			t.Fatalf("%s(%d, %d) = %d, want %d", c.op, a, b, got, want)
		}
		// Literal form uses an unsigned 8-bit operand.
		lit := uint8(r.Uint32())
		got, _ = m.operate(alpha.RI(c.op, alpha.T0, lit, alpha.T2))
		if want := c.f(a, int64(lit)); got != want {
			t.Fatalf("%s(%d, #%d) = %d, want %d", c.op, a, lit, got, want)
		}
	}
}

func TestUmulh(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1 << 32, 1 << 32, 1},
		{^uint64(0), ^uint64(0), ^uint64(0) - 1},
		{0xDEADBEEF12345678, 0xCAFEBABE87654321, 0xB092AB7C0D047972},
	}
	for _, c := range cases {
		if got := uint64(umulh(c.a, c.b)); got != c.want {
			t.Errorf("umulh(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestCmov(t *testing.T) {
	_, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	clr t0
	li t1, 5
	li t2, 9
	cmoveq t0, t1, t2    # t0==0, so t2 = 5
	mov t2, a0
	li t3, 1
	li t4, 77
	cmoveq t3, t4, a0    # t3!=0, a0 unchanged (5)
	cmovne t3, 2, t5     # t3!=0, t5 = 2
	addq a0, t5, a0      # 7
	call_pal 0
	.end __start
`, Config{})
	if code != 7 {
		t.Errorf("cmov result = %d, want 7", code)
	}
}

func TestJsrIndirect(t *testing.T) {
	_, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	la pv, target
	jsr ra, (pv)
	mov v0, a0
	call_pal 0
	.end __start
	.ent target
target:
	li v0, 33
	ret (ra)
	.end target
`, Config{})
	if code != 33 {
		t.Errorf("exit = %d, want 33", code)
	}
}

func TestStepAfterHalt(t *testing.T) {
	m, _ := run(t, "\t.text\n\t.globl __start\n\t.ent __start\n__start:\tclr a0\n\tcall_pal 0\n\t.end __start\n", Config{})
	if err := m.Step(); err == nil {
		t.Error("Step after halt succeeded")
	}
	halted, code := m.Exited()
	if !halted || code != 0 {
		t.Errorf("Exited = %v, %d", halted, code)
	}
}

func TestWriteToReopenedFile(t *testing.T) {
	// A file written then reopened for read serves the written bytes.
	m, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	la a0, p
	li a1, 1
	call_pal 3
	mov v0, s0
	mov s0, a0
	la a1, msg
	li a2, 3
	call_pal 1
	mov s0, a0
	call_pal 4
	# reopen and read back
	la a0, p
	clr a1
	call_pal 3
	mov v0, s1
	mov s1, a0
	la a1, buf
	li a2, 3
	call_pal 2
	la t0, buf
	ldbu a0, 1(t0)
	call_pal 0
	.end __start
	.data
p:	.asciiz "f.out"
msg:	.ascii "XYZ"
	.bss
	.comm buf, 8
`, Config{})
	if code != 'Y' {
		t.Errorf("read-back byte = %d, want %d", code, 'Y')
	}
	_ = m
}

func TestTraceOutput(t *testing.T) {
	var buf strings.Builder
	exe := build(t, `
	.text
	.globl __start
	.ent __start
__start:
	li t0, 3
	addq t0, t0, t1
	clr a0
	call_pal 0
	.end __start
`)
	m, err := New(exe, Config{Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr := buf.String()
	for _, want := range []string{"lda t0, 3(zero)", "addq t0, t0, t1", "call_pal 0x0"} {
		if !strings.Contains(tr, want) {
			t.Errorf("trace lacks %q:\n%s", want, tr)
		}
	}
	if lines := strings.Count(tr, "\n"); lines != int(m.Icount) {
		t.Errorf("trace has %d lines, retired %d instructions", lines, m.Icount)
	}
}

// TestPredecodeSelfModify: a store into the text segment must be picked
// up by the predecode cache (the ISA allows self-modifying code even if
// nothing we build emits it).
func TestPredecodeSelfModify(t *testing.T) {
	// Overwrite the `li a0, 1` placeholder with `lda a0, 77(zero)`
	// before executing it.
	m, code := run(t, `
	.text
	.globl __start
	.ent __start
__start:
	la t0, patch
	la t1, target
	ldl t2, 0(t0)
	stl t2, 0(t1)
target:
	li a0, 1
	call_pal 0
patch:
	lda a0, 77(zero)
	.end __start
`, Config{})
	_ = m
	if code != 77 {
		t.Errorf("exit code = %d, want 77 (patched instruction not executed)", code)
	}
}

// vmBenchLoop is BenchmarkVMRun's register-only loop; STORE is the
// slot BenchmarkVMRunTextData fills with a counter store.
const vmBenchLoop = `
	.text
	.globl __start
	.ent __start
__start:
	li t0, 500000
	clr t1
	la t5, ctr
loop:
	addq t1, t0, t1
	xor t1, t0, t2
	s8addq t2, t1, t3
	cmplt t3, t1, t4
STORE
	subq t0, 1, t0
	bne t0, loop
	clr a0
	call_pal 0
	.end __start
ctr:
	nop
	nop
`

// BenchmarkVMRun measures the interpreter's host-side throughput on a
// register-only loop. Each iteration is a fresh machine, so it also
// prices harvesting: the handful of blocks are rebuilt and then run
// 3M instructions.
func BenchmarkVMRun(b *testing.B) {
	benchVMRun(b, strings.Replace(vmBenchLoop, "STORE\n", "", 1))
}

// BenchmarkVMRunTextData is BenchmarkVMRun's loop plus one stq per
// iteration to a quadword in the text segment, where ATOM's layout puts
// analysis data (Figure 4): the price of a text-resident tool counter.
func BenchmarkVMRunTextData(b *testing.B) {
	benchVMRun(b, strings.Replace(vmBenchLoop, "STORE", "\tstq t3, 0(t5)", 1))
}

// countProbe counts samples and ignores calls and returns: the
// cheapest sampling probe a run can carry.
type countProbe struct{ samples uint64 }

func (p *countProbe) Sample(uint64) { p.samples++ }

func (p *countProbe) Call(_, _ uint64) {}

func (p *countProbe) Return(_, _ uint64) {}

// BenchmarkVMRunProfiled prices a sampling probe on the dispatcher: 3M
// instructions of a loop whose body is one 200-op block, under a
// counting probe at the profiler's default period of 10000, so the
// sampling points land mid-block. Minst/s is the probed rate, beside
// BenchmarkVMRun's; slowdown is the probed over the bare wall time of
// the same loop, both runs timed in every iteration.
func BenchmarkVMRunProfiled(b *testing.B) {
	exe := build(b, longBlockLoop(15000, 200, nil))
	var insts uint64
	var bare, probed time.Duration
	for i := 0; i < b.N; i++ {
		for _, p := range []*countProbe{nil, {}} {
			cfg := Config{}
			if p != nil {
				cfg.Probe, cfg.SamplePeriod = p, 10000
			}
			m, err := New(exe, cfg)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
			if p == nil {
				bare += time.Since(start)
				continue
			}
			probed += time.Since(start)
			insts += m.Icount
			if p.samples != m.Icount/10000 {
				b.Fatalf("probe saw %d samples, want %d", p.samples, m.Icount/10000)
			}
		}
	}
	b.ReportMetric(float64(insts)/1e6/probed.Seconds(), "Minst/s")
	b.ReportMetric(probed.Seconds()/bare.Seconds(), "slowdown")
}

func benchVMRun(b *testing.B, src string) {
	exe := build(b, src)
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := New(exe, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		insts += m.Icount
	}
	b.ReportMetric(float64(insts)/1e6/b.Elapsed().Seconds(), "Minst/s")
}
