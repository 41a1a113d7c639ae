package vm

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"atom/internal/alpha"
	"atom/internal/aout"
)

// vmState captures everything architecturally observable about a halted
// machine, for differential comparison between the two run loops.
type vmState struct {
	exit      int
	errText   string
	pc        uint64
	regs      [32]int64
	memDigest uint64
	icount    uint64
	loads     uint64
	stores    uint64
	unaligned uint64
	syscalls  uint64
	stdout    string
	files     string
}

// memSeed keys the memory digests so they compare within one process.
var memSeed = maphash.MakeSeed()

// probeEvent is one Probe callback: 'S'ample, 'C'all or 'R'eturn.
type probeEvent struct {
	kind       byte
	pc, target uint64
}

// recProbe records the ordered Probe event stream.
type recProbe struct{ events []probeEvent }

func (p *recProbe) Sample(pc uint64) { p.record('S', pc, 0) }

func (p *recProbe) Call(pc, target uint64) { p.record('C', pc, target) }

func (p *recProbe) Return(pc, target uint64) { p.record('R', pc, target) }

func (p *recProbe) record(kind byte, pc, target uint64) {
	p.events = append(p.events, probeEvent{kind, pc, target})
}

// runVM runs exe once under cfg and captures the outcome.
func runVM(t *testing.T, exe *aout.File, cfg Config) (*Machine, vmState) {
	t.Helper()
	m, err := New(exe, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	code, rerr := m.Run()
	return m, stateOf(m, code, rerr)
}

// stateOf captures a machine's state after a Run that returned code and
// rerr.
func stateOf(m *Machine, code int, rerr error) vmState {
	st := vmState{
		exit:      code,
		pc:        m.PC,
		memDigest: maphash.Bytes(memSeed, m.Mem),
		icount:    m.Icount,
		loads:     m.Loads,
		stores:    m.Stores,
		unaligned: m.Unaligned,
		syscalls:  m.Syscalls,
		stdout:    string(m.Stdout),
	}
	if rerr != nil {
		st.errText = rerr.Error()
	}
	copy(st.regs[:], m.Reg[:])
	for _, p := range m.Paths() {
		st.files += p + "=" + string(m.FSOut[p]) + "\n"
	}
	return st
}

// runRef runs exe on the per-instruction Step loop: the reference the
// superblock loop must match.
func runRef(t *testing.T, exe *aout.File, cfg Config) (*Machine, vmState) {
	t.Helper()
	m, err := New(exe, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	code, rerr := stepRun(m)
	return m, stateOf(m, code, rerr)
}

// stepRun runs m to a halt on Step alone, with Run's instruction budget
// check and error text.
func stepRun(m *Machine) (int, error) {
	for !m.halted {
		if m.Icount >= m.cfg.MaxInstr {
			return 0, budgetErr(m.cfg.MaxInstr, m.PC)
		}
		if err := m.Step(); err != nil {
			return 0, err
		}
	}
	return m.exitCode, nil
}

// diffProbed runs exe with a recording probe on both loops and requires
// identical states and identical ordered event streams.
func diffProbed(t *testing.T, exe *aout.File, cfg Config, period uint64) {
	t.Helper()
	var want, got recProbe
	ref := cfg
	ref.Probe, ref.SamplePeriod = &want, period
	_, wantSt := runRef(t, exe, ref)
	cfg.Probe, cfg.SamplePeriod = &got, period
	_, gotSt := runVM(t, exe, cfg)
	if gotSt != wantSt {
		t.Errorf("period %d, MaxInstr %d: superblock state diverged:\n ref: %+v\n got: %+v", period, cfg.MaxInstr, wantSt, gotSt)
	}
	if !slices.Equal(got.events, want.events) {
		i := 0
		for i < len(got.events) && i < len(want.events) && got.events[i] == want.events[i] {
			i++
		}
		t.Errorf("period %d, MaxInstr %d: probe streams diverge at event %d of %d (ref %d events)",
			period, cfg.MaxInstr, i, len(got.events), len(want.events))
	}
}

// diffModes runs the program on the superblock loop and on the Step
// loop and requires bit-identical architectural outcomes — bare, and
// with a recording probe at several sampling periods, both unbounded
// and with budgets straddling a sampling point.
func diffModes(t *testing.T, exe *aout.File, cfg Config) vmState {
	t.Helper()
	if cfg.MemSize == 0 {
		// The programs are tiny and each one runs ~50 times here; a
		// small address space keeps allocating and digesting it cheap.
		cfg.MemSize = 8 << 20
	}
	_, want := runRef(t, exe, cfg)
	if _, got := runVM(t, exe, cfg); got != want {
		t.Errorf("superblock diverged from Step loop:\n ref: %+v\n got: %+v", want, got)
	}
	for _, period := range []uint64{0, 1, 2, 3, 7, 97} {
		diffProbed(t, exe, cfg, period)
		if s := want.icount / 2 / max(period, 1) * period; s > 1 {
			for _, budget := range []uint64{s - 1, s, s + 1} {
				bounded := cfg
				bounded.MaxInstr = budget
				diffProbed(t, exe, bounded, period)
			}
		}
	}
	return want
}

// TestSuperblockMatchesPlain: structured programs covering every block
// shape — loops, calls through bsr/jsr/ret, guards both ways, memory
// traffic, unaligned accesses, PAL services mid-stream, and file I/O —
// must match the plain per-instruction Step loop.
func TestSuperblockMatchesPlain(t *testing.T) {
	progs := map[string]string{
		"loop-and-calls": `
	.text
	.globl __start
	.ent __start
__start:
	li s0, 300
	clr s1
outer:
	mov s0, a0
	bsr ra, twist
	addq s1, v0, s1
	subq s0, 1, s0
	bgt s0, outer
	and s1, 0xff, a0
	call_pal 0
	.end __start
	.ent twist
twist:
	lda sp, -16(sp)
	stq a0, 0(sp)
	ldq t0, 0(sp)
	s4addq t0, 3, t1
	xor t1, a0, v0
	lda sp, 16(sp)
	ret (ra)
	.end twist
`,
		"mem-and-pal": `
	.text
	.globl __start
	.ent __start
__start:
	la t0, buf
	li t1, 64
fill:
	stb t1, 0(t0)
	addq t0, 1, t0
	subq t1, 1, t1
	bne t1, fill
	ldq t2, 1(t0)       # unaligned
	li a0, 1
	la a1, msg
	li a2, 6
	call_pal 1
	li a0, 24
	call_pal 5          # sbrk mid-stream
	clr a0
	call_pal 0
	.end __start
	.data
msg:	.ascii "hello\n"
	.bss
	.comm buf, 128
`,
		"indirect-jumps": `
	.text
	.globl __start
	.ent __start
__start:
	li s2, 5
	clr s3
spin:
	la pv, helper
	jsr ra, (pv)
	addq s3, v0, s3
	subq s2, 1, s2
	bgt s2, spin
	mov s3, a0
	call_pal 0
	.end __start
	.ent helper
helper:
	cmplt s2, 3, t0
	cmovne t0, 7, t1
	cmoveq t0, 2, t1
	mov t1, v0
	ret (ra)
	.end helper
`,
	}
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			diffModes(t, build(t, src), Config{})
		})
	}
}

// genMemSize is the address space generated programs run in; their
// accesses at the end of memory are placed relative to it.
const genMemSize = 5 << 20

// intner is the program generator's source of choices: a seeded
// *rand.Rand, or fuzz input (fuzzChoices).
type intner interface{ Intn(n int) int }

// genProgram generates a short program for the differential tests:
// every operate op in both operand forms and every guard, then
// straight-line arithmetic, forward guards, bounded loops, calls through
// bsr and jsr, forward br, bsr and computed-goto jumps, loads and stores
// at mixed alignment, reads and writes of the zero register, every shape
// the superblock peephole fuses and near misses it must leave alone —
// and, at times, a final access at an edge of the address space: the
// null page, the end of memory, beyond it, or wrapping past 2^64. Every
// choice comes from r, and every program terminates.
func genProgram(r intner) string {
	regs := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	rr := []string{"addl", "subl", "addq", "subq", "s4addq", "s8addq",
		"cmpeq", "cmplt", "cmple", "cmpult", "cmpule",
		"and", "bic", "bis", "ornot", "xor", "eqv", "cmoveq", "cmovne",
		"sll", "srl", "sra", "mull", "mulq", "umulh"}
	conds := []string{"beq", "bne", "blt", "bge", "ble", "bgt", "blbc", "blbs"}
	loads := []string{"ldq", "ldl", "ldwu", "ldbu"}
	stores := []string{"stq", "stl", "stw", "stb"}

	reg := func() string { return regs[r.Intn(len(regs))] }
	// Operands and destinations are at times the zero register: reads
	// give 0, writes (loads included) are discarded.
	src := func() string {
		if r.Intn(8) == 0 {
			return "zero"
		}
		return reg()
	}
	dst := src
	operate := func(op string, lit bool) string {
		if lit {
			return fmt.Sprintf("\t%s %s, %d, %s\n", op, src(), r.Intn(256), dst())
		}
		return fmt.Sprintf("\t%s %s, %s, %s\n", op, src(), src(), dst())
	}

	var b strings.Builder
	b.WriteString("\t.text\n\t.globl __start\n\t.ent __start\n__start:\n")
	b.WriteString("\tla s5, buf\n")
	for _, rg := range regs {
		fmt.Fprintf(&b, "\tli %s, %d\n", rg, r.Intn(4096)-2048)
	}
	// Every operate op in both forms, in a shuffled order.
	order := make([]int, 2*len(rr))
	for i := range order {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], i
	}
	for _, k := range order {
		b.WriteString(operate(rr[k/2], k%2 == 0))
	}
	// Every guard once, each to the instruction after it.
	for i, c := range conds {
		fmt.Fprintf(&b, "\t%s %s, guard%d\nguard%d:\n", c, src(), i, i)
	}
	label, splits := 0, 0
	// fusible emits what fuse rewrites — an ldah/lda pair building one
	// register, an lda or such a pair forming the base of the next ldq
	// or stq — or a near miss: a pair into two registers, a second lda
	// off another base, a memory op whose base is not the lda's
	// destination, a pair split by a guard.
	fusible := func() {
		di := r.Intn(len(regs))
		d, other := regs[di], regs[(di+1+r.Intn(len(regs)-1))%len(regs)]
		mem, data := "ldq", dst()
		if r.Intn(2) == 0 {
			mem, data = "stq", src()
		}
		disp := func() int { return r.Intn(1<<16) - 1<<15 } // any 16-bit displacement
		switch r.Intn(7) {
		case 0:
			fmt.Fprintf(&b, "\tldah %s, %d(%s)\n\tlda %s, %d(%s)\n", d, disp(), src(), d, disp(), d)
		case 1:
			fmt.Fprintf(&b, "\tlda %s, %d(s5)\n\t%s %s, %d(%s)\n", d, r.Intn(100), mem, data, r.Intn(100), d)
		case 2:
			fmt.Fprintf(&b, "\tldah %s, 0(s5)\n\tlda %s, %d(%s)\n\t%s %s, %d(%s)\n", d, d, r.Intn(100), d, mem, data, r.Intn(100), d)
		case 3:
			fmt.Fprintf(&b, "\tldah %s, %d(%s)\n\tlda %s, %d(%s)\n", d, disp(), src(), other, disp(), d)
		case 4:
			fmt.Fprintf(&b, "\tldah %s, %d(%s)\n\tlda %s, %d(%s)\n", d, disp(), src(), d, disp(), other)
		case 5:
			fmt.Fprintf(&b, "\tlda %s, %d(s5)\n\t%s %s, %d(s5)\n", d, r.Intn(4096)-2048, mem, data, r.Intn(200))
		default:
			// Its own labels: a forward guard's ops may include it.
			splits++
			fmt.Fprintf(&b, "\tldah %s, 0(s5)\n\t%s %s, split%d\n\tlda %s, %d(%s)\nsplit%d:\n\t%s %s, %d(%s)\n",
				d, conds[r.Intn(len(conds))], src(), splits, d, r.Intn(100), d, splits, mem, data, r.Intn(100), d)
		}
	}
	emitOp := func() {
		switch r.Intn(7) {
		case 0, 1, 2: // register-register / literal arithmetic
			b.WriteString(operate(rr[r.Intn(len(rr))], r.Intn(2) == 0))
		case 3:
			fmt.Fprintf(&b, "\tlda %s, %d(%s)\n", dst(), r.Intn(4096)-2048, src())
		case 4: // load at arbitrary alignment within the buffer
			fmt.Fprintf(&b, "\t%s %s, %d(s5)\n", loads[r.Intn(len(loads))], dst(), r.Intn(200))
		case 5: // store likewise
			fmt.Fprintf(&b, "\t%s %s, %d(s5)\n", stores[r.Intn(len(stores))], src(), r.Intn(200))
		default:
			fusible()
		}
	}
	// skipped emits ops that a forward jump skips, then its label.
	skipped := func() {
		for i := r.Intn(3); i > 0; i-- {
			emitOp()
		}
		fmt.Fprintf(&b, "fwd%d:\n", label)
	}
	for seg := 0; seg < 12; seg++ {
		switch r.Intn(8) {
		case 0: // straight line
			for i := r.Intn(6) + 2; i > 0; i-- {
				emitOp()
			}
		case 1: // forward guard over a few ops
			label++
			fmt.Fprintf(&b, "\t%s %s, fwd%d\n", conds[r.Intn(len(conds))], src(), label)
			for i := r.Intn(3) + 1; i > 0; i-- {
				emitOp()
			}
			fmt.Fprintf(&b, "fwd%d:\n", label)
		case 2: // bounded loop
			label++
			fmt.Fprintf(&b, "\tli s0, %d\n", r.Intn(40)+2)
			fmt.Fprintf(&b, "loop%d:\n", label)
			for i := r.Intn(4) + 1; i > 0; i-- {
				emitOp()
			}
			fmt.Fprintf(&b, "\tsubq s0, 1, s0\n\tbgt s0, loop%d\n", label)
		case 3: // call a generated subroutine
			fmt.Fprintf(&b, "\tbsr ra, sub%d\n", r.Intn(2))
		case 4: // ... or call it through a register
			fmt.Fprintf(&b, "\tla pv, sub%d\n\tjsr ra, (pv)\n", r.Intn(2))
		case 5: // forward br, linking a register or not
			label++
			if r.Intn(2) == 0 {
				fmt.Fprintf(&b, "\tbr fwd%d\n", label)
			} else {
				fmt.Fprintf(&b, "\tbr %s, fwd%d\n", dst(), label)
			}
			skipped()
		case 6: // bsr that links nothing
			label++
			fmt.Fprintf(&b, "\tbsr zero, fwd%d\n", label)
			skipped()
		default: // computed goto: jmp, or jsr that links nothing
			label++
			fmt.Fprintf(&b, "\tla s4, fwd%d\n", label)
			if r.Intn(2) == 0 {
				b.WriteString("\tjmp (s4)\n")
			} else {
				b.WriteString("\tjsr zero, (s4)\n")
			}
			skipped()
		}
	}
	if r.Intn(3) == 0 {
		addrs := []int64{
			4096 - 1 - int64(r.Intn(8)), // null page
			4096 + int64(r.Intn(8)),     // first page past it
			genMemSize - int64(r.Intn(10)),
			1 << 40,
			-1 - int64(r.Intn(16)), // wraps past 2^64
		}
		mem := append(loads, stores...)
		fmt.Fprintf(&b, "\tli s4, %d\n\t%s %s, 0(s4)\n", addrs[r.Intn(len(addrs))], mem[r.Intn(len(mem))], src())
	}
	b.WriteString("\txor t0, t1, t2\n\taddq t2, t3, t2\n\tand t2, 0xff, a0\n\tcall_pal 0\n\t.end __start\n")
	for s := 0; s < 2; s++ {
		fmt.Fprintf(&b, "\t.ent sub%d\nsub%d:\n", s, s)
		for i := 0; i < 3; i++ {
			b.WriteString(operate(rr[r.Intn(len(rr))], r.Intn(2) == 0))
		}
		fmt.Fprintf(&b, "\tret (ra)\n\t.end sub%d\n", s)
	}
	b.WriteString("\t.bss\n\t.comm buf, 256\n")
	return b.String()
}

// TestSuperblockRandomPrograms is the property test: generated
// programs (genProgram) must retire bit-identical state and probe
// streams on both run loops, and together they reach every micro-op.
func TestSuperblockRandomPrograms(t *testing.T) {
	seen := map[sbCode]bool{}
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			exe := build(t, genProgram(rand.New(rand.NewSource(seed))))
			diffModes(t, exe, Config{MemSize: genMemSize})
			m, _ := runVM(t, exe, Config{MemSize: genMemSize})
			for _, sb := range m.sbAll {
				for _, op := range sb.ops {
					seen[op.code] = true
				}
			}
		})
	}
	for c := sbAddl; c <= sbExit; c++ {
		if !seen[c] {
			t.Errorf("no generated program harvested micro-op %d", c)
		}
	}
}

// fuzzChoices draws genProgram's choices from fuzz input: one byte per
// choice (two for a choice among more than 256), and zeros once the
// input runs out.
type fuzzChoices []byte

func (c *fuzzChoices) Intn(n int) int {
	v := 0
	for span := 1; span < n && len(*c) > 0; span <<= 8 {
		v = v<<8 | int((*c)[0])
		*c = (*c)[1:]
	}
	return v % n
}

// FuzzSuperblockVsStep runs the program genProgram derives from the
// fuzz input on both run loops and requires diffModes equality.
func FuzzSuperblockVsStep(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		in := make([]byte, 128)
		rand.New(rand.NewSource(seed)).Read(in)
		f.Add(in)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		c := fuzzChoices(in)
		diffModes(t, build(t, genProgram(&c)), Config{MemSize: genMemSize})
	})
}

// TestSuperblockMaxInstrBoundary: superblock dispatch must retire
// exactly up to the instruction budget — same Icount, same PC, and the
// same error text as the Step loop, at and around the exact boundary.
func TestSuperblockMaxInstrBoundary(t *testing.T) {
	exe := build(t, `
	.text
	.globl __start
	.ent __start
__start:
	li t0, 50
loop:
	addq t1, t0, t1
	xor t1, t0, t2
	subq t0, 1, t0
	bne t0, loop
	clr a0
	call_pal 0
	.end __start
`)
	_, full := runRef(t, exe, Config{})
	if full.errText != "" {
		t.Fatalf("unbounded run failed: %s", full.errText)
	}
	n := full.icount
	budgets := []uint64{1, 2, 3, n / 2, n - 2, n - 1, n, n + 1}
	for _, max := range budgets {
		cfg := Config{MaxInstr: max}
		_, plain := runRef(t, exe, cfg)
		_, sb := runVM(t, exe, cfg)
		if sb != plain {
			t.Errorf("MaxInstr=%d: superblock %+v, Step loop %+v", max, sb, plain)
		}
		if max >= n && plain.errText != "" {
			t.Errorf("MaxInstr=%d >= natural icount %d but run errored: %s", max, n, plain.errText)
		}
		if max < n && !strings.Contains(plain.errText, fmt.Sprintf("budget %d exhausted", max)) {
			t.Errorf("MaxInstr=%d: error %q lacks exact budget text", max, plain.errText)
		}
	}
}

// TestSuperblockSelfModifyMidRun rewrites an instruction inside an
// already-executed, cached superblock and requires the patched
// semantics on the next pass, identically to the Step loop: from inside
// that very block with a store, and between two calls of a procedure
// with the read service, which copies an instruction from stdin over
// the procedure's first word.
func TestSuperblockSelfModifyMidRun(t *testing.T) {
	patch := alpha.Inst{Op: alpha.OpLda, Ra: alpha.A0, Rb: alpha.Zero, Disp: 42}.MustEncode()
	progs := map[string]struct {
		src   string
		stdin []byte
		exit  int
	}{
		"store-in-block": {exit: 77, src: `
	.text
	.globl __start
	.ent __start
__start:
	li s0, 1
	la t0, patch
	la t1, target
	ldl t2, 0(t0)
again:
target:
	li a0, 13
	beq s0, done
	clr s0
	stl t2, 0(t1)
	br again
done:
	call_pal 0
patch:
	lda a0, 77(zero)
	.end __start
`},
		"read-over-proc": {exit: 42, stdin: binary.LittleEndian.AppendUint32(nil, patch), src: `
	.text
	.globl __start
	.ent __start
__start:
	bsr ra, f
	clr a0
	la a1, f
	li a2, 4
	call_pal 2
	bsr ra, f
	call_pal 0
	.end __start
	.ent f
f:
	lda a0, 7(zero)
	ret (ra)
	.end f
`},
	}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			exe := build(t, p.src)
			cfg := Config{Stdin: p.stdin}
			if st := diffModes(t, exe, cfg); st.exit != p.exit {
				t.Errorf("exit = %d, want %d (patched instruction not executed)", st.exit, p.exit)
			}
			m, _ := runVM(t, exe, cfg)
			if m.sbInval == 0 {
				t.Error("store into a cached superblock recorded no invalidation")
			}
		})
	}
}

// TestSuperblockFaultDiagnostics: faults raised mid-block must carry the
// same pc/icount/cause text as per-instruction dispatch.
func TestSuperblockFaultDiagnostics(t *testing.T) {
	progs := map[string]string{
		"null-load": `
	.text
	.globl __start
	.ent __start
__start:
	li t0, 3
	addq t0, t0, t1
	clr t2
	ldq t3, 8(t2)
	call_pal 0
	.end __start
`,
		"wild-store": `
	.text
	.globl __start
	.ent __start
__start:
	li t0, 1
	sll t0, 40, t1
	stq t0, 0(t1)
	call_pal 0
	.end __start
`,
		"off-text-fall": `
	.text
	.globl __start
	.ent __start
__start:
	clr t9
	ret (t9)
	.end __start
`,
	}
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			exe := build(t, src)
			_, plain := runRef(t, exe, Config{})
			_, sb := runVM(t, exe, Config{})
			if plain.errText == "" {
				t.Fatal("expected a fault")
			}
			if sb != plain {
				t.Errorf("superblock fault state %+v\nStep loop fault state %+v", sb, plain)
			}
		})
	}
}

// TestSuperblockCounters: the cache reports its own activity.
func TestSuperblockCounters(t *testing.T) {
	exe := build(t, `
	.text
	.globl __start
	.ent __start
__start:
	li t0, 2000
loop:
	addq t1, t0, t1
	subq t0, 1, t0
	bne t0, loop
	clr a0
	call_pal 0
	.end __start
`)
	m, st := runVM(t, exe, Config{})
	if st.errText != "" {
		t.Fatal(st.errText)
	}
	if m.sbBuilt == 0 {
		t.Error("no superblocks built")
	}
	if m.sbLinks == 0 {
		t.Error("no trace links installed")
	}
	if m.sbHits < 2000 {
		t.Errorf("sbHits = %d, want >= one per loop iteration", m.sbHits)
	}
	// A sampling probe keeps the loop on superblocks: Step runs only
	// from the entry of the block that would cross each sampling point,
	// through that point, to the next block entry or control transfer.
	p := &recProbe{}
	m, _ = runVM(t, exe, Config{Probe: p, SamplePeriod: 97})
	if m.sbHits < 1900 {
		t.Errorf("with a probe, sbHits = %d, want >= 1900 of 2000 loop iterations", m.sbHits)
	}
	if want := int(m.Icount / 97); len(p.events) != want {
		t.Errorf("probe recorded %d samples, want %d", len(p.events), want)
	}
	tot := Totals()
	if tot.SBBuilt == 0 || tot.SBHits == 0 {
		t.Errorf("process totals missed superblock activity: %+v", tot)
	}
}

// TestSuperblockTextDataStores: analysis data lives in the text segment
// (Figure 4), so a hot loop bumping a counter placed after the code must
// run like the same loop bumping a .data word — no block dropped, no
// trace links invalidated, no block left early — and like the Step loop.
// The assembler takes no data directives in .text, so the text-resident
// quadword is two nop words the program zeroes first.
func TestSuperblockTextDataStores(t *testing.T) {
	const loop = `
	.text
	.globl __start
	.ent __start
__start:
	li s0, 400
	la t0, ctr
	stq zero, 0(t0)
loop:
	ldq t1, 0(t0)
	addq t1, s0, t1
	stq t1, 0(t0)
	subq s0, 1, s0
	bgt s0, loop
	ldq a0, 0(t0)
	and a0, 0xff, a0
	call_pal 0
	.end __start
`
	type cache struct{ inval, gen, hits uint64 }
	var got [2]cache
	for i, ctr := range []string{"ctr:\tnop\n\tnop\n", "\t.data\nctr:\t.quad 0\n"} {
		exe := build(t, loop+ctr)
		section := []string{".text", ".data"}[i]
		if sym, ok := exe.Lookup("ctr"); !ok || sym.Section.String() != section || sym.Value%8 != 0 {
			t.Fatalf("ctr not an aligned %s quadword: %+v", section, sym)
		}
		if st := diffModes(t, exe, Config{}); st.exit != 80200&0xff {
			t.Errorf("%s counter: exit = %d, want %d", section, st.exit, 80200&0xff)
		}
		m, _ := runVM(t, exe, Config{})
		got[i] = cache{m.sbInval, m.sbGen, m.sbHits}
	}
	if got[0] != got[1] {
		t.Errorf("text-resident counter {inval gen hits} = %+v, .data counter %+v", got[0], got[1])
	}
	if got[0].inval != 0 {
		t.Errorf("stores to text data dropped %d blocks", got[0].inval)
	}
}

// TestSuperblockWatermarkGapStores: stores into text words inside the
// code watermark that no block harvested must still run exactly like the
// Step loop — a data word between two procedures, whose store drops
// nothing and leaves the running block alone, and a word or a quadword a
// br skips, which lies inside a block's conservative span, so every
// store drops that block, data or not: stores stay inside runOps
// only above the watermark. Each data word is a nop the program zeroes
// before its loop.
func TestSuperblockWatermarkGapStores(t *testing.T) {
	progs := map[string]struct {
		src   string
		inval uint64 // blocks the loop must drop at least; 0: none
	}{
		"between-procs": {src: `
	.text
	.globl __start
	.ent __start
__start:
	li s0, 300
	la t0, gap
	stl zero, 0(t0)
loop:
	bsr ra, bump
	subq s0, 1, s0
	bgt s0, loop
	ldl a0, 0(t0)
	call_pal 0
	.end __start
%sgap:	nop
	.ent bump
bump:
	ldl t1, 0(t0)
	addl t1, 1, t1
	stl t1, 0(t0)
	ret (ra)
	.end bump
`},
		"skipped-by-br": {inval: 300, src: `
	.text
	.globl __start
	.ent __start
__start:
	li s0, 300
	la t0, gap
	stl zero, 0(t0)
loop:
	ldl t1, 0(t0)
	addl t1, 1, t1
	stl t1, 0(t0)
	br over
%sgap:	nop
over:
	subq s0, 1, s0
	bgt s0, loop
	ldl a0, 0(t0)
	call_pal 0
	.end __start
`},
		"quad-skipped-by-br": {inval: 300, src: `
	.text
	.globl __start
	.ent __start
__start:
	li s0, 300
	la t0, gap
	stq zero, 0(t0)
loop:
	ldq t1, 0(t0)
	addq t1, 1, t1
	stq t1, 0(t0)
	br over
%sgap:	nop
	nop
over:
	subq s0, 1, s0
	bgt s0, loop
	ldq a0, 0(t0)
	call_pal 0
	.end __start
`},
	}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			exe, gap := buildAligned(t, p.src, "gap")
			if st := diffModes(t, exe, Config{}); st.exit != 300 {
				t.Errorf("exit = %d, want 300", st.exit)
			}
			m, _ := runVM(t, exe, Config{})
			if gap < m.codeLo || gap >= m.codeHi {
				t.Fatalf("gap %#x outside the code watermark [%#x, %#x)", gap, m.codeLo, m.codeHi)
			}
			if p.inval == 0 && m.sbInval != 0 || m.sbInval < p.inval {
				t.Errorf("sbInval = %d, want at least %d (0: none)", m.sbInval, p.inval)
			}
		})
	}
}

// TestSuperblockFuseShapes: fuse rewrites exactly the shapes it names —
// an ldah/lda pair into one register, an lda or such a pair forming the
// base of the next ldq or stq — and leaves the absorbed slots and every
// near miss as harvested.
func TestSuperblockFuseShapes(t *testing.T) {
	cases := []struct {
		name, src string
		want      []sbCode
	}{
		{"pair", "ldah t0, 1(t1)\n\tlda t0, 2(t0)", []sbCode{sbLdaPair, sbLda}},
		{"pair-then-lda", "ldah t0, 1(t1)\n\tlda t0, 2(t0)\n\tlda t0, 3(t0)", []sbCode{sbLdaPair, sbLda, sbLda}},
		{"lda-ldq", "lda t0, 8(t1)\n\tldq t2, 0(t0)", []sbCode{sbLdaLdq, sbLdq}},
		{"lda-stq", "lda t0, 8(t1)\n\tstq t2, 0(t0)", []sbCode{sbLdaStq, sbStq}},
		{"pair-ldq", "ldah t0, 1(t1)\n\tlda t0, 2(t0)\n\tldq t2, 0(t0)", []sbCode{sbLdaLdq, sbLda, sbLdq}},
		{"pair-stq", "ldah t0, 1(t1)\n\tlda t0, 2(t0)\n\tstq t2, 0(t0)", []sbCode{sbLdaStq, sbLda, sbStq}},
		{"pair-other-dest", "ldah t0, 1(t1)\n\tlda t2, 2(t0)", []sbCode{sbLda, sbLda}},
		{"pair-other-base", "ldah t0, 1(t1)\n\tlda t0, 2(t2)", []sbCode{sbLda, sbLda}},
		{"base-not-dest", "lda t0, 8(t1)\n\tldq t2, 0(t1)", []sbCode{sbLda, sbLdq}},
		{"stq-base-not-dest", "lda t0, 8(t1)\n\tstq t0, 0(t1)", []sbCode{sbLda, sbStq}},
		{"ldl", "lda t0, 8(t1)\n\tldl t2, 0(t0)", []sbCode{sbLda, sbLdl}},
		{"split-by-guard", "ldah t0, 1(t1)\n\tbeq t3, on\non:\n\tlda t0, 2(t0)", []sbCode{sbLda, sbBeq, sbLda}},
		{"lda-zero", "lda zero, 8(t1)\n\tldq t2, 0(zero)", []sbCode{sbNop, sbLdq}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			exe := build(t, "\t.text\n\t.globl __start\n\t.ent __start\n__start:\n\t"+c.src+"\n\tcall_pal 0\n\t.end __start\n")
			m, err := New(exe, Config{MemSize: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			var got []sbCode
			for _, op := range m.lookupSB(exe.Entry).ops {
				got = append(got, op.code)
			}
			if want := append(c.want, sbExit); !slices.Equal(got, want) {
				t.Errorf("codes %v, want %v", got, want)
			}
		})
	}
}

// longBlockLoop returns a loop of iters passes over a body that is one
// straight-line run of n register ops, so with n above the sampling
// period every sampling point falls inside the block. at splices extra
// source in before the body op of the given index.
func longBlockLoop(iters, n int, at map[int]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t.text\n\t.globl __start\n\t.ent __start\n__start:\n")
	b.WriteString("\tla s1, target\n\tla t9, patch\n\tldl s2, 0(t9)\n")
	fmt.Fprintf(&b, "\tli s0, %d\nloop:\n", iters)
	for i := 0; i < n; i++ {
		b.WriteString(at[i])
		d, a, c := i%8, (i*3+1)%8, (i*5+2)%8
		switch i % 3 {
		case 0:
			fmt.Fprintf(&b, "\taddq t%d, %d, t%d\n", a, i%200+1, d)
		case 1:
			fmt.Fprintf(&b, "\txor t%d, t%d, t%d\n", a, c, d)
		default:
			fmt.Fprintf(&b, "\ts4addq t%d, t%d, t%d\n", a, c, d)
		}
	}
	b.WriteString("\tsubq s0, 1, s0\n\tbne s0, loop\n\tand t0, 0xff, a0\n\tcall_pal 0\n")
	b.WriteString("target:\n\taddq t2, 1, t2\n\tret (ra)\npatch:\n\taddq t2, 5, t2\n\t.end __start\n")
	return b.String()
}

// diffStretch is diffProbed at every instruction budget that ends in
// the stretch Step runs after a sampling point mid-run — up to the next
// block entry or control transfer, at most sbMaxOps instructions.
func diffStretch(t *testing.T, exe *aout.File, cfg Config, period uint64) {
	t.Helper()
	_, full := runRef(t, exe, cfg)
	s := full.icount / 2 / period * period
	for budget := s + 2; budget <= s+sbMaxOps+1; budget++ {
		bounded := cfg
		bounded.MaxInstr = budget
		diffProbed(t, exe, bounded, period)
	}
}

// TestSuperblockFenceStepsToEntry: a loop body longer than the sampling
// period puts a sampling point inside its block on every pass. The
// dispatcher steps through each one to the next block entry or control
// transfer, so a profiled run harvests exactly the bare run's blocks —
// none at the mid-block PCs it stepped through — and retires the Step
// loop's state and probe stream, also under budgets that end anywhere
// in the stretch stepped after a sampling point.
func TestSuperblockFenceStepsToEntry(t *testing.T) {
	exe := build(t, longBlockLoop(20, 200, nil))
	cfg := Config{MemSize: 5 << 20}
	bare, _ := runVM(t, exe, cfg)
	profiled, _ := runVM(t, exe, Config{MemSize: cfg.MemSize, Probe: &recProbe{}, SamplePeriod: 97})
	if profiled.sbBuilt != bare.sbBuilt {
		t.Errorf("profiled run built %d superblocks, bare run %d", profiled.sbBuilt, bare.sbBuilt)
	}
	diffModes(t, exe, cfg)
	diffStretch(t, exe, cfg, 97)
}

// TestSuperblockFenceStretchPalAndTextStore: the stretch stepped after
// a sampling point may retire a call_pal and a store that rewrites an
// instruction of a harvested block. Both run through Step, so state,
// error text and the ordered probe stream stay the Step loop's.
func TestSuperblockFenceStretchPalAndTextStore(t *testing.T) {
	exe := build(t, longBlockLoop(20, 200, map[int]string{
		90:  "\tcall_pal 6\n\taddq t1, v0, t1\n",
		120: "\tstl s2, 0(s1)\n\tbsr ra, target\n",
	}))
	cfg := Config{MemSize: 5 << 20}
	diffModes(t, exe, cfg)
	diffStretch(t, exe, cfg, 97)
	m, st := runVM(t, exe, Config{MemSize: cfg.MemSize, Probe: &recProbe{}, SamplePeriod: 97})
	if st.errText != "" {
		t.Fatal(st.errText)
	}
	if m.sbInval == 0 {
		t.Error("store into harvested text dropped no superblock")
	}
}

// TestSuperblockMemoryEdges: a load or store of every width — into a
// register or zero, from a register or zero — unaligned, in the null
// page, at either end of memory, beyond it, and wrapping past 2^64,
// mid-block. Both run loops must agree on state, counters, fault text
// and probe stream, and the fault is the one checkAddr describes.
func TestSuperblockMemoryEdges(t *testing.T) {
	const memSize = 5 << 20
	widths := map[string]int64{"ldq": 8, "ldl": 4, "ldwu": 2, "ldbu": 1, "stq": 8, "stl": 4, "stw": 2, "stb": 1}
	for _, op := range []string{"ldq", "ldl", "ldwu", "ldbu", "stq", "stl", "stw", "stb"} {
		w := widths[op]
		cases := []struct {
			name  string
			base  string // loads s4
			disp  int64
			fault string
		}{
			{"unaligned", "la s4, buf", 1, ""},
			{"null-page", "li s4, 4096", -w, "null-page access"},
			{"first-page", "li s4, 4096", 0, ""},
			{"last", fmt.Sprintf("li s4, %d", memSize), -w, ""},
			{"straddle-end", fmt.Sprintf("li s4, %d", memSize), 1 - w, "beyond memory"},
			{"beyond", "li s4, 1", 0, "beyond memory"},
			{"top", fmt.Sprintf("li s4, %d", -w), 0, "beyond memory"},
			{"wrap", "li s4, -4", 0, "beyond memory"},
		}
		for _, c := range cases {
			if c.name == "beyond" {
				c.base += "\n\tsll s4, 40, s4"
			}
			for _, reg := range []string{"t0", "zero"} {
				t.Run(op+"/"+c.name+"/"+reg, func(t *testing.T) {
					exe := build(t, fmt.Sprintf(`
	.text
	.globl __start
	.ent __start
__start:
	li t0, 0x1122334455667788
	la t3, buf
	stq t0, 0(t3)
	stq t0, 8(t3)
	%s
	addq t0, 1, t1
	%s %s, %d(s4)
	addq t1, t0, t2
	and t2, 0xff, a0
	call_pal 0
	.end __start
	.bss
	.comm buf, 64
`, c.base, op, reg, c.disp))
					cfg := Config{MemSize: memSize}
					_, st := runRef(t, exe, cfg)
					if _, got := runVM(t, exe, cfg); got != st {
						t.Errorf("superblock diverged from Step loop:\n ref: %+v\n got: %+v", st, got)
					}
					diffProbed(t, exe, cfg, 3)
					if c.fault == "" && st.errText != "" || !strings.Contains(st.errText, c.fault) {
						t.Errorf("error %q, want %q", st.errText, c.fault)
					}
					if c.name == "unaligned" && w > 1 && st.unaligned != 1 {
						t.Errorf("unaligned = %d, want 1", st.unaligned)
					}
				})
			}
		}
	}
}

// harvested reports whether a block m holds contains an op with code
// and skip.
func harvested(m *Machine, code sbCode, skip uint8) bool {
	for _, sb := range m.sbAll {
		for _, op := range sb.ops {
			if op.code == code && op.skip == skip {
				return true
			}
		}
	}
	return false
}

// TestSuperblockFusedFaults: a fused ldq or stq, its base formed by an
// lda or an ldah/lda pair, whose access faults in the null page, at the
// end of memory or where it wraps past 2^64, leaves the Step loop's
// fault text, PC, Icount and registers: the base is written, the access
// has no effect.
func TestSuperblockFusedFaults(t *testing.T) {
	const memSize = 5 << 20
	prefixes := []struct {
		name, src string // src forms s3 from s4, taking the lda's displacement
		skip      uint8
	}{
		{"lda", "lda s3, %d(s4)", 1},
		{"pair", "ldah s3, 0(s4)\n\tlda s3, %d(s3)", 2},
	}
	edges := []struct {
		name, base  string // loads s4
		disp, mdisp int64  // the lda's and the memory op's
		fault       string
	}{
		{"null-page", "li s4, 4096", -16, 8, "null-page access"},
		{"end", fmt.Sprintf("li s4, %d", memSize), -8, 4, "beyond memory"},
		{"wrap", "li s4, -16", 8, 4, "beyond memory"},
	}
	for _, mem := range []struct {
		op   string
		code sbCode
	}{{"ldq", sbLdaLdq}, {"stq", sbLdaStq}} {
		for _, p := range prefixes {
			for _, e := range edges {
				t.Run(mem.op+"/"+p.name+"/"+e.name, func(t *testing.T) {
					exe := build(t, fmt.Sprintf(`
	.text
	.globl __start
	.ent __start
__start:
	li t0, 0x1122334455667788
	%s
	addq t0, 1, t1
	%s
	%s t0, %d(s3)
	addq t1, t0, t2
	and t2, 0xff, a0
	call_pal 0
	.end __start
`, e.base, fmt.Sprintf(p.src, e.disp), mem.op, e.mdisp))
					cfg := Config{MemSize: memSize}
					st := diffModes(t, exe, cfg)
					if !strings.Contains(st.errText, e.fault) {
						t.Errorf("error %q, want %q", st.errText, e.fault)
					}
					if m, _ := runVM(t, exe, cfg); !harvested(m, mem.code, p.skip) {
						t.Errorf("no block holds the fused %s with skip %d", mem.op, p.skip)
					}
				})
			}
		}
	}
}

// buildAligned builds src, which has one %s for padding placed before
// label, with no padding or one nop word: whichever makes the text label
// quadword-aligned. The assembler takes no .align in .text.
func buildAligned(t *testing.T, src, label string) (*aout.File, uint64) {
	t.Helper()
	for _, pad := range []string{"", "\tnop\n"} {
		exe := build(t, fmt.Sprintf(src, pad))
		if sym, ok := exe.Lookup(label); ok && sym.Value%8 == 0 {
			return exe, sym.Value
		}
	}
	t.Fatalf("%s is not quadword-aligned with or without a nop before it", label)
	return nil, 0
}

// TestSuperblockTextStoreAboveWatermark: a text quadword above the code
// watermark takes counter stores, which stay inside runOps, then an
// instruction pair. Executing it builds a
// block over it and raises the watermark, so the next store drops that
// block and the running block bails out; the second pair runs, exactly
// as in the Step loop.
func TestSuperblockTextStoreAboveWatermark(t *testing.T) {
	exe, slot := buildAligned(t, `
	.text
	.globl __start
	.ent __start
__start:
	la s0, slot
	la t1, v1
	ldq s1, 0(t1)
	la t1, v2
	ldq s2, 0(t1)
	li t2, 50
fill:
	stq t2, 0(s0)
	subq t2, 1, t2
	bgt t2, fill
	stq s1, 0(s0)
	jsr ra, (s0)
	mov a0, s3
	stq s2, 0(s0)
	jsr ra, (s0)
	addq a0, s3, a0
	call_pal 0
v1:	lda a0, 7(zero)
	ret (ra)
v2:	lda a0, 9(zero)
	ret (ra)
%sslot:	nop
	nop
	.end __start
`, "slot")
	if st := diffModes(t, exe, Config{}); st.exit != 16 {
		t.Errorf("exit = %d, want 16 (7 from the first pair, 9 from the second)", st.exit)
	}
	m, _ := runVM(t, exe, Config{})
	if m.codeHi <= slot {
		t.Errorf("code watermark %#x did not rise over the executed slot %#x", m.codeHi, slot)
	}
	if m.sbInval == 0 {
		t.Error("the store over the executed slot dropped no block")
	}
}

// TestSuperblockStoreClearsSentinel: a text quadword above the
// watermark whose first word holds the unbuildable-entry sentinel (a
// jump to it faulted: it did not decode) is stored with an instruction
// pair. That store would stay inside runOps but for the sentinel, which
// it must clear, so that the next jump there builds a block.
func TestSuperblockStoreClearsSentinel(t *testing.T) {
	exe, slot := buildAligned(t, `
	.text
	.globl __start
	.ent __start
__start:
	la s0, slot
	li t0, 0x0400000004000000
	stq t0, 0(s0)
	jsr ra, (s0)
resume:
	la t1, v1
	ldq t2, 0(t1)
	stq t2, 0(s0)
	jsr ra, (s0)
	call_pal 0
v1:	lda a0, 42(zero)
	ret (ra)
%sslot:	nop
	nop
	.end __start
`, "slot")
	resume, _ := exe.Lookup("resume")
	k := (slot - exe.TextAddr) / 4
	// run faults at the slot, then resumes at resume, as a debugger would.
	run := func(runFn func(*Machine) (int, error)) (*Machine, string, vmState) {
		m, err := New(exe, Config{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = runFn(m)
		if err == nil || !strings.Contains(err.Error(), "unsupported") {
			t.Fatalf("first run: error %v, want an undecodable word", err)
		}
		first := err.Error()
		m.PC = resume.Value
		code, err := runFn(m)
		return m, first, stateOf(m, code, err)
	}
	_, wantFirst, want := run(stepRun)
	m, first, got := run(func(m *Machine) (int, error) {
		code, err := m.Run()
		if err != nil && (m.sbByIdx[k] != sbNone || slot < m.codeHi) {
			t.Fatal("the slot is not a quadword above the watermark holding the sentinel")
		}
		return code, err
	})
	if first != wantFirst || got != want {
		t.Errorf("superblock diverged from Step loop:\n ref: %s\n %+v\n got: %s\n %+v", wantFirst, want, first, got)
	}
	if got.exit != 42 {
		t.Errorf("exit = %d, want 42", got.exit)
	}
	if sb := m.sbByIdx[k]; sb == nil || sb == sbNone {
		t.Error("the store left the sentinel: no block was built at the slot")
	}
}

// TestAddressWrapFaults: the write and read services' buffers, and an
// indirect jump's target, at addresses whose end wraps past 2^64 fault
// with the usual diagnostic under both run loops instead of taking the
// host down. TestSuperblockMemoryEdges covers loads and stores.
func TestAddressWrapFaults(t *testing.T) {
	progs := map[string]struct{ body, fault string }{
		"write": {"li a0, 1\n\tli a1, -16\n\tli a2, 32\n\tcall_pal 1", "access at 0xfffffffffffffff0 beyond memory"},
		"read":  {"clr a0\n\tli a1, -16\n\tli a2, 32\n\tcall_pal 2", "access at 0xfffffffffffffff0 beyond memory"},
		"fetch": {"lda t0, -4(zero)\n\tjmp (t0)", "instruction fetch from 0xfffffffffffffffc outside text"},
	}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			exe := build(t, fmt.Sprintf(`
	.text
	.globl __start
	.ent __start
__start:
	addq t1, 3, t1
	%s
	clr a0
	call_pal 0
	.end __start
`, p.body))
			_, plain := runRef(t, exe, Config{})
			_, sb := runVM(t, exe, Config{})
			if !strings.Contains(plain.errText, p.fault) {
				t.Errorf("Step loop error %q, want %q", plain.errText, p.fault)
			}
			if sb != plain {
				t.Errorf("superblock state %+v\nStep loop state %+v", sb, plain)
			}
		})
	}
}
