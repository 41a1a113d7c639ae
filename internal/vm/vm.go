// Package vm executes linked executables for the Alpha instruction
// subset. It stands in for the Alpha AXP hardware and the OSF/1 kernel in
// the paper's environment; everything above it — linking, instrumentation,
// the two-copies-of-libc discipline, the sbrk schemes — is real binary
// manipulation, exactly as in ATOM. The VM itself performs no
// instrumentation and knows nothing about analysis routines.
//
// Memory layout follows the paper (Figure 4 and footnote 10): the stack
// begins at the start of the text segment and grows toward low memory;
// the heap starts at the end of uninitialized data and grows toward high
// memory. System services are provided through CALL_PAL, standing in for
// OSF/1 PALcode + syscalls: exit, read, write, open, close, sbrk (two
// zones, for ATOM's partitioned-heap option), and a cycle counter.
//
// The machine retires one instruction per "cycle"; the dynamic
// instruction count is the deterministic stand-in for execution time when
// reproducing Figure 6 (ratios of instrumented to uninstrumented runs).
package vm

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/obs"
)

// Config parameterizes a machine.
type Config struct {
	// MemSize is the size of the flat address space. Zero selects 64 MiB.
	MemSize uint64
	// Args are the program arguments (argv[0] is the program name and is
	// supplied separately as Arg0; if Arg0 is empty, "a.out" is used).
	Arg0 string
	Args []string
	// Stdin is the byte stream served to fd 0.
	Stdin []byte
	// FS maps path -> contents for the in-memory filesystem served by
	// open/read. Files written by the program appear in Machine.FSOut.
	FS map[string][]byte
	// MaxInstr bounds execution; 0 selects 2e9. Exceeding it is an error
	// (runaway or non-terminating program).
	MaxInstr uint64
	// AnalysisHeapOffset, when non-zero, must equal the analysis heap
	// zone the executable records (aout.HeapZoneSymbol); New fails if
	// it differs, or if the executable records none. The heap scheme
	// itself always comes from the file: a recorded offset partitions
	// the heap, its absence links the two sbrk zones (ATOM's default
	// scheme: both allocate from the same heap, each starting where the
	// other left off). The field is kept only because the perfbench
	// harness still sets it; nothing else should.
	AnalysisHeapOffset uint64
	// Trace, when non-nil, receives one disassembled line per retired
	// instruction — for debugging tools and inserted code. Slow: a
	// tracer selects the per-instruction Step loop, which is also the
	// reference the superblock loop is tested against.
	Trace io.Writer
	// Obs, when non-nil, records each Run under a "vm.run" span and
	// flushes the machine's dynamic statistics (instructions, loads,
	// stores, unaligned accesses, CALL_PAL services) as counters.
	Obs *obs.Ctx
	// Probe, when non-nil, observes the machine's control flow: Call on
	// every retired subroutine call (bsr/jsr writing a link register),
	// Return on every ret, and — when SamplePeriod is non-zero — Sample
	// every SamplePeriod retired instructions. All callbacks are a pure
	// function of the instruction stream, so a deterministic program
	// yields a deterministic event sequence (internal/prof builds its
	// sampling profiler on this). A probe runs on superblocks: Call and
	// Return fire at block terminators, and where a block would cross a
	// sampling point the machine single-steps to that point and then on
	// to the next block entry or control transfer, so the event stream
	// is the one the Step loop produces.
	Probe Probe
	// SamplePeriod is the sampling period in retired instructions; zero
	// disables Sample callbacks.
	SamplePeriod uint64
}

// Probe receives control-flow events from a running machine.
type Probe interface {
	// Sample reports the PC of the instruction that completed a sampling
	// period, before that instruction's side effects are applied.
	Sample(pc uint64)
	// Call reports a retired subroutine call and its target.
	Call(pc, target uint64)
	// Return reports a retired ret and its target.
	Return(pc, target uint64)
}

// Machine is one running instance.
type Machine struct {
	Mem []byte
	Reg [alpha.NumRegs]int64
	PC  uint64

	// Statistics.
	Icount    uint64 // instructions retired
	Loads     uint64
	Stores    uint64
	Unaligned uint64 // memory accesses not naturally aligned (kernel-fixup equivalent)
	Syscalls  uint64 // CALL_PAL services dispatched

	// Stdout and Stderr accumulate writes to fds 1 and 2.
	Stdout []byte
	Stderr []byte
	// FSOut holds the final contents of files created or rewritten by
	// the program, keyed by path (populated at close or exit).
	FSOut map[string][]byte

	exe *aout.File
	cfg Config
	// code/codeOK predecode the text segment at load time, one slot per
	// word: Step fetches decoded instructions instead of calling
	// alpha.Decode per retired instruction. Text is not all code —
	// instrumented executables carry analysis data and constant blobs in
	// the text segment (Figure 4) — so a false codeOK means "decode from
	// memory when fetched": the word is undecodable, or a store into text
	// made the slot stale. decoded refreshes such a slot on demand, so
	// analysis data that is stored to but never fetched is never decoded.
	code    []alpha.Inst
	codeOK  []bool
	textEnd uint64
	// Superblock cache (see superblock.go). sbByIdx maps text word
	// index -> block entered at that PC (sbNone marks unbuildable
	// entries); sbAll is the registry invalidation scans; sbGen
	// invalidates trace links wholesale when bumped. [codeLo, codeHi)
	// is the code watermark: it covers the span of every block ever
	// built, so a text store outside it cannot touch a block.
	sbByIdx  []*superblock
	sbAll    []*superblock
	sbGen    uint64
	codeLo   uint64
	codeHi   uint64
	sbBuilt  uint64 // superblocks harvested
	sbHits   uint64 // block executions (incl. link transitions)
	sbLinks  uint64 // trace links installed
	sbInval  uint64 // blocks dropped by stores into text
	heapBase uint64
	brk      uint64 // application zone break
	brk2     uint64 // analysis zone break (== brk storage when linked)
	brk2Sep  bool
	files    []*openFile
	stdinPos int
	halted   bool
	exitCode int
}

type openFile struct {
	path    string
	reading bool
	data    []byte
	pos     int
	closed  bool
}

// New loads an executable into a fresh machine. It fails, rather than
// panicking, on any executable whose sections, heap zone or initial
// stack do not fit the address space.
func New(exe *aout.File, cfg Config) (*Machine, error) {
	if !exe.Linked {
		return nil, fmt.Errorf("vm: executable is not linked")
	}
	if cfg.MemSize == 0 {
		cfg.MemSize = 64 << 20
	}
	if cfg.MaxInstr == 0 {
		cfg.MaxInstr = 2_000_000_000
	}
	mem := cfg.MemSize
	for _, sec := range []struct {
		name       string
		addr, size uint64
	}{
		{"text", exe.TextAddr, uint64(len(exe.Text))},
		{"data", exe.DataAddr, uint64(len(exe.Data))},
		{"bss", exe.BssAddr, exe.Bss},
	} {
		if sec.addr > mem || sec.size > mem-sec.addr {
			return nil, fmt.Errorf("vm: %s at %#x (%#x bytes) exceeds memory size %#x", sec.name, sec.addr, sec.size, mem)
		}
	}
	heapBase := align8(exe.BssAddr + exe.Bss)
	zone, _ := exe.Lookup(aout.HeapZoneSymbol)
	off := zone.Value
	if cfg.AnalysisHeapOffset != 0 && cfg.AnalysisHeapOffset != off {
		return nil, fmt.Errorf("vm: analysis heap offset %#x differs from the executable's recorded zone offset %#x", cfg.AnalysisHeapOffset, off)
	}
	if off != 0 && (off%8 != 0 || off > mem || heapBase > mem-off) {
		return nil, fmt.Errorf("vm: analysis heap zone offset %#x from heap base %#x is misaligned or outside memory size %#x", off, heapBase, mem)
	}
	args := append([]string{cfg.Arg0}, cfg.Args...)
	if args[0] == "" {
		args[0] = "a.out"
	}
	// argc, the argv pointers, their NULL and the alignment slack, then
	// the strings: all below the text.
	stack := 8 * uint64(len(args)+3)
	for _, a := range args {
		stack += uint64(len(a)) + 1
	}
	if exe.TextAddr < stack {
		return nil, fmt.Errorf("vm: text at %#x leaves no room below it for the %d-byte initial stack", exe.TextAddr, stack)
	}
	m := &Machine{
		Mem:   make([]byte, mem),
		exe:   exe,
		cfg:   cfg,
		FSOut: map[string][]byte{},
	}
	copy(m.Mem[exe.TextAddr:], exe.Text)
	copy(m.Mem[exe.DataAddr:], exe.Data)
	m.textEnd = exe.TextAddr + uint64(len(exe.Text))
	n := len(exe.Text) / 4
	m.code = make([]alpha.Inst, n)
	m.codeOK = make([]bool, n)
	for i := 0; i < n; i++ {
		m.codeOK[i] = alpha.DecodeTo(&m.code[i], le32(exe.Text[i*4:])) == nil
	}
	m.sbByIdx = make([]*superblock, n)
	m.codeLo, m.codeHi = m.textEnd, exe.TextAddr // empty watermark
	m.heapBase = heapBase
	m.brk = m.heapBase
	m.brk2 = m.heapBase + off
	m.brk2Sep = off != 0
	m.PC = exe.Entry

	// fds 0,1,2 are pre-opened.
	m.files = []*openFile{
		{path: "<stdin>", reading: true, data: cfg.Stdin},
		{path: "<stdout>"},
		{path: "<stderr>"},
	}

	// Build the initial stack: strings, argv array, argc; sp points at
	// argc. The stack base is the start of text, growing down.
	sp := exe.TextAddr
	ptrs := make([]uint64, len(args))
	for i := len(args) - 1; i >= 0; i-- {
		b := append([]byte(args[i]), 0)
		sp -= uint64(len(b))
		copy(m.Mem[sp:], b)
		ptrs[i] = sp
	}
	sp &^= 7
	sp -= 8 // argv NULL terminator
	for i := len(ptrs) - 1; i >= 0; i-- {
		sp -= 8
		m.put64(sp, ptrs[i])
	}
	sp -= 8
	m.put64(sp, uint64(len(args)))
	m.Reg[alpha.SP] = int64(sp)
	return m, nil
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }

func (m *Machine) put64(addr, v uint64) {
	for i := 0; i < 8; i++ {
		m.Mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

// Exited reports whether the program has halted, and its exit status.
func (m *Machine) Exited() (bool, int) { return m.halted, m.exitCode }

// Run executes until the program halts, fuel is exhausted, or a fault
// occurs. It returns the exit status.
func (m *Machine) Run() (int, error) {
	// Process-wide totals flush as deltas, like the obs counters below,
	// so repeated Run/Step mixes and many machines aggregate correctly.
	ti, tl, ts, tu, ty := m.Icount, m.Loads, m.Stores, m.Unaligned, m.Syscalls
	sb0, sh0, sl0, sv0 := m.sbBuilt, m.sbHits, m.sbLinks, m.sbInval
	defer func() {
		totalRuns.Add(1)
		totalInstr.Add(m.Icount - ti)
		totalLoads.Add(m.Loads - tl)
		totalStores.Add(m.Stores - ts)
		totalUnaligned.Add(m.Unaligned - tu)
		totalSyscalls.Add(m.Syscalls - ty)
		totalSBBuilt.Add(m.sbBuilt - sb0)
		totalSBHits.Add(m.sbHits - sh0)
		totalSBLinks.Add(m.sbLinks - sl0)
		totalSBInval.Add(m.sbInval - sv0)
	}()
	if m.cfg.Obs.Enabled() {
		var spanAttrs []obs.Attr
		if m.cfg.Arg0 != "" {
			spanAttrs = append(spanAttrs, obs.String("program", m.cfg.Arg0))
		}
		_, sp := m.cfg.Obs.Start("vm.run", spanAttrs...)
		// Counters are flushed as deltas so repeated Run/Step mixes and
		// multiple machines sharing one context aggregate correctly.
		i0, l0, s0, u0, p0 := m.Icount, m.Loads, m.Stores, m.Unaligned, m.Syscalls
		defer func() {
			m.cfg.Obs.Count("vm.icount", int64(m.Icount-i0))
			m.cfg.Obs.Count("vm.loads", int64(m.Loads-l0))
			m.cfg.Obs.Count("vm.stores", int64(m.Stores-s0))
			m.cfg.Obs.Count("vm.unaligned", int64(m.Unaligned-u0))
			m.cfg.Obs.Count("vm.syscalls", int64(m.Syscalls-p0))
			m.cfg.Obs.Count("vm.sb.built", int64(m.sbBuilt-sb0))
			m.cfg.Obs.Count("vm.sb.hits", int64(m.sbHits-sh0))
			m.cfg.Obs.Count("vm.sb.links", int64(m.sbLinks-sl0))
			m.cfg.Obs.Count("vm.sb.invalidations", int64(m.sbInval-sv0))
			sp.SetAttr(obs.Int("icount", int64(m.Icount-i0)))
			sp.End()
		}()
	}
	// A tracer prints every retired instruction, so it gets the
	// per-instruction loop; everything else — the profiler's probe
	// included — runs on superblocks.
	if m.cfg.Trace == nil {
		return m.runSuperblocks()
	}
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

// budgetErr is the MaxInstr exhaustion error; one constructor so both
// run loops produce the identical text.
func budgetErr(max, pc uint64) error {
	return fmt.Errorf("vm: instruction budget %d exhausted at pc %#x", max, pc)
}

// fetch returns the decoded instruction at m.PC from the predecode
// cache, decoding a stale or undecodable word on demand; a word that
// does not decode faults with the decoder's own diagnostic.
func (m *Machine) fetch() (alpha.Inst, error) {
	if !m.inText(m.PC) {
		return alpha.Inst{}, m.faultf("instruction fetch from %#x outside text", m.PC)
	}
	inst, err := m.decoded((m.PC - m.exe.TextAddr) / 4)
	if err != nil {
		return alpha.Inst{}, m.faultf("%v", err)
	}
	return inst, nil
}

// inText reports whether pc is the aligned address of a whole text
// word. The test cannot wrap: New lays the initial stack out below text,
// so textEnd is far above 4.
func (m *Machine) inText(pc uint64) bool {
	return pc >= m.exe.TextAddr && pc <= m.textEnd-4 && pc%4 == 0
}

// decoded returns the instruction in text word idx, decoding it from
// memory — and caching it on success — when the predecode slot is not
// valid.
func (m *Machine) decoded(idx uint64) (alpha.Inst, error) {
	if m.codeOK[idx] {
		return m.code[idx], nil
	}
	inst, err := alpha.Decode(le32(m.Mem[m.exe.TextAddr+idx*4:]))
	if err == nil {
		m.code[idx], m.codeOK[idx] = inst, true
	}
	return inst, err
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Step executes a single instruction.
func (m *Machine) Step() error {
	if m.halted {
		return fmt.Errorf("vm: step after halt")
	}
	inst, err := m.fetch()
	if err != nil {
		return err
	}
	if m.cfg.Trace != nil {
		fmt.Fprintf(m.cfg.Trace, "%#x: %s\n", m.PC, inst)
	}
	m.Icount++
	if m.cfg.Probe != nil && m.cfg.SamplePeriod != 0 && m.Icount%m.cfg.SamplePeriod == 0 {
		m.cfg.Probe.Sample(m.PC)
	}
	return m.exec(inst)
}

// exec applies one decoded instruction's side effects and advances the
// PC. The caller has already counted the instruction.
func (m *Machine) exec(inst alpha.Inst) error {
	next := m.PC + 4

	switch inst.Op {
	case alpha.OpCallPal:
		done, err := m.pal(inst.PalFn)
		if err != nil {
			return err
		}
		if done {
			return nil
		}

	case alpha.OpLda:
		m.set(inst.Ra, m.Reg[inst.Rb]+int64(inst.Disp))
	case alpha.OpLdah:
		m.set(inst.Ra, m.Reg[inst.Rb]+int64(inst.Disp)<<16)

	case alpha.OpLdbu, alpha.OpLdwu, alpha.OpLdl, alpha.OpLdq:
		v, err := m.load(inst)
		if err != nil {
			return err
		}
		m.set(inst.Ra, v)

	case alpha.OpStb, alpha.OpStw, alpha.OpStl, alpha.OpStq:
		if err := m.store(inst); err != nil {
			return err
		}

	case alpha.OpBr, alpha.OpBsr:
		m.set(inst.Ra, int64(next))
		next = uint64(int64(next) + int64(inst.Disp)*4)
		if m.cfg.Probe != nil && inst.Op == alpha.OpBsr && inst.Ra != alpha.Zero {
			m.cfg.Probe.Call(m.PC, next)
		}

	case alpha.OpBlbc, alpha.OpBeq, alpha.OpBlt, alpha.OpBle, alpha.OpBlbs, alpha.OpBne, alpha.OpBge, alpha.OpBgt:
		if inst.CondHolds(m.Reg[inst.Ra]) {
			next = uint64(int64(next) + int64(inst.Disp)*4)
		}

	case alpha.OpJmp, alpha.OpJsr, alpha.OpRet:
		target := uint64(m.Reg[inst.Rb]) &^ 3
		m.set(inst.Ra, int64(next))
		next = target
		if m.cfg.Probe != nil {
			switch {
			case inst.Op == alpha.OpJsr && inst.Ra != alpha.Zero:
				// A jsr that discards its return address is a computed
				// goto, not a call; only link-writing jsrs push a frame.
				m.cfg.Probe.Call(m.PC, target)
			case inst.Op == alpha.OpRet:
				m.cfg.Probe.Return(m.PC, target)
			}
		}

	default:
		v, err := m.operate(inst)
		if err != nil {
			return err
		}
		m.set(inst.Rc, v)
	}
	m.PC = next
	return nil
}

func (m *Machine) set(r alpha.Reg, v int64) {
	if r != alpha.Zero {
		m.Reg[r] = v
	}
}

// rbOrLit returns the second operand of an operate instruction.
func (m *Machine) rbOrLit(i alpha.Inst) int64 {
	if i.HasLit {
		return int64(i.Lit)
	}
	return m.Reg[i.Rb]
}

func (m *Machine) operate(i alpha.Inst) (int64, error) {
	a := m.Reg[i.Ra]
	b := m.rbOrLit(i)
	switch i.Op {
	case alpha.OpAddl:
		return int64(int32(a + b)), nil
	case alpha.OpSubl:
		return int64(int32(a - b)), nil
	case alpha.OpAddq:
		return a + b, nil
	case alpha.OpSubq:
		return a - b, nil
	case alpha.OpS4addq:
		return a*4 + b, nil
	case alpha.OpS8addq:
		return a*8 + b, nil
	case alpha.OpCmpeq:
		return b2i(a == b), nil
	case alpha.OpCmplt:
		return b2i(a < b), nil
	case alpha.OpCmple:
		return b2i(a <= b), nil
	case alpha.OpCmpult:
		return b2i(uint64(a) < uint64(b)), nil
	case alpha.OpCmpule:
		return b2i(uint64(a) <= uint64(b)), nil
	case alpha.OpAnd:
		return a & b, nil
	case alpha.OpBic:
		return a &^ b, nil
	case alpha.OpBis:
		return a | b, nil
	case alpha.OpOrnot:
		return a | ^b, nil
	case alpha.OpXor:
		return a ^ b, nil
	case alpha.OpEqv:
		return a ^ ^b, nil
	case alpha.OpCmoveq:
		if a == 0 {
			return b, nil
		}
		return m.Reg[i.Rc], nil
	case alpha.OpCmovne:
		if a != 0 {
			return b, nil
		}
		return m.Reg[i.Rc], nil
	case alpha.OpSll:
		return a << (uint64(b) & 63), nil
	case alpha.OpSrl:
		return int64(uint64(a) >> (uint64(b) & 63)), nil
	case alpha.OpSra:
		return a >> (uint64(b) & 63), nil
	case alpha.OpMull:
		return int64(int32(a * b)), nil
	case alpha.OpMulq:
		return a * b, nil
	case alpha.OpUmulh:
		return umulh(uint64(a), uint64(b)), nil
	}
	return 0, m.faultf("unimplemented operate %s", i.Op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func umulh(a, b uint64) int64 {
	hi, _ := bits.Mul64(a, b)
	return int64(hi)
}

func (m *Machine) checkAddr(addr uint64, size int) error {
	if addr < 4096 {
		return m.faultf("null-page access at %#x", addr)
	}
	if n := uint64(len(m.Mem)); uint64(size) > n || addr > n-uint64(size) {
		return m.faultf("access at %#x beyond memory", addr)
	}
	return nil
}

func (m *Machine) load(i alpha.Inst) (int64, error) {
	addr := uint64(m.Reg[i.Rb] + int64(i.Disp))
	size := i.Op.MemBytes()
	if err := m.checkAddr(addr, size); err != nil {
		return 0, err
	}
	m.Loads++
	if addr%uint64(size) != 0 {
		m.Unaligned++
	}
	var v uint64
	for j := size - 1; j >= 0; j-- {
		v = v<<8 | uint64(m.Mem[addr+uint64(j)])
	}
	switch i.Op {
	case alpha.OpLdl:
		return int64(int32(v)), nil
	default:
		return int64(v), nil
	}
}

func (m *Machine) store(i alpha.Inst) error {
	addr := uint64(m.Reg[i.Rb] + int64(i.Disp))
	size := i.Op.MemBytes()
	if err := m.checkAddr(addr, size); err != nil {
		return err
	}
	m.Stores++
	if addr%uint64(size) != 0 {
		m.Unaligned++
	}
	v := uint64(m.Reg[i.Ra])
	for j := 0; j < size; j++ {
		m.Mem[addr+uint64(j)] = byte(v >> (8 * j))
	}
	if addr < m.textEnd && addr+uint64(size) > m.exe.TextAddr {
		m.textStore(addr, uint64(size))
	}
	return nil
}

func (m *Machine) faultf(format string, args ...any) error {
	return fmt.Errorf("vm: fault at pc %#x (icount %d): %s", m.PC, m.Icount, fmt.Sprintf(format, args...))
}

// Paths returns the sorted list of files written by the program.
func (m *Machine) Paths() []string {
	var out []string
	for p := range m.FSOut {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
