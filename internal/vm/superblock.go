package vm

import (
	"encoding/binary"

	"atom/internal/alpha"
)

// Superblock dispatch: the code-cache + trace-linking design the DBI
// literature describes for Pin/DynamoRIO, applied to the interpreter.
// On first execution of a PC the machine harvests the straight-line
// decoded run starting there — through fall-through paths and direct
// unconditional branches — into a superblock: a sequence of micro-ops.
// A micro-op is a compact value compiled once at harvest time: an
// opcode for the Alpha op and operand form (register or literal second
// operand, one per load/store width), the register numbers and one
// pre-resolved immediate. Conditional branches become guarded side
// exits, `bsr` and the indirect jumps terminate the block, and
// `call_pal` ends harvesting *before* the PAL instruction so every
// service call still goes through the ordinary interpreter. runOps
// retires a block through one dense switch on the opcode, which the
// compiler lowers to a jump table, and exits with a statically known
// successor are linked directly to the successor block, so hot loops
// execute entirely inside runOps with no per-instruction fetch, decode
// or call. A peephole pass (fuse) then lets one dispatch retire the
// commonest adjacent pairs: an ldah/lda pair building one register, and
// an lda whose result is the base of the next ldq or stq.
//
// Correctness invariants:
//
//   - Every micro-op occupies one slot per instruction it stands for: a
//     trailing sbExit retires nothing, a fused op retires its own slot
//     and the slots it absorbs, and every other op retires exactly one
//     instruction. runOps steps past absorbed slots, so Icount is base +
//     index — materialized into m.Icount only at block exits and faults.
//     A fused op never spans a guard, a terminator, a call_pal or a
//     probe event, and the memory op it absorbs is the last slot of its
//     group, so a fault or a store into text leaves at that op exactly
//     as it does unfused.
//   - A faulting memory op performs no side effects (the bounds check
//     mirrors checkAddr exactly); the dispatcher restores PC/Icount to
//     the faulting instruction and re-executes it through m.exec to
//     regenerate the byte-identical diagnostic.
//   - A store into the text segment marks the predecode slots it covers
//     stale (they re-decode when next fetched or harvested) and clears
//     any unbuildable-entry sentinel there. Most such stores are
//     analysis data, which the paper's layout (Figure 4) places in text,
//     so the code watermark [codeLo, codeHi) — the smallest range
//     covering every block span ever built — decides the rest: a store outside it cannot
//     touch a block and costs nothing more. A store inside it drops
//     every block whose span overlaps the store, and only if one was
//     dropped does the running block bail out after that op, so stale
//     harvested code is never executed (self-modifying code stays
//     exact). An aligned stq at or above codeHi onto two words that are
//     already stale, with no sentinel, stays inside runOps: textStore
//     would change nothing for it, and that is the analysis counter's
//     store after its first.
//   - Blocks are entered only when they fit under the fence: the
//     instruction budget, or the instruction before the next sampling
//     point when a probe samples. When the block at the PC would cross
//     the fence, Step runs instead — up to and including the sampled
//     instruction, then on to the next block entry or control transfer
//     (stepFence) — so MaxInstr exhaustion yields the same Icount, PC,
//     and error text as the Step loop, Sample fires before the sampled
//     instruction's side effects, and no block is harvested at the
//     mid-block PCs stepped through.
//   - Probe Call and Return fire at the terminators where exec fires
//     them — a bsr writing a link register, a jsr writing one, and any
//     ret — with the same PCs and targets; under a probe such a bsr
//     leaves the block runner instead of following its trace link. The
//     probe's event stream is therefore the Step loop's.

// sbMaxOps bounds harvesting; long straight-line runs split into
// chained (and linked) blocks.
const sbMaxOps = 256

// sbCode is a micro-op's opcode.
type sbCode uint8

const (
	// Operate format, register form: rc = ra op rb.
	sbAddl sbCode = iota
	sbSubl
	sbAddq
	sbSubq
	sbS4addq
	sbS8addq
	sbCmpeq
	sbCmplt
	sbCmple
	sbCmpult
	sbCmpule
	sbAnd
	sbBic
	sbBis
	sbOrnot
	sbXor
	sbEqv
	sbCmoveq
	sbCmovne
	sbSll
	sbSrl
	sbSra
	sbMull
	sbMulq
	sbUmulh

	// Operate format, literal form: rc = ra op imm.
	sbAddlI
	sbSublI
	sbAddqI
	sbSubqI
	sbS4addqI
	sbS8addqI
	sbCmpeqI
	sbCmpltI
	sbCmpleI
	sbCmpultI
	sbCmpuleI
	sbAndI
	sbBicI
	sbBisI
	sbOrnotI
	sbXorI
	sbEqvI
	sbCmoveqI
	sbCmovneI
	sbSllI
	sbSrlI
	sbSraI
	sbMullI
	sbMulqI
	sbUmulhI

	sbLda     // ra = rb + imm: lda, and ldah with imm already shifted
	sbLdaPair // ra = rb + imm, absorbing an lda ra, d(ra) after it
	sbLink    // ra = pc+4: a br harvested straight through
	sbNop     // retires with no effect: br zero, or a register op writing zero

	// Memory: the address is rb + imm; loads write ra, stores read it.
	// sbLdaLdq and sbLdaStq are fused prefixes: ra = rb + imm, as sbLda
	// or sbLdaPair, then the ldq or stq skip slots on, whose base is ra.
	sbLdaLdq
	sbLdaStq
	sbLdq
	sbLdl
	sbLdwu
	sbLdbu
	sbStq
	sbStl
	sbStw
	sbStb

	// Guards: a conditional branch on ra; taken is a static exit.
	sbBlbc
	sbBeq
	sbBlt
	sbBle
	sbBlbs
	sbBne
	sbBge
	sbBgt

	// Terminators.
	sbBsr  // ra = pc+4, Probe.Call, static exit
	sbJump // bsr zero: static exit
	sbJmp  // indirect through rb, link into ra
	sbJsr
	sbRet
	sbExit // retires nothing; static exit
)

// sbOperate maps each operate op to its register- and literal-form
// opcodes.
var sbOperate = map[alpha.Op][2]sbCode{
	alpha.OpAddl:   {sbAddl, sbAddlI},
	alpha.OpSubl:   {sbSubl, sbSublI},
	alpha.OpAddq:   {sbAddq, sbAddqI},
	alpha.OpSubq:   {sbSubq, sbSubqI},
	alpha.OpS4addq: {sbS4addq, sbS4addqI},
	alpha.OpS8addq: {sbS8addq, sbS8addqI},
	alpha.OpCmpeq:  {sbCmpeq, sbCmpeqI},
	alpha.OpCmplt:  {sbCmplt, sbCmpltI},
	alpha.OpCmple:  {sbCmple, sbCmpleI},
	alpha.OpCmpult: {sbCmpult, sbCmpultI},
	alpha.OpCmpule: {sbCmpule, sbCmpuleI},
	alpha.OpAnd:    {sbAnd, sbAndI},
	alpha.OpBic:    {sbBic, sbBicI},
	alpha.OpBis:    {sbBis, sbBisI},
	alpha.OpOrnot:  {sbOrnot, sbOrnotI},
	alpha.OpXor:    {sbXor, sbXorI},
	alpha.OpEqv:    {sbEqv, sbEqvI},
	alpha.OpCmoveq: {sbCmoveq, sbCmoveqI},
	alpha.OpCmovne: {sbCmovne, sbCmovneI},
	alpha.OpSll:    {sbSll, sbSllI},
	alpha.OpSrl:    {sbSrl, sbSrlI},
	alpha.OpSra:    {sbSra, sbSraI},
	alpha.OpMull:   {sbMull, sbMullI},
	alpha.OpMulq:   {sbMulq, sbMulqI},
	alpha.OpUmulh:  {sbUmulh, sbUmulhI},
}

// sbFixed maps the memory, conditional-branch and indirect-jump ops to
// their opcodes.
var sbFixed = map[alpha.Op]sbCode{
	alpha.OpLdq: sbLdq, alpha.OpLdl: sbLdl, alpha.OpLdwu: sbLdwu, alpha.OpLdbu: sbLdbu,
	alpha.OpStq: sbStq, alpha.OpStl: sbStl, alpha.OpStw: sbStw, alpha.OpStb: sbStb,
	alpha.OpBlbc: sbBlbc, alpha.OpBeq: sbBeq, alpha.OpBlt: sbBlt, alpha.OpBle: sbBle,
	alpha.OpBlbs: sbBlbs, alpha.OpBne: sbBne, alpha.OpBge: sbBge, alpha.OpBgt: sbBgt,
	alpha.OpJmp: sbJmp, alpha.OpJsr: sbJsr, alpha.OpRet: sbRet,
}

// sbOp is one micro-op. pc is the address of the source instruction;
// target is the static successor of a br, a taken guard, a bsr, or (for
// sbExit) the address execution resumes at. imm is the pre-resolved
// immediate: the operate literal (a shift count already masked to 6
// bits), or the memory displacement (ldah's already shifted left 16; a
// fused pair's the sum of both). skip is the number of slots a fused op
// absorbs.
type sbOp struct {
	code       sbCode
	ra, rb, rc alpha.Reg
	skip       uint8
	imm        int64
	pc         uint64
	target     uint64
	link       *superblock // trace link for the static exit
	linkGen    uint64      // valid iff == Machine.sbGen
}

// superblock is one harvested run, keyed by entry PC.
type superblock struct {
	entry  uint64
	n      int // retiring micro-ops; max instructions one pass retires
	ops    []sbOp
	lo, hi uint64 // conservative text span covered, for invalidation
}

// sbNone marks entry PCs where no block can be built (call_pal or an
// undecodable word first), so the dispatcher single-steps them without
// re-attempting a build every visit.
var sbNone = &superblock{}

// lookupSB returns the superblock entered at pc, building and caching
// it on first use. nil means "single-step this PC" — out-of-text,
// misaligned, or unbuildable.
func (m *Machine) lookupSB(pc uint64) *superblock {
	if !m.inText(pc) {
		return nil
	}
	idx := (pc - m.exe.TextAddr) / 4
	if sb := m.sbByIdx[idx]; sb != nil {
		if sb == sbNone {
			return nil
		}
		return sb
	}
	sb := m.buildSB(pc)
	if sb == nil {
		m.sbByIdx[idx] = sbNone
		return nil
	}
	m.sbByIdx[idx] = sb
	m.sbAll = append(m.sbAll, sb)
	m.codeLo, m.codeHi = min(m.codeLo, sb.lo), max(m.codeHi, sb.hi)
	m.sbBuilt++
	if m.cfg.Obs.Enabled() {
		m.cfg.Obs.Observe("vm.sb.block_len", int64(sb.n))
	}
	return sb
}

// textStore keeps the caches coherent after a store to [addr,
// addr+size) that overlaps the text segment, and reports whether it
// dropped a superblock — the only case in which the running block may
// be stale. The covered predecode slots go stale and unbuildable-entry
// sentinels are cleared (the patched word may now decode); only a store
// inside the code watermark can overlap a block and needs the scan.
func (m *Machine) textStore(addr, size uint64) bool {
	lo, hi := addr, addr+size
	for a := lo &^ 3; a < hi; a += 4 {
		if m.inText(a) {
			idx := (a - m.exe.TextAddr) / 4
			m.codeOK[idx] = false
			if m.sbByIdx[idx] == sbNone {
				m.sbByIdx[idx] = nil
			}
		}
	}
	return lo < m.codeHi && m.codeLo < hi && m.sbInvalidate(lo, hi)
}

// sbInvalidate drops every superblock whose span overlaps [lo, hi) and,
// if it dropped any, invalidates all trace links (generation bump). It
// reports whether it dropped anything.
func (m *Machine) sbInvalidate(lo, hi uint64) bool {
	dropped := false
	kept := m.sbAll[:0]
	for _, sb := range m.sbAll {
		if sb.lo < hi && lo < sb.hi {
			m.sbByIdx[(sb.entry-m.exe.TextAddr)/4] = nil
			m.sbInval++
			dropped = true
			continue
		}
		kept = append(kept, sb)
	}
	for i := len(kept); i < len(m.sbAll); i++ {
		m.sbAll[i] = nil
	}
	m.sbAll = kept
	if dropped {
		m.sbGen++
	}
	return dropped
}

// runSuperblocks is Run's dispatch loop. PCs without a block are
// single-stepped through Step; a block that would cross the fence is
// replaced by stepFence, which steps through the fence to a natural
// block boundary.
func (m *Machine) runSuperblocks() (int, error) {
	fence := m.fence()
	for !m.halted {
		if m.Icount >= m.cfg.MaxInstr {
			return 0, budgetErr(m.cfg.MaxInstr, m.PC)
		}
		if m.Icount > fence {
			fence = m.fence()
		}
		sb := m.lookupSB(m.PC)
		if sb == nil {
			if err := m.Step(); err != nil {
				return 0, err
			}
			continue
		}
		if fence-m.Icount < uint64(sb.n) {
			if err := m.stepFence(fence); err != nil {
				return 0, err
			}
			continue
		}
		m.sbHits++
		exit, err := m.runSB(sb, fence)
		if err != nil {
			return 0, err
		}
		// Trace linking: a static exit without a valid link resolves its
		// successor once; later passes jump block-to-block inside runSB.
		if exit != nil && (exit.link == nil || exit.linkGen != m.sbGen) {
			if next := m.lookupSB(m.PC); next != nil {
				exit.link, exit.linkGen = next, m.sbGen
				m.sbLinks++
			}
		}
	}
	return m.exitCode, nil
}

// stepFence single-steps up to and including the sampled instruction,
// the one that retires Icount fence+1 (when the fence is the budget, the
// budget runs out first), and then on until the PC is a known block
// entry, the last instruction transferred control, or sbMaxOps more
// steps have run. Resuming dispatch only there keeps lookupSB from
// harvesting a block at every mid-block PC between an entry and the
// sampling point. Step is the only executor, so samples, Call/Return
// events, faults, budget exhaustion and text stores are the Step
// loop's.
func (m *Machine) stepFence(fence uint64) error {
	for past := 0; !m.halted && past < sbMaxOps; {
		if m.Icount >= m.cfg.MaxInstr {
			return budgetErr(m.cfg.MaxInstr, m.PC)
		}
		prev := m.PC
		if err := m.Step(); err != nil {
			return err
		}
		if m.Icount <= fence {
			continue
		}
		if m.PC != prev+4 || m.atEntry() {
			return nil
		}
		past++
	}
	return nil
}

// atEntry reports whether the PC already keys a cache slot: a built
// block, or an entry known to be unbuildable.
func (m *Machine) atEntry() bool {
	return m.inText(m.PC) && m.sbByIdx[(m.PC-m.exe.TextAddr)/4] != nil
}

// fence returns the highest Icount a superblock may retire up to: the
// instruction budget, or the count just before the next sampling point,
// whichever comes first.
func (m *Machine) fence() uint64 {
	f := m.cfg.MaxInstr
	if p := m.cfg.SamplePeriod; p != 0 && m.cfg.Probe != nil {
		f = min(f, (m.Icount/p+1)*p-1)
	}
	return f
}

// sbStop says why runOps returned to runSB.
type sbStop uint8

const (
	sbStatic   sbStop = iota // a static exit: to op.target, or past sbExit
	sbIndirect               // op, a jmp/jsr/ret, retired
	sbText                   // op, a store into the text segment, retired
	sbFault                  // op failed its bounds check, with no side effects
)

// runSB executes one superblock (and anything reachable over valid
// trace links) without retiring past fence. On return m.PC and m.Icount
// are exact. The returned op is the static exit taken, for link
// installation; nil for dynamic exits, text-store bailouts, and faults.
//
// runOps retires the micro-ops; every event that needs a call — a probe
// callback, a store into text, a fault — returns here, so the hot loop
// calls nothing and the compiler keeps its state in registers.
func (m *Machine) runSB(sb *superblock, fence uint64) (*sbOp, error) {
	ops, i := sb.ops, 0
	for {
		var op *sbOp
		var stop sbStop
		ops, i, op, stop = m.runOps(ops, i, fence)
		switch stop {
		case sbStatic:
			if p := m.cfg.Probe; p != nil && op.code == sbBsr {
				p.Call(op.pc, op.target)
			}
			return op, nil
		case sbIndirect:
			if p := m.cfg.Probe; p != nil {
				switch {
				case op.code == sbJsr && op.ra != alpha.Zero:
					p.Call(op.pc, m.PC)
				case op.code == sbRet:
					p.Return(op.pc, m.PC)
				}
			}
			return nil, nil
		case sbText:
			// Usually an analysis counter: the caches stay coherent, and
			// the block is left only when the store dropped one, for this
			// very block may be stale. Rb still holds the base.
			if m.textStore(uint64(m.Reg[op.rb]+op.imm), op.storeWidth()) {
				return nil, nil
			}
		default: // sbFault
			// No side effects were applied; re-execute through the
			// interpreter for the byte-identical diagnostic. The block is
			// live, so memory still holds the word it was harvested from.
			inst, _ := m.decoded((op.pc - m.exe.TextAddr) / 4)
			return nil, m.exec(inst)
		}
	}
}

// runOps retires ops from ops[i] on, following valid trace links, until
// an event runSB must handle; m.Icount counts the instructions retired
// before ops[i]. On return m.Icount and m.PC are exact; for a fault,
// they are as Step leaves them before exec.
//
// Memory ops inline checkAddr's bounds test with the width as a
// constant: New lays the initial stack out below text, so len(Mem)
// exceeds every access width and len(Mem)-8 cannot wrap. Mem and the
// text bounds are read through m rather than held in locals, which
// would crowd the loop state out of registers.
func (m *Machine) runOps(ops []sbOp, i int, fence uint64) ([]sbOp, int, *sbOp, sbStop) {
	// Register numbers are masked with &31, which proves them in range:
	// no register access pays a bounds check.
	r := &m.Reg
	base := m.Icount - uint64(i)
	var op *sbOp
	for {
		op = &ops[i]
		i++ // instructions retired once op has
		switch op.code {
		case sbAddl:
			r[op.rc&31] = int64(int32(r[op.ra&31] + r[op.rb&31]))
		case sbSubl:
			r[op.rc&31] = int64(int32(r[op.ra&31] - r[op.rb&31]))
		case sbAddq:
			r[op.rc&31] = r[op.ra&31] + r[op.rb&31]
		case sbSubq:
			r[op.rc&31] = r[op.ra&31] - r[op.rb&31]
		case sbS4addq:
			r[op.rc&31] = r[op.ra&31]*4 + r[op.rb&31]
		case sbS8addq:
			r[op.rc&31] = r[op.ra&31]*8 + r[op.rb&31]
		case sbCmpeq:
			r[op.rc&31] = b2i(r[op.ra&31] == r[op.rb&31])
		case sbCmplt:
			r[op.rc&31] = b2i(r[op.ra&31] < r[op.rb&31])
		case sbCmple:
			r[op.rc&31] = b2i(r[op.ra&31] <= r[op.rb&31])
		case sbCmpult:
			r[op.rc&31] = b2i(uint64(r[op.ra&31]) < uint64(r[op.rb&31]))
		case sbCmpule:
			r[op.rc&31] = b2i(uint64(r[op.ra&31]) <= uint64(r[op.rb&31]))
		case sbAnd:
			r[op.rc&31] = r[op.ra&31] & r[op.rb&31]
		case sbBic:
			r[op.rc&31] = r[op.ra&31] &^ r[op.rb&31]
		case sbBis:
			r[op.rc&31] = r[op.ra&31] | r[op.rb&31]
		case sbOrnot:
			r[op.rc&31] = r[op.ra&31] | ^r[op.rb&31]
		case sbXor:
			r[op.rc&31] = r[op.ra&31] ^ r[op.rb&31]
		case sbEqv:
			r[op.rc&31] = r[op.ra&31] ^ ^r[op.rb&31]
		case sbCmoveq:
			if r[op.ra&31] == 0 {
				r[op.rc&31] = r[op.rb&31]
			}
		case sbCmovne:
			if r[op.ra&31] != 0 {
				r[op.rc&31] = r[op.rb&31]
			}
		case sbSll:
			r[op.rc&31] = r[op.ra&31] << (uint64(r[op.rb&31]) & 63)
		case sbSrl:
			r[op.rc&31] = int64(uint64(r[op.ra&31]) >> (uint64(r[op.rb&31]) & 63))
		case sbSra:
			r[op.rc&31] = r[op.ra&31] >> (uint64(r[op.rb&31]) & 63)
		case sbMull:
			r[op.rc&31] = int64(int32(r[op.ra&31] * r[op.rb&31]))
		case sbMulq:
			r[op.rc&31] = r[op.ra&31] * r[op.rb&31]
		case sbUmulh:
			r[op.rc&31] = umulh(uint64(r[op.ra&31]), uint64(r[op.rb&31]))

		case sbAddlI:
			r[op.rc&31] = int64(int32(r[op.ra&31] + op.imm))
		case sbSublI:
			r[op.rc&31] = int64(int32(r[op.ra&31] - op.imm))
		case sbAddqI:
			r[op.rc&31] = r[op.ra&31] + op.imm
		case sbSubqI:
			r[op.rc&31] = r[op.ra&31] - op.imm
		case sbS4addqI:
			r[op.rc&31] = r[op.ra&31]*4 + op.imm
		case sbS8addqI:
			r[op.rc&31] = r[op.ra&31]*8 + op.imm
		case sbCmpeqI:
			r[op.rc&31] = b2i(r[op.ra&31] == op.imm)
		case sbCmpltI:
			r[op.rc&31] = b2i(r[op.ra&31] < op.imm)
		case sbCmpleI:
			r[op.rc&31] = b2i(r[op.ra&31] <= op.imm)
		case sbCmpultI:
			r[op.rc&31] = b2i(uint64(r[op.ra&31]) < uint64(op.imm))
		case sbCmpuleI:
			r[op.rc&31] = b2i(uint64(r[op.ra&31]) <= uint64(op.imm))
		case sbAndI:
			r[op.rc&31] = r[op.ra&31] & op.imm
		case sbBicI:
			r[op.rc&31] = r[op.ra&31] &^ op.imm
		case sbBisI:
			r[op.rc&31] = r[op.ra&31] | op.imm
		case sbOrnotI:
			r[op.rc&31] = r[op.ra&31] | ^op.imm
		case sbXorI:
			r[op.rc&31] = r[op.ra&31] ^ op.imm
		case sbEqvI:
			r[op.rc&31] = r[op.ra&31] ^ ^op.imm
		case sbCmoveqI:
			if r[op.ra&31] == 0 {
				r[op.rc&31] = op.imm
			}
		case sbCmovneI:
			if r[op.ra&31] != 0 {
				r[op.rc&31] = op.imm
			}
		// The shift counts are masked already; masking again lets the
		// compiler emit a bare shift.
		case sbSllI:
			r[op.rc&31] = r[op.ra&31] << (uint64(op.imm) & 63)
		case sbSrlI:
			r[op.rc&31] = int64(uint64(r[op.ra&31]) >> (uint64(op.imm) & 63))
		case sbSraI:
			r[op.rc&31] = r[op.ra&31] >> (uint64(op.imm) & 63)
		case sbMullI:
			r[op.rc&31] = int64(int32(r[op.ra&31] * op.imm))
		case sbMulqI:
			r[op.rc&31] = r[op.ra&31] * op.imm
		case sbUmulhI:
			r[op.rc&31] = umulh(uint64(r[op.ra&31]), uint64(op.imm))

		case sbLda:
			r[op.ra&31] = r[op.rb&31] + op.imm
		case sbLdaPair:
			r[op.ra&31] = r[op.rb&31] + op.imm
			i++
		case sbLink:
			r[op.ra&31] = int64(op.pc + 4)
		case sbNop:

		// A fused prefix retires its slots up to the memory op and goes on
		// as that op, whose case follows it. It steps to that op as the
		// loop head does, op = &ops[i]; i++, which keeps i in the one
		// register every case continues with (i += skip, op = &ops[i-1]
		// costs every dispatch an extra jump and move).
		case sbLdaLdq:
			r[op.ra&31] = r[op.rb&31] + op.imm
			i += int(op.skip) - 1
			op = &ops[i]
			i++
			fallthrough
		case sbLdq:
			addr := uint64(r[op.rb&31] + op.imm)
			if addr < 4096 || addr > uint64(len(m.Mem))-8 {
				goto fault
			}
			m.Loads++
			if addr&7 != 0 {
				m.Unaligned++
			}
			if op.ra != alpha.Zero {
				r[op.ra&31] = int64(binary.LittleEndian.Uint64(m.Mem[addr:]))
			}
		case sbLdl:
			addr := uint64(r[op.rb&31] + op.imm)
			if addr < 4096 || addr > uint64(len(m.Mem))-4 {
				goto fault
			}
			m.Loads++
			if addr&3 != 0 {
				m.Unaligned++
			}
			if op.ra != alpha.Zero {
				r[op.ra&31] = int64(int32(binary.LittleEndian.Uint32(m.Mem[addr:])))
			}
		case sbLdwu:
			addr := uint64(r[op.rb&31] + op.imm)
			if addr < 4096 || addr > uint64(len(m.Mem))-2 {
				goto fault
			}
			m.Loads++
			if addr&1 != 0 {
				m.Unaligned++
			}
			if op.ra != alpha.Zero {
				r[op.ra&31] = int64(binary.LittleEndian.Uint16(m.Mem[addr:]))
			}
		case sbLdbu:
			addr := uint64(r[op.rb&31] + op.imm)
			if addr < 4096 || addr > uint64(len(m.Mem))-1 {
				goto fault
			}
			m.Loads++
			if op.ra != alpha.Zero {
				r[op.ra&31] = int64(m.Mem[addr])
			}

		case sbLdaStq:
			r[op.ra&31] = r[op.rb&31] + op.imm
			i += int(op.skip) - 1
			op = &ops[i]
			i++
			fallthrough
		case sbStq:
			addr := uint64(r[op.rb&31] + op.imm)
			if addr < 4096 || addr > uint64(len(m.Mem))-8 {
				goto fault
			}
			m.Stores++
			if addr&7 != 0 {
				m.Unaligned++
			}
			binary.LittleEndian.PutUint64(m.Mem[addr:], uint64(r[op.ra&31]))
			if addr < m.textEnd && addr+8 > m.exe.TextAddr {
				// Analysis data above the watermark, stale since an earlier
				// store: textStore would do nothing. No block entry lies
				// above codeHi, so a nil slot there is no sentinel either.
				if addr&7 == 0 && addr >= m.codeHi && addr+8 <= m.textEnd {
					if k := (addr - m.exe.TextAddr) / 4; !m.codeOK[k] && !m.codeOK[k+1] && m.sbByIdx[k] == nil && m.sbByIdx[k+1] == nil {
						continue
					}
				}
				goto text
			}
		case sbStl:
			addr := uint64(r[op.rb&31] + op.imm)
			if addr < 4096 || addr > uint64(len(m.Mem))-4 {
				goto fault
			}
			m.Stores++
			if addr&3 != 0 {
				m.Unaligned++
			}
			binary.LittleEndian.PutUint32(m.Mem[addr:], uint32(r[op.ra&31]))
			if addr < m.textEnd && addr+4 > m.exe.TextAddr {
				goto text
			}
		case sbStw:
			addr := uint64(r[op.rb&31] + op.imm)
			if addr < 4096 || addr > uint64(len(m.Mem))-2 {
				goto fault
			}
			m.Stores++
			if addr&1 != 0 {
				m.Unaligned++
			}
			binary.LittleEndian.PutUint16(m.Mem[addr:], uint16(r[op.ra&31]))
			if addr < m.textEnd && addr+2 > m.exe.TextAddr {
				goto text
			}
		case sbStb:
			addr := uint64(r[op.rb&31] + op.imm)
			if addr < 4096 || addr > uint64(len(m.Mem))-1 {
				goto fault
			}
			m.Stores++
			m.Mem[addr] = byte(r[op.ra&31])
			if addr < m.textEnd && addr+1 > m.exe.TextAddr {
				goto text
			}

		case sbBlbc:
			if r[op.ra&31]&1 == 0 {
				goto exit
			}
		case sbBeq:
			if r[op.ra&31] == 0 {
				goto exit
			}
		case sbBlt:
			if r[op.ra&31] < 0 {
				goto exit
			}
		case sbBle:
			if r[op.ra&31] <= 0 {
				goto exit
			}
		case sbBlbs:
			if r[op.ra&31]&1 == 1 {
				goto exit
			}
		case sbBne:
			if r[op.ra&31] != 0 {
				goto exit
			}
		case sbBge:
			if r[op.ra&31] >= 0 {
				goto exit
			}
		case sbBgt:
			if r[op.ra&31] > 0 {
				goto exit
			}

		case sbBsr:
			r[op.ra&31] = int64(op.pc + 4)
			if m.cfg.Probe != nil {
				// runSB reports the call; the successor is entered
				// from the dispatcher.
				m.Icount = base + uint64(i)
				m.PC = op.target
				return ops, i, op, sbStatic
			}
			goto exit
		case sbJump:
			goto exit
		case sbJmp, sbJsr, sbRet:
			// Read the target before the link write (ret (ra) reads the
			// register a jsr to the same register would clobber).
			target := uint64(r[op.rb&31]) &^ 3
			if op.ra != alpha.Zero {
				r[op.ra&31] = int64(op.pc + 4)
			}
			m.Icount = base + uint64(i)
			m.PC = target
			return ops, i, op, sbIndirect
		default: // sbExit
			i--
			goto exit
		}
		continue

	exit:
		// A static exit: follow a valid trace link if the successor fits
		// under the fence, else leave at the target.
		if next := op.link; next != nil && op.linkGen == m.sbGen && fence-(base+uint64(i)) >= uint64(next.n) {
			m.sbHits++
			base, ops, i = base+uint64(i), next.ops, 0
			continue
		}
		m.Icount = base + uint64(i)
		m.PC = op.target
		return ops, i, op, sbStatic
	}

text:
	m.Icount = base + uint64(i)
	m.PC = op.pc + 4
	return ops, i, op, sbText

fault:
	m.Icount = base + uint64(i)
	m.PC = op.pc
	return ops, i, op, sbFault
}

// buildSB harvests the superblock entered at pc (known in-text, aligned,
// and indexable). nil means nothing can be harvested there.
func (m *Machine) buildSB(entry uint64) *superblock {
	sb := &superblock{entry: entry, lo: entry, hi: entry}
	visited := make(map[uint64]bool)
	pc := entry
	for len(sb.ops) < sbMaxOps && m.inText(pc) && !visited[pc] {
		inst, err := m.decoded((pc - m.exe.TextAddr) / 4)
		if err != nil {
			break
		}
		op, ok := sbCompile(inst, pc)
		if !ok {
			// call_pal (PAL services run through the interpreter only),
			// or an op with no micro-op form: stop before it.
			break
		}
		visited[pc] = true
		sb.ops = append(sb.ops, op)
		sb.cover(pc)
		if isTerminal(op.code) {
			break
		}
		if inst.Op == alpha.OpBr {
			pc = op.target // harvest straight through
		} else {
			pc += 4
		}
	}
	sb.n = len(sb.ops)
	if sb.n == 0 {
		return nil
	}
	if !isTerminal(sb.ops[sb.n-1].code) {
		sb.ops = append(sb.ops, sbOp{code: sbExit, pc: pc, target: pc})
	}
	fuse(sb.ops)
	return sb
}

// fuse is the peephole pass over a harvested block. It rewrites the
// first op of each fusible group in place and leaves the ops it absorbs
// in their slots, unexecuted: an lda whose result the next lda adds to
// (ldah r, hi(x); lda r, lo(r)) becomes one sbLdaPair, and an lda or
// such a pair whose result is the base of the next ldq or stq becomes
// that op's fused prefix. Groups hold only lda and memory ops, so none
// spans a guard, a terminator or a call_pal; and the block ends in a
// terminator, so an lda always has a successor slot.
func fuse(ops []sbOp) {
	for k := 0; k < len(ops); k++ {
		op := &ops[k]
		if op.code != sbLda {
			continue
		}
		n := 1 // slots in the group so far
		if next := &ops[k+1]; next.code == sbLda && next.ra == op.ra && next.rb == op.ra {
			op.code, op.imm, op.skip = sbLdaPair, op.imm+next.imm, 1
			n = 2
		}
		if mem := &ops[k+n]; mem.rb == op.ra && (mem.code == sbLdq || mem.code == sbStq) {
			op.code, op.skip = sbLdaLdq, uint8(n)
			if mem.code == sbStq {
				op.code = sbLdaStq
			}
			n++
		}
		k += n - 1
	}
}

// sbCompile compiles the instruction at pc into its micro-op. ok is
// false for call_pal and for ops without a micro-op form.
func sbCompile(inst alpha.Inst, pc uint64) (sbOp, bool) {
	op := sbOp{pc: pc, ra: inst.Ra, rb: inst.Rb, rc: inst.Rc}
	branch := uint64(int64(pc+4) + int64(inst.Disp)*4)
	switch {
	case inst.Op == alpha.OpBr:
		op.code, op.target = sbLink, branch
		if inst.Ra == alpha.Zero {
			op.code = sbNop
		}
	case inst.Op == alpha.OpBsr:
		op.code, op.target = sbBsr, branch
		if inst.Ra == alpha.Zero {
			op.code = sbJump
		}
	case inst.Op.IsCondBranch():
		op.code, op.target = sbFixed[inst.Op], branch
	case inst.Op.IsLoad() || inst.Op.IsStore():
		op.code, op.imm = sbFixed[inst.Op], int64(inst.Disp)
	case inst.Op == alpha.OpJmp || inst.Op == alpha.OpJsr || inst.Op == alpha.OpRet:
		op.code = sbFixed[inst.Op]
	case inst.Op == alpha.OpLda || inst.Op == alpha.OpLdah:
		op.code, op.imm = sbLda, int64(inst.Disp)
		if inst.Op == alpha.OpLdah {
			op.imm <<= 16
		}
		if inst.Ra == alpha.Zero {
			op.code = sbNop
		}
	default:
		forms, ok := sbOperate[inst.Op]
		if !ok {
			return op, false
		}
		op.code = forms[0]
		if inst.HasLit {
			op.code, op.imm = forms[1], int64(inst.Lit)
			if inst.Op == alpha.OpSll || inst.Op == alpha.OpSrl || inst.Op == alpha.OpSra {
				op.imm &= 63
			}
		}
		if inst.Rc == alpha.Zero {
			op.code = sbNop
		}
	}
	return op, true
}

// storeWidth is a store micro-op's access size in bytes.
func (op *sbOp) storeWidth() uint64 {
	switch op.code {
	case sbStq:
		return 8
	case sbStl:
		return 4
	case sbStw:
		return 2
	}
	return 1
}

func isTerminal(c sbCode) bool {
	return c == sbBsr || c == sbJump || c == sbJmp || c == sbJsr || c == sbRet || c == sbExit
}

// cover extends the block's conservative text span to include pc.
func (sb *superblock) cover(pc uint64) {
	if pc < sb.lo {
		sb.lo = pc
	}
	if pc+4 > sb.hi {
		sb.hi = pc + 4
	}
}
