package vm

import (
	"encoding/binary"

	"atom/internal/alpha"
)

// Superblock dispatch: the code-cache + trace-linking design the DBI
// literature describes for Pin/DynamoRIO, applied to the interpreter.
// On first execution of a PC the machine harvests the straight-line
// decoded run starting there — through fall-through paths and direct
// unconditional branches — into a superblock: a sequence of micro-ops
// whose register and memory effects are resolved to closures at build
// time. Conditional branches become guarded side exits, `bsr` and the
// indirect jumps terminate the block, and `call_pal` ends harvesting
// *before* the PAL instruction so every service call still goes through
// the ordinary interpreter. Dispatch then retires a whole block per
// iteration, and exits with a statically known successor are linked
// directly to the successor block, so hot loops execute entirely inside
// runSB with no per-instruction fetch, decode, or switch.
//
// Correctness invariants:
//
//   - Every micro-op except a trailing sbOpExit retires exactly one
//     instruction, so Icount is base + index — materialized into
//     m.Icount only at block exits and faults.
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
//     exact).
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
//     ret — with the same PCs and targets, across trace links too. The
//     probe's event stream is therefore the Step loop's.

// sbMaxOps bounds harvesting; long straight-line runs split into
// chained (and linked) blocks.
const sbMaxOps = 256

// Memory micro-op outcomes.
const (
	sbOK        uint8 = iota
	sbFaulted         // bounds check failed; no side effects applied
	sbTextStore       // store dropped a superblock: bail out
)

type sbKind uint8

const (
	sbOpReg     sbKind = iota // register effect closure
	sbOpNop                   // retires with no effect (br zero)
	sbOpMem                   // load/store closure
	sbOpGuard                 // conditional branch: taken -> static exit
	sbOpJump                  // bsr: link write + static exit
	sbOpJumpInd               // jmp/jsr/ret: dynamic exit via Rb
	sbOpExit                  // terminal, retires nothing; PC := pc
)

// sbOp is one micro-op. pc is the address of the source instruction
// (for sbOpExit, the address execution resumes at); inst is the decoded
// original, kept for slow-path re-execution on faults.
type sbOp struct {
	kind    sbKind
	ra, rb  alpha.Reg // sbOpJumpInd operands
	pc      uint64
	target  uint64 // static successor of a taken guard / jump
	reg     func(r *[alpha.NumRegs]int64)
	mem     func(m *Machine) uint8
	cond    func(r *[alpha.NumRegs]int64) bool
	inst    alpha.Inst
	link    *superblock // trace link for the static exit
	linkGen uint64      // valid iff == Machine.sbGen
	canLink bool
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
	if pc < m.exe.TextAddr || pc+4 > m.textEnd || pc%4 != 0 {
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
		if a >= m.exe.TextAddr && a+4 <= m.textEnd {
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
		if exit != nil && exit.canLink && (exit.link == nil || exit.linkGen != m.sbGen) {
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
	pc := m.PC
	return pc >= m.exe.TextAddr && pc+4 <= m.textEnd && pc%4 == 0 &&
		m.sbByIdx[(pc-m.exe.TextAddr)/4] != nil
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

// runSB executes one superblock (and anything reachable over valid
// trace links) without retiring past fence. On return m.PC and m.Icount
// are exact. The returned op is the static exit taken, for link
// installation; nil for dynamic exits, text-store bailouts, and faults.
func (m *Machine) runSB(sb *superblock, fence uint64) (*sbOp, error) {
	base := m.Icount
	r := &m.Reg
	ops := sb.ops
	i := 0
	for {
		op := &ops[i]
		switch op.kind {
		case sbOpReg:
			op.reg(r)
		case sbOpNop:
		case sbOpMem:
			switch op.mem(m) {
			case sbOK:
			case sbFaulted:
				// No side effects were applied; re-execute through the
				// interpreter for the byte-identical diagnostic.
				m.Icount = base + uint64(i) + 1
				m.PC = op.pc
				return nil, m.exec(op.inst)
			default: // sbTextStore: this very block may be stale now
				m.Icount = base + uint64(i) + 1
				m.PC = op.pc + 4
				return nil, nil
			}
		case sbOpGuard:
			if op.cond(r) {
				ic := base + uint64(i) + 1
				if next := op.link; next != nil && op.linkGen == m.sbGen && fence-ic >= uint64(next.n) {
					m.sbHits++
					base, ops, i = ic, next.ops, 0
					continue
				}
				m.Icount = ic
				m.PC = op.target
				return op, nil
			}
		case sbOpJump:
			if op.reg != nil {
				op.reg(r)
				if m.cfg.Probe != nil {
					m.cfg.Probe.Call(op.pc, op.target)
				}
			}
			ic := base + uint64(i) + 1
			if next := op.link; next != nil && op.linkGen == m.sbGen && fence-ic >= uint64(next.n) {
				m.sbHits++
				base, ops, i = ic, next.ops, 0
				continue
			}
			m.Icount = ic
			m.PC = op.target
			return op, nil
		case sbOpJumpInd:
			// Read the target before the link write (ret (ra) reads the
			// register a jsr to the same register would clobber).
			target := uint64(r[op.rb]) &^ 3
			if op.ra != alpha.Zero {
				r[op.ra] = int64(op.pc + 4)
			}
			m.Icount = base + uint64(i) + 1
			m.PC = target
			if m.cfg.Probe != nil {
				switch {
				case op.inst.Op == alpha.OpJsr && op.ra != alpha.Zero:
					m.cfg.Probe.Call(op.pc, target)
				case op.inst.Op == alpha.OpRet:
					m.cfg.Probe.Return(op.pc, target)
				}
			}
			return nil, nil
		default: // sbOpExit
			ic := base + uint64(i)
			if next := op.link; next != nil && op.linkGen == m.sbGen && fence-ic >= uint64(next.n) {
				m.sbHits++
				base, ops, i = ic, next.ops, 0
				continue
			}
			m.Icount = ic
			m.PC = op.pc
			return op, nil
		}
		i++
	}
}

// buildSB harvests the superblock entered at pc (known in-text, aligned,
// and indexable). nil means nothing can be harvested there.
func (m *Machine) buildSB(entry uint64) *superblock {
	sb := &superblock{entry: entry, lo: entry, hi: entry}
	visited := make(map[uint64]bool)
	memLen := uint64(len(m.Mem))
	pc := entry
	terminated := false
	for len(sb.ops) < sbMaxOps && !terminated {
		if pc < m.exe.TextAddr || pc+4 > m.textEnd || visited[pc] {
			break
		}
		inst, err := m.decoded((pc - m.exe.TextAddr) / 4)
		if err != nil {
			break
		}
		visited[pc] = true
		cover := true
		switch {
		case inst.Op == alpha.OpCallPal:
			// PAL services run through the interpreter only; stop before.
			cover = false
			terminated = true
			visited[pc] = false

		case inst.Op == alpha.OpBr:
			// Direct unconditional branch: harvest straight through it.
			next := pc + 4
			target := uint64(int64(next) + int64(inst.Disp)*4)
			if ra := inst.Ra; ra != alpha.Zero {
				v := int64(next)
				sb.ops = append(sb.ops, sbOp{kind: sbOpReg, pc: pc, inst: inst,
					reg: func(r *[alpha.NumRegs]int64) { r[ra] = v }})
			} else {
				sb.ops = append(sb.ops, sbOp{kind: sbOpNop, pc: pc, inst: inst})
			}
			sb.cover(pc)
			pc = target
			continue

		case inst.Op == alpha.OpBsr:
			op := sbOp{kind: sbOpJump, pc: pc, inst: inst, canLink: true,
				target: uint64(int64(pc+4) + int64(inst.Disp)*4)}
			if ra := inst.Ra; ra != alpha.Zero {
				v := int64(pc + 4)
				op.reg = func(r *[alpha.NumRegs]int64) { r[ra] = v }
			}
			sb.ops = append(sb.ops, op)
			terminated = true

		case inst.Op.IsCondBranch():
			cond := condClosure(inst)
			sb.ops = append(sb.ops, sbOp{kind: sbOpGuard, pc: pc, inst: inst, canLink: true,
				target: uint64(int64(pc+4) + int64(inst.Disp)*4), cond: cond})

		case inst.Op == alpha.OpJmp || inst.Op == alpha.OpJsr || inst.Op == alpha.OpRet:
			sb.ops = append(sb.ops, sbOp{kind: sbOpJumpInd, pc: pc, inst: inst,
				ra: inst.Ra, rb: inst.Rb})
			terminated = true

		case inst.Op.IsLoad() || inst.Op.IsStore():
			sb.ops = append(sb.ops, sbOp{kind: sbOpMem, pc: pc, inst: inst,
				mem: memClosure(inst, memLen, m.exe.TextAddr, m.textEnd)})

		default:
			cl := regClosure(inst)
			if cl == nil {
				// Decodable but not closure-compiled; single-step it.
				cover = false
				terminated = true
				visited[pc] = false
				break
			}
			sb.ops = append(sb.ops, sbOp{kind: sbOpReg, pc: pc, inst: inst, reg: cl})
		}
		if cover {
			sb.cover(pc)
			pc += 4
		}
	}
	sb.n = len(sb.ops)
	if sb.n == 0 {
		return nil
	}
	if !isTerminal(sb.ops[sb.n-1].kind) {
		sb.ops = append(sb.ops, sbOp{kind: sbOpExit, pc: pc, canLink: true})
	}
	return sb
}

func isTerminal(k sbKind) bool {
	return k == sbOpJump || k == sbOpJumpInd || k == sbOpExit
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

// condClosure compiles a conditional branch's test (CondHolds with the
// register binding resolved at build time).
func condClosure(i alpha.Inst) func(r *[alpha.NumRegs]int64) bool {
	ra := i.Ra
	switch i.Op {
	case alpha.OpBlbc:
		return func(r *[alpha.NumRegs]int64) bool { return r[ra]&1 == 0 }
	case alpha.OpBeq:
		return func(r *[alpha.NumRegs]int64) bool { return r[ra] == 0 }
	case alpha.OpBlt:
		return func(r *[alpha.NumRegs]int64) bool { return r[ra] < 0 }
	case alpha.OpBle:
		return func(r *[alpha.NumRegs]int64) bool { return r[ra] <= 0 }
	case alpha.OpBlbs:
		return func(r *[alpha.NumRegs]int64) bool { return r[ra]&1 == 1 }
	case alpha.OpBne:
		return func(r *[alpha.NumRegs]int64) bool { return r[ra] != 0 }
	case alpha.OpBge:
		return func(r *[alpha.NumRegs]int64) bool { return r[ra] >= 0 }
	case alpha.OpBgt:
		return func(r *[alpha.NumRegs]int64) bool { return r[ra] > 0 }
	}
	panic("vm: condClosure on " + i.Op.String())
}

// memClosure compiles a load or store: the effective-address operands,
// width, sign treatment, and bounds constants are all bound at build
// time. The bounds test replicates checkAddr (null page, then end of
// memory) with zero side effects on failure, so the slow-path re-run
// reproduces the exact fault.
func memClosure(i alpha.Inst, memLen, textAddr, textEnd uint64) func(m *Machine) uint8 {
	ra, rb, disp := i.Ra, i.Rb, int64(i.Disp)
	switch i.Op {
	case alpha.OpLdq:
		return func(m *Machine) uint8 {
			addr := uint64(m.Reg[rb] + disp)
			if addr < 4096 || addr+8 > memLen {
				return sbFaulted
			}
			m.Loads++
			if addr&7 != 0 {
				m.Unaligned++
			}
			if ra != alpha.Zero {
				m.Reg[ra] = int64(binary.LittleEndian.Uint64(m.Mem[addr:]))
			}
			return sbOK
		}
	case alpha.OpLdl:
		return func(m *Machine) uint8 {
			addr := uint64(m.Reg[rb] + disp)
			if addr < 4096 || addr+4 > memLen {
				return sbFaulted
			}
			m.Loads++
			if addr&3 != 0 {
				m.Unaligned++
			}
			if ra != alpha.Zero {
				m.Reg[ra] = int64(int32(binary.LittleEndian.Uint32(m.Mem[addr:])))
			}
			return sbOK
		}
	case alpha.OpLdwu:
		return func(m *Machine) uint8 {
			addr := uint64(m.Reg[rb] + disp)
			if addr < 4096 || addr+2 > memLen {
				return sbFaulted
			}
			m.Loads++
			if addr&1 != 0 {
				m.Unaligned++
			}
			if ra != alpha.Zero {
				m.Reg[ra] = int64(binary.LittleEndian.Uint16(m.Mem[addr:]))
			}
			return sbOK
		}
	case alpha.OpLdbu:
		return func(m *Machine) uint8 {
			addr := uint64(m.Reg[rb] + disp)
			if addr < 4096 || addr+1 > memLen {
				return sbFaulted
			}
			m.Loads++
			if ra != alpha.Zero {
				m.Reg[ra] = int64(m.Mem[addr])
			}
			return sbOK
		}
	}
	// Stores share one closure shape; the width switch is on a bound
	// constant and predicts perfectly per call site. A store into text —
	// usually an analysis counter — takes textStore, and leaves the
	// block only when it dropped one.
	size := uint64(i.Op.MemBytes())
	op := i.Op
	return func(m *Machine) uint8 {
		addr := uint64(m.Reg[rb] + disp)
		if addr < 4096 || addr+size > memLen {
			return sbFaulted
		}
		m.Stores++
		if addr%size != 0 {
			m.Unaligned++
		}
		v := uint64(m.Reg[ra])
		switch op {
		case alpha.OpStq:
			binary.LittleEndian.PutUint64(m.Mem[addr:], v)
		case alpha.OpStl:
			binary.LittleEndian.PutUint32(m.Mem[addr:], uint32(v))
		case alpha.OpStw:
			binary.LittleEndian.PutUint16(m.Mem[addr:], uint16(v))
		default: // OpStb
			m.Mem[addr] = byte(v)
		}
		if addr < textEnd && addr+size > textAddr && m.textStore(addr, size) {
			return sbTextStore
		}
		return sbOK
	}
}

// regClosure compiles a register-effect instruction (lda/ldah and the
// operate formats) with operands and literals bound at build time. nil
// means the op has no closure form and ends the block.
func regClosure(i alpha.Inst) func(r *[alpha.NumRegs]int64) {
	// lda/ldah write Ra; operate ops write Rc.
	if i.Op == alpha.OpLda || i.Op == alpha.OpLdah {
		ra, rb, disp := i.Ra, i.Rb, int64(i.Disp)
		if ra == alpha.Zero {
			return func(r *[alpha.NumRegs]int64) {}
		}
		if i.Op == alpha.OpLdah {
			disp <<= 16
		}
		return func(r *[alpha.NumRegs]int64) { r[ra] = r[rb] + disp }
	}
	ra, rb, rc := i.Ra, i.Rb, i.Rc
	if rc == alpha.Zero {
		switch i.Op {
		case alpha.OpAddl, alpha.OpSubl, alpha.OpAddq, alpha.OpSubq,
			alpha.OpS4addq, alpha.OpS8addq, alpha.OpCmpeq, alpha.OpCmplt,
			alpha.OpCmple, alpha.OpCmpult, alpha.OpCmpule, alpha.OpAnd,
			alpha.OpBic, alpha.OpBis, alpha.OpOrnot, alpha.OpXor,
			alpha.OpEqv, alpha.OpCmoveq, alpha.OpCmovne, alpha.OpSll,
			alpha.OpSrl, alpha.OpSra, alpha.OpMull, alpha.OpMulq,
			alpha.OpUmulh:
			return func(r *[alpha.NumRegs]int64) {}
		}
		return nil
	}
	if i.HasLit {
		b := int64(i.Lit)
		switch i.Op {
		case alpha.OpAddl:
			return func(r *[alpha.NumRegs]int64) { r[rc] = int64(int32(r[ra] + b)) }
		case alpha.OpSubl:
			return func(r *[alpha.NumRegs]int64) { r[rc] = int64(int32(r[ra] - b)) }
		case alpha.OpAddq:
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] + b }
		case alpha.OpSubq:
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] - b }
		case alpha.OpS4addq:
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra]*4 + b }
		case alpha.OpS8addq:
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra]*8 + b }
		case alpha.OpCmpeq:
			return func(r *[alpha.NumRegs]int64) { r[rc] = b2i(r[ra] == b) }
		case alpha.OpCmplt:
			return func(r *[alpha.NumRegs]int64) { r[rc] = b2i(r[ra] < b) }
		case alpha.OpCmple:
			return func(r *[alpha.NumRegs]int64) { r[rc] = b2i(r[ra] <= b) }
		case alpha.OpCmpult:
			return func(r *[alpha.NumRegs]int64) { r[rc] = b2i(uint64(r[ra]) < uint64(b)) }
		case alpha.OpCmpule:
			return func(r *[alpha.NumRegs]int64) { r[rc] = b2i(uint64(r[ra]) <= uint64(b)) }
		case alpha.OpAnd:
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] & b }
		case alpha.OpBic:
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] &^ b }
		case alpha.OpBis:
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] | b }
		case alpha.OpOrnot:
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] | ^b }
		case alpha.OpXor:
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] ^ b }
		case alpha.OpEqv:
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] ^ ^b }
		case alpha.OpCmoveq:
			return func(r *[alpha.NumRegs]int64) {
				if r[ra] == 0 {
					r[rc] = b
				}
			}
		case alpha.OpCmovne:
			return func(r *[alpha.NumRegs]int64) {
				if r[ra] != 0 {
					r[rc] = b
				}
			}
		case alpha.OpSll:
			s := uint64(b) & 63
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] << s }
		case alpha.OpSrl:
			s := uint64(b) & 63
			return func(r *[alpha.NumRegs]int64) { r[rc] = int64(uint64(r[ra]) >> s) }
		case alpha.OpSra:
			s := uint64(b) & 63
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] >> s }
		case alpha.OpMull:
			return func(r *[alpha.NumRegs]int64) { r[rc] = int64(int32(r[ra] * b)) }
		case alpha.OpMulq:
			return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] * b }
		case alpha.OpUmulh:
			return func(r *[alpha.NumRegs]int64) { r[rc] = umulh(uint64(r[ra]), uint64(b)) }
		}
		return nil
	}
	switch i.Op {
	case alpha.OpAddl:
		return func(r *[alpha.NumRegs]int64) { r[rc] = int64(int32(r[ra] + r[rb])) }
	case alpha.OpSubl:
		return func(r *[alpha.NumRegs]int64) { r[rc] = int64(int32(r[ra] - r[rb])) }
	case alpha.OpAddq:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] + r[rb] }
	case alpha.OpSubq:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] - r[rb] }
	case alpha.OpS4addq:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra]*4 + r[rb] }
	case alpha.OpS8addq:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra]*8 + r[rb] }
	case alpha.OpCmpeq:
		return func(r *[alpha.NumRegs]int64) { r[rc] = b2i(r[ra] == r[rb]) }
	case alpha.OpCmplt:
		return func(r *[alpha.NumRegs]int64) { r[rc] = b2i(r[ra] < r[rb]) }
	case alpha.OpCmple:
		return func(r *[alpha.NumRegs]int64) { r[rc] = b2i(r[ra] <= r[rb]) }
	case alpha.OpCmpult:
		return func(r *[alpha.NumRegs]int64) { r[rc] = b2i(uint64(r[ra]) < uint64(r[rb])) }
	case alpha.OpCmpule:
		return func(r *[alpha.NumRegs]int64) { r[rc] = b2i(uint64(r[ra]) <= uint64(r[rb])) }
	case alpha.OpAnd:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] & r[rb] }
	case alpha.OpBic:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] &^ r[rb] }
	case alpha.OpBis:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] | r[rb] }
	case alpha.OpOrnot:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] | ^r[rb] }
	case alpha.OpXor:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] ^ r[rb] }
	case alpha.OpEqv:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] ^ ^r[rb] }
	case alpha.OpCmoveq:
		return func(r *[alpha.NumRegs]int64) {
			if r[ra] == 0 {
				r[rc] = r[rb]
			}
		}
	case alpha.OpCmovne:
		return func(r *[alpha.NumRegs]int64) {
			if r[ra] != 0 {
				r[rc] = r[rb]
			}
		}
	case alpha.OpSll:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] << (uint64(r[rb]) & 63) }
	case alpha.OpSrl:
		return func(r *[alpha.NumRegs]int64) { r[rc] = int64(uint64(r[ra]) >> (uint64(r[rb]) & 63)) }
	case alpha.OpSra:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] >> (uint64(r[rb]) & 63) }
	case alpha.OpMull:
		return func(r *[alpha.NumRegs]int64) { r[rc] = int64(int32(r[ra] * r[rb])) }
	case alpha.OpMulq:
		return func(r *[alpha.NumRegs]int64) { r[rc] = r[ra] * r[rb] }
	case alpha.OpUmulh:
		return func(r *[alpha.NumRegs]int64) { r[rc] = umulh(uint64(r[ra]), uint64(r[rb])) }
	}
	return nil
}
