package dataflow

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"atom/internal/alpha"
	"atom/internal/aout"
	"atom/internal/om"
)

// The reference solver and the property test that holds ComputeCtx to
// it on generated programs.

// refSolution is the naive reference's answer: every instruction's
// live-in and live-out, and every procedure's entry summary and whether
// the program enters it (Entered).
type refSolution struct {
	in, out map[*om.Inst]om.RegSet
	entry   []om.RegSet
	entered []bool
}

// refSolve solves liveness the slow way, from the rules in the package
// comment alone: every round visits every instruction of every procedure
// (each block backward) and recomputes its live sets from its
// neighbours' current ones, and the exit summaries from every call's
// live-out, until a round changes nothing. No block composition, no
// worklist, no warm start, no slot table: procedures are found by
// linear scans, transfers from alpha's WritesReg and ReadsRegs.
func refSolve(p *om.Program) refSolution {
	procs := p.Procs
	n := len(procs)
	// startOf is the last procedure starting at addr (a zero-size
	// alias sorts before the procedure it names), -1 for none.
	startOf := func(addr uint64) int {
		j := -1
		for i, pr := range procs {
			if pr.Addr == addr {
				j = i
			}
		}
		return j
	}
	procOf := func(addr uint64) int {
		for i, pr := range procs {
			if pr.Addr <= addr && addr < pr.Addr+pr.Size {
				return i
			}
		}
		return -1
	}
	valid := func(pr *om.Proc, s *om.Block) bool {
		return s.Index >= 0 && s.Index < len(pr.Blocks) && pr.Blocks[s.Index] == s
	}
	edgeTo := func(b *om.Block, addr uint64) bool {
		for _, s := range b.Succs {
			if len(s.Insts) > 0 && s.Insts[0].Addr == addr {
				return true
			}
		}
		return false
	}
	target := func(in *om.Inst) uint64 { return in.Addr + 4 + uint64(int64(in.I.Disp)*4) }

	// Which procedures keep an all-live exit, and which are called.
	fixed, called := make([]bool, n), make([]bool, n)
	mark := func(addr uint64) {
		if j := procOf(addr); j >= 0 {
			fixed[j] = true
		}
	}
	mark(p.Exe.Entry)
	for _, rel := range p.Exe.Relocs {
		if rel.Type != aout.RelBr21 && rel.Sym >= 0 && rel.Sym < len(p.Exe.Symbols) {
			mark(p.Exe.Symbols[rel.Sym].Value + uint64(rel.Addend))
		}
	}
	for i, pr := range procs {
		for _, b := range pr.Blocks {
			for k := range b.Insts {
				in := &b.Insts[k]
				if in.I.Op.Format() != alpha.FormatBranch {
					continue
				}
				t := target(in)
				j := procOf(t)
				switch {
				case j < 0:
				case in.I.Op == alpha.OpBsr && t == procs[j].Addr:
					called[j] = true
				case in.I.Op == alpha.OpBsr || j != i:
					fixed[j] = true
				}
			}
		}
	}
	// ret[i]: a call to procedure i can return. Round robin from
	// "no" until nothing changes; control passes a resolved call
	// only into a callee that returns.
	ret := make([]bool, n)
	passes := func(in *om.Inst) bool {
		switch in.I.Op {
		case alpha.OpRet, alpha.OpJmp, alpha.OpBr:
			return false
		case alpha.OpBsr:
			if j := startOf(target(in)); j >= 0 {
				return ret[j]
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for i, pr := range procs {
			if ret[i] || len(pr.Blocks) == 0 {
				continue
			}
			seen := map[*om.Block]bool{pr.Blocks[0]: true}
			work := []*om.Block{pr.Blocks[0]}
		search:
			for len(work) > 0 {
				b := work[0]
				work = work[1:]
				if len(b.Insts) == 0 {
					continue
				}
				for k := range b.Insts {
					if in := &b.Insts[k]; in.I.Op == alpha.OpBsr && !passes(in) {
						continue search
					}
				}
				last := &b.Insts[len(b.Insts)-1]
				op := last.I.Op
				leaves := op == alpha.OpRet || op == alpha.OpJmp ||
					(op == alpha.OpBr || op.IsCondBranch()) && !edgeTo(b, target(last)) ||
					passes(last) && !edgeTo(b, last.Addr+4)
				for _, s := range b.Succs {
					if !valid(pr, s) {
						leaves = true
					} else if !seen[s] {
						seen[s] = true
						work = append(work, s)
					}
				}
				if leaves {
					ret[i] = true
					changed = true
					break
				}
			}
		}
	}
	for _, pr := range procs {
		if nb := len(pr.Blocks); nb > 0 {
			if last := pr.Blocks[nb-1].Insts; len(last) > 0 {
				if in := &last[len(last)-1]; passes(in) {
					mark(pr.Addr + pr.Size)
				}
			}
		}
	}

	sol := refSolution{
		in:      map[*om.Inst]om.RegSet{},
		out:     map[*om.Inst]om.RegSet{},
		entry:   make([]om.RegSet, n),
		entered: make([]bool, n),
	}
	for i := range sol.entered {
		sol.entered[i] = fixed[i] || called[i]
	}
	exit := make([]om.RegSet, n)
	for j := range exit {
		if fixed[j] {
			exit[j] = allLive
		}
	}
	all := AllRegs()
	empty := map[*om.Block]om.RegSet{} // live sets of blocks without instructions
	blockIn := func(b *om.Block) om.RegSet {
		if len(b.Insts) > 0 {
			return sol.in[&b.Insts[0]]
		}
		return empty[b]
	}
	entryOf := func(addr uint64) (om.RegSet, bool) {
		if j := startOf(addr); j >= 0 {
			return sol.entry[j], true
		}
		return all, false
	}
	update := func(m map[*om.Inst]om.RegSet, in *om.Inst, v om.RegSet, changed *bool) {
		if old, ok := m[in]; !ok || old != v {
			m[in] = v
			*changed = true
		}
	}
	var buf [2]alpha.Reg
	for changed := true; changed; {
		changed = false
		for i, pr := range procs {
			for _, b := range pr.Blocks {
				// The block's live-out: its successors, then what its
				// last instruction transfers to without a CFG edge.
				var end om.RegSet
				for _, s := range b.Succs {
					if valid(pr, s) {
						end |= blockIn(s)
					} else {
						end |= all
					}
				}
				cont := func(addr uint64) om.RegSet {
					if edgeTo(b, addr) {
						return 0
					}
					e, _ := entryOf(addr)
					return e
				}
				if k := len(b.Insts); k > 0 {
					last := &b.Insts[k-1]
					switch op := last.I.Op; {
					case op == alpha.OpRet:
						end |= exit[i]
					case op == alpha.OpJmp:
						end |= all
					case op.IsCondBranch():
						end |= cont(target(last)) | cont(last.Addr+4)
					case op == alpha.OpBr:
						end |= cont(target(last))
					default:
						end |= cont(last.Addr + 4)
					}
				} else if empty[b] != end {
					empty[b] = end
					changed = true
				}
				v := end
				for k := len(b.Insts) - 1; k >= 0; k-- {
					in := &b.Insts[k]
					update(sol.out, in, v, &changed)
					switch in.I.Op {
					case alpha.OpCallPal:
						if alpha.PalDefined(in.I.PalFn) {
							v = v&^om.RegSet(0).Add(alpha.V0) | om.RegSet(0).Add(alpha.A0).Add(alpha.A1).Add(alpha.A2)
						} else {
							v = all
						}
					case alpha.OpJsr:
						v = all
					case alpha.OpBsr:
						if j := startOf(target(in)); j >= 0 {
							if v&^exit[j] != 0 {
								exit[j] |= v
								changed = true
							}
							v = sol.entry[j] &^ om.RegSet(0).Add(alpha.RA)
						} else {
							v = all
						}
					default:
						if w, ok := in.I.WritesReg(); ok {
							v &^= om.RegSet(0).Add(w)
						}
						for _, r := range in.I.ReadsRegs(buf[:0]) {
							v = v.Add(r)
						}
					}
					update(sol.in, in, v, &changed)
				}
			}
			if len(pr.Blocks) > 0 {
				if e := blockIn(pr.Blocks[0]); e != sol.entry[i] {
					sol.entry[i] = e
					changed = true
				}
			}
		}
	}
	return sol
}

// checkAgainstRef compares ComputeCtx and Entered with refSolve on p,
// querying the instructions in the given order (program order when nil).
// It returns a description of the first difference, "" when none.
func checkAgainstRef(p *om.Program, order []int) string {
	lv := ComputeCtx(nil, p)
	ref := refSolve(p)
	var all []*om.Inst
	for i, pr := range p.Procs {
		if got, want := lv.EntryLive(pr.Name), ref.entry[i]; got != want {
			return fmt.Sprintf("EntryLive(%s) = %v, want %v", pr.Name, got.Regs(), want.Regs())
		}
		for _, b := range pr.Blocks {
			for k := range b.Insts {
				all = append(all, &b.Insts[k])
			}
		}
	}
	for _, k := range order {
		if k < len(all) {
			all[0], all[k] = all[k], all[0]
		}
	}
	for _, in := range all {
		if got, want := lv.LiveIn(in), ref.in[in]; got != want {
			return fmt.Sprintf("LiveIn(%#x %v) = %v, want %v", in.Addr, in.I, got.Regs(), want.Regs())
		}
		if got, want := lv.LiveOut(in), ref.out[in]; got != want {
			return fmt.Sprintf("LiveOut(%#x %v) = %v, want %v", in.Addr, in.I, got.Regs(), want.Regs())
		}
	}
	for i, e := range Entered(p) {
		if e != ref.entered[i] {
			return fmt.Sprintf("Entered(%s) = %v, want %v", p.Procs[i].Name, e, ref.entered[i])
		}
	}
	return ""
}

// genStream hands out the bytes that drive genProgram, zeros once they
// run out.
type genStream struct {
	b []byte
	k int
}

// pick returns a choice in [0, n).
func (s *genStream) pick(n int) int {
	if s.k >= len(s.b) {
		return 0
	}
	v := int(s.b[s.k])
	s.k++
	return v % n
}

// Fn is one procedure of a test program: a function symbol over its
// instructions. A Fn without instructions is a zero-size symbol: an alias
// of the procedure after it, or a procedure at the end of text.
type Fn struct {
	Name  string
	Insts []alpha.Inst
}

// Link encodes fns one after another from textAddr into the text of a
// linked executable, symbol i naming fns[i] (what a relocation's Sym
// indexes), with the given entry point and relocations, and lifts it.
func Link(textAddr, entry uint64, relocs []aout.Reloc, fns ...Fn) (*om.Program, error) {
	exe := &aout.File{Linked: true, TextAddr: textAddr, Entry: entry, Relocs: relocs}
	for _, f := range fns {
		addr := textAddr + uint64(len(exe.Text))
		for _, in := range f.Insts {
			w, err := in.Encode()
			if err != nil {
				return nil, fmt.Errorf("%s: %v", f.Name, err)
			}
			exe.Text = binary.LittleEndian.AppendUint32(exe.Text, w)
		}
		exe.Symbols = append(exe.Symbols, aout.Symbol{
			Name: f.Name, Kind: aout.SymFunc, Section: aout.SecText,
			Value: addr, Size: 4 * uint64(len(f.Insts)), Global: true,
		})
	}
	return om.BuildCtx(nil, exe)
}

// genProgram builds a linked executable from data and lifts it: two to
// seven procedures of one to twelve instructions drawn from operates,
// loads and stores over a few registers, conditional and unconditional
// branches inside the procedure, branches to another procedure's start
// or middle, calls (recursion included) to procedure starts, into
// procedures' middles and outside text, jsr, defined and undefined
// call_pal, ret and jmp; a procedure whose last instruction does not
// transfer falls into the next. Some programs take a procedure's address
// through a relocation, name a procedure twice with a zero-size alias, or
// end with a zero-size procedure.
func genProgram(data []byte) (*om.Program, error) {
	s := &genStream{b: data}
	const textAddr = 0x120000000
	regs := []alpha.Reg{alpha.V0, alpha.T0, alpha.T1, alpha.T2, alpha.A0, alpha.A1, alpha.A2, alpha.S0, alpha.RA, alpha.Zero}
	reg := func() alpha.Reg { return regs[s.pick(len(regs))] }
	nprocs := 2 + s.pick(6)
	starts := make([]uint64, nprocs+1)
	starts[0] = textAddr
	for i := 0; i < nprocs; i++ {
		starts[i+1] = starts[i] + 4*uint64(1+s.pick(12))
	}
	end := starts[nprocs]
	disp := func(from, to uint64) int32 { return int32((int64(to) - int64(from) - 4) / 4) }
	inProc := func(i int) uint64 { return starts[i] + 4*uint64(s.pick(int(starts[i+1]-starts[i])/4)) }
	fns := make([]Fn, nprocs)
	for i := range fns {
		fns[i].Name = fmt.Sprintf("p%d", i)
		for a := starts[i]; a < starts[i+1]; a += 4 {
			var in alpha.Inst
			ops := []alpha.Op{alpha.OpAddq, alpha.OpSubq, alpha.OpBis, alpha.OpCmoveq, alpha.OpCmplt}
			switch s.pick(18) {
			case 0, 1, 2:
				in = alpha.RR(ops[s.pick(len(ops))], reg(), reg(), reg())
			case 3:
				in = alpha.RI(ops[s.pick(len(ops))], reg(), uint8(s.pick(256)), reg())
			case 4:
				in = alpha.Mem(alpha.OpLdq, reg(), reg(), 8)
			case 5:
				in = alpha.Mem(alpha.OpStq, reg(), reg(), 16)
			case 6, 7:
				in = alpha.Br([]alpha.Op{alpha.OpBeq, alpha.OpBne, alpha.OpBlt}[s.pick(3)], reg(), disp(a, inProc(i)))
			case 8:
				in = alpha.Br(alpha.OpBr, alpha.Zero, disp(a, inProc(i)))
			case 9:
				j := s.pick(nprocs)
				t := starts[j]
				if s.pick(2) == 0 {
					t = inProc(j)
				}
				in = alpha.Br([]alpha.Op{alpha.OpBr, alpha.OpBne}[s.pick(2)], reg(), disp(a, t))
			case 10, 11:
				in = alpha.Br(alpha.OpBsr, alpha.RA, disp(a, starts[s.pick(nprocs)]))
			case 12:
				t := inProc(s.pick(nprocs))
				if s.pick(3) == 0 {
					t = end + 4*uint64(s.pick(3)) // past text, or its end
				}
				in = alpha.Br(alpha.OpBsr, alpha.RA, disp(a, t))
			case 13:
				in = alpha.Inst{Op: alpha.OpJsr, Ra: alpha.RA, Rb: reg()}
			case 14:
				fn := uint32(s.pick(alpha.PalSbrk2 + 1))
				if s.pick(3) == 0 {
					fn = 0x3f
				}
				in = alpha.Inst{Op: alpha.OpCallPal, PalFn: fn}
			case 15, 16:
				in = alpha.Inst{Op: alpha.OpRet, Ra: alpha.Zero, Rb: alpha.RA}
			case 17:
				in = alpha.Inst{Op: alpha.OpJmp, Ra: alpha.Zero, Rb: reg()}
			}
			fns[i].Insts = append(fns[i].Insts, in)
		}
	}
	entry := starts[s.pick(nprocs)]
	var relocs []aout.Reloc
	if s.pick(3) == 0 {
		relocs = append(relocs, aout.Reloc{Section: aout.SecData, Type: aout.RelQuad, Sym: s.pick(nprocs)})
	}
	if s.pick(4) == 0 {
		// The alias goes in front of the procedure it names.
		j := s.pick(nprocs)
		fns = slices.Insert(fns, j, Fn{Name: "alias"})
		for k := range relocs {
			if relocs[k].Sym >= j {
				relocs[k].Sym++
			}
		}
	}
	if s.pick(4) == 0 {
		fns = append(fns, Fn{Name: "tail"})
	}
	return Link(textAddr, entry, relocs, fns...)
}

// TestLivenessMatchesReference is the property test: on generated
// multi-procedure programs, every instruction's LiveIn and LiveOut, every
// EntryLive and Entered equal the naive reference solver's, queried in a
// scrambled order.
func TestLivenessMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 3000
	if testing.Short() {
		n = 300
	}
	data := make([]byte, 256)
	for k := 0; k < n; k++ {
		r.Read(data)
		p, err := genProgram(data)
		if err != nil {
			t.Fatalf("program %d: %v", k, err)
		}
		if msg := checkAgainstRef(p, []int{int(data[0]), int(data[1]), int(data[2])}); msg != "" {
			t.Fatalf("program %d (bytes %x): %s", k, data, msg)
		}
	}
}

// FuzzLiveness is TestLivenessMatchesReference under coverage-guided
// fuzzing: the bytes choose the program.
func FuzzLiveness(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 5, 5, 10, 0, 11, 1, 15, 6, 2, 9, 0, 0, 14, 7, 16, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := genProgram(data)
		if err != nil {
			t.Fatal(err)
		}
		if msg := checkAgainstRef(p, []int{len(data), len(data) / 2}); msg != "" {
			t.Fatal(msg)
		}
	})
}
