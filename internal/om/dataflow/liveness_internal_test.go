package dataflow

import (
	"testing"

	"atom/internal/alpha"
	"atom/internal/om"
	"atom/internal/spec"
)

// TestInstTransferAllocs pins the per-instruction transfer allocation-
// free: it runs for every instruction on every solver pass.
func TestInstTransferAllocs(t *testing.T) {
	entryOf := func(uint64) (om.RegSet, bool) { return 0, false }
	for _, tc := range []struct {
		name string
		i    alpha.Inst
	}{
		{"memory", alpha.Mem(alpha.OpStq, alpha.T0, alpha.SP, 8)},
		{"operate", alpha.RR(alpha.OpAddq, alpha.T0, alpha.T1, alpha.T2)},
		{"branch", alpha.Br(alpha.OpBeq, alpha.T3, 4)},
	} {
		in := &om.Inst{I: tc.i, Addr: 0x1000}
		var sink Transfer
		if n := testing.AllocsPerRun(100, func() { sink = instTransfer(in, entryOf) }); n != 0 {
			t.Errorf("instTransfer(%s) allocates %v times per call", tc.name, n)
		}
		if sink.Gen == 0 {
			t.Errorf("instTransfer(%s) reads no registers", tc.name)
		}
	}
}

func TestConservativeCallerSaveAllocs(t *testing.T) {
	var sink om.RegSet
	if n := testing.AllocsPerRun(100, func() { sink = ConservativeCallerSave() }); n != 0 {
		t.Errorf("ConservativeCallerSave allocates %v times per call", n)
	}
	if sink != om.AllCallerSave() {
		t.Error("ConservativeCallerSave differs from om.AllCallerSave")
	}
}

// materialized is the per-instruction solution as a map: what Liveness
// stored for every instruction before it kept only the block solution.
type materialized struct {
	in, out map[*om.Inst]om.RegSet
	entry   map[string]om.RegSet
	edges   int
	rounds  int
}

// materialize solves the program with the same procedure worklist, then
// visits every instruction of every procedure against its final state,
// rets reading their procedure's exit summary.
func materialize(p *om.Program) materialized {
	s := newLiveSolver(p)
	s.run()
	m := materialized{
		in:     map[*om.Inst]om.RegSet{},
		out:    map[*om.Inst]om.RegSet{},
		entry:  map[string]om.RegSet{},
		rounds: s.lv.Rounds,
	}
	for pi, pr := range p.Procs {
		s.cur = pi
		m.entry[pr.Name] = s.lv.entrySum[pi]
		s.VisitProc(pr, s.state[pi], func(in *om.Inst, before, after om.RegSet) {
			m.in[in] = before
			m.out[in] = after
		})
	}
	m.edges = s.Edges
	return m
}

// TestLivenessMatchesMaterialized holds the on-demand queries to the
// fully materialized per-instruction solution on real programs: every
// instruction's LiveIn/LiveOut, every entry summary, and the Rounds and
// Edges counters.
func TestLivenessMatchesMaterialized(t *testing.T) {
	var other *om.Inst
	for _, name := range []string{"gcc", "compress", "li", "queens"} {
		exe, err := spec.BuildCtx(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := om.BuildCtx(nil, exe)
		if err != nil {
			t.Fatal(err)
		}
		lv := ComputeCtx(nil, p)
		ref := materialize(p)
		if lv.Rounds != ref.rounds || lv.Edges != ref.edges {
			t.Errorf("%s: rounds/edges = %d/%d, want %d/%d", name, lv.Rounds, lv.Edges, ref.rounds, ref.edges)
		}
		for _, pr := range p.Procs {
			if got, want := lv.EntryLive(pr.Name), ref.entry[pr.Name]; got != want {
				t.Errorf("%s: EntryLive(%s) = %v, want %v", name, pr.Name, got.Regs(), want.Regs())
			}
			for _, b := range pr.Blocks {
				for _, in := range b.Insts {
					if got, want := lv.LiveIn(in), ref.in[in]; got != want {
						t.Fatalf("%s: LiveIn(%#x) = %v, want %v", name, in.Addr, got.Regs(), want.Regs())
					}
					if got, want := lv.LiveOut(in), ref.out[in]; got != want {
						t.Fatalf("%s: LiveOut(%#x) = %v, want %v", name, in.Addr, got.Regs(), want.Regs())
					}
				}
			}
		}
		// An instruction of another program is unknown here.
		if other != nil {
			if lv.LiveIn(other) != allLive || lv.LiveOut(other) != allLive {
				t.Errorf("%s: instruction of another program not all-live", name)
			}
		}
		other = p.Procs[0].Blocks[0].Insts[0]
		if n := testing.AllocsPerRun(10, func() { lv.LiveIn(other) }); n != 0 {
			t.Errorf("%s: a LiveIn query allocates %v times", name, n)
		}
	}
}

// roundRobin solves liveness the slow way, as an independent check of
// the procedure worklist: every round re-solves every procedure and
// recomputes every exit summary from scratch over all call sites, until
// a round changes nothing. It returns each instruction's live-in and
// live-out.
func roundRobin(p *om.Program) (in, out map[*om.Inst]om.RegSet) {
	s := newLiveSolver(p)
	lv := s.lv
	for changed := true; changed; {
		changed = false
		for i, pr := range p.Procs {
			s.cur = i
			s.SolveProc(pr, s.state[i])
			if len(s.state[i]) > 0 && s.state[i][0] != lv.entrySum[i] {
				lv.entrySum[i] = s.state[i][0]
				changed = true
			}
		}
		exit := make([]om.RegSet, len(p.Procs))
		for j, fixed := range s.fixedExit {
			if fixed {
				exit[j] = allLive
			}
		}
		for i, pr := range p.Procs {
			s.cur = i
			s.VisitProc(pr, s.state[i], func(in *om.Inst, _, after om.RegSet) {
				if in.I.Op != alpha.OpBsr {
					return
				}
				if j, ok := lv.procStart[branchTarget(in)]; ok {
					exit[j] |= after
				}
			})
		}
		for j := range exit {
			if exit[j] != lv.exitSum[j] {
				lv.exitSum[j] = exit[j]
				changed = true
			}
		}
	}
	in, out = map[*om.Inst]om.RegSet{}, map[*om.Inst]om.RegSet{}
	for i, pr := range p.Procs {
		s.cur = i
		s.VisitProc(pr, s.state[i], func(inst *om.Inst, before, after om.RegSet) {
			in[inst], out[inst] = before, after
		})
	}
	return in, out
}

// TestLivenessWorklistMatchesRoundRobin holds the procedure worklist to
// the round-robin fixpoint on real programs: the same least solution at
// every instruction.
func TestLivenessWorklistMatchesRoundRobin(t *testing.T) {
	for _, name := range []string{"gcc", "compress", "li", "queens"} {
		exe, err := spec.BuildCtx(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := om.BuildCtx(nil, exe)
		if err != nil {
			t.Fatal(err)
		}
		lv := ComputeCtx(nil, p)
		in, out := roundRobin(p)
		for _, pr := range p.Procs {
			for _, b := range pr.Blocks {
				for _, inst := range b.Insts {
					if got := lv.LiveIn(inst); got != in[inst] {
						t.Fatalf("%s: LiveIn(%#x) = %v, round robin %v", name, inst.Addr, got.Regs(), in[inst].Regs())
					}
					if got := lv.LiveOut(inst); got != out[inst] {
						t.Fatalf("%s: LiveOut(%#x) = %v, round robin %v", name, inst.Addr, got.Regs(), out[inst].Regs())
					}
				}
			}
		}
	}
}
