package dataflow

import (
	"math/rand"
	"testing"

	"atom/internal/alpha"
	"atom/internal/om"
	"atom/internal/spec"
)

// TestInstTransferAllocs pins the per-instruction transfer allocation-
// free: it runs for every instruction the graph composes and every
// instruction a query walks.
func TestInstTransferAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		i    alpha.Inst
	}{
		{"memory", alpha.Mem(alpha.OpStq, alpha.T0, alpha.SP, 8)},
		{"operate", alpha.RR(alpha.OpAddq, alpha.T0, alpha.T1, alpha.T2)},
		{"branch", alpha.Br(alpha.OpBeq, alpha.T3, 4)},
	} {
		var sink Transfer
		if n := testing.AllocsPerRun(100, func() { sink = instTransfer(&tc.i) }); n != 0 {
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
// walks every block of every procedure backward from its final live-out,
// one instruction at a time: a resolved bsr found by its target rather
// than the graph's call table.
func materialize(p *om.Program) materialized {
	s := newLiveSolver(p)
	s.run()
	m := materialized{
		in:     map[*om.Inst]om.RegSet{},
		out:    map[*om.Inst]om.RegSet{},
		entry:  map[string]om.RegSet{},
		rounds: s.Rounds,
	}
	for i, pr := range p.Procs {
		m.entry[pr.Name] = s.entry[i]
		for bi, b := range pr.Blocks {
			v := s.out(int(s.first[i])+bi, i)
			for k := len(b.Insts) - 1; k >= 0; k-- {
				in := &b.Insts[k]
				m.out[in] = v
				if _, j := p.Resolve(branchTarget(in)); j >= 0 && in.I.Op == alpha.OpBsr {
					v = s.entry[j] &^ raBit
				} else {
					v = instTransfer(&in.I).Apply(v)
				}
				m.in[in] = v
			}
		}
	}
	m.edges = s.Edges
	return m
}

// TestLivenessMatchesMaterialized holds the on-demand queries to the
// fully materialized per-instruction solution on real programs: every
// instruction's LiveIn/LiveOut, asked in program order and again in a
// shuffled order (so a query rarely lands in the block the last one
// walked), every entry summary, and the Rounds and Edges counters. The
// solver's block numbers are the lift's.
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
		var all []*om.Inst
		for i, pr := range p.Procs {
			if got, want := lv.EntryLive(pr.Name), ref.entry[pr.Name]; got != want {
				t.Errorf("%s: EntryLive(%s) = %v, want %v", name, pr.Name, got.Regs(), want.Regs())
			}
			for bi, b := range pr.Blocks {
				k, _ := p.Slot(&b.Insts[0])
				if _, g := p.BlockAt(k); g != int(lv.g.first[i])+bi {
					t.Fatalf("%s: %s block %d is block %d of the lift, %d of the solver", name, pr.Name, bi, g, int(lv.g.first[i])+bi)
				}
				for k := range b.Insts {
					all = append(all, &b.Insts[k])
				}
			}
		}
		check := func(order string) {
			for _, in := range all {
				if got, want := lv.LiveIn(in), ref.in[in]; got != want {
					t.Fatalf("%s, %s: LiveIn(%#x) = %v, want %v", name, order, in.Addr, got.Regs(), want.Regs())
				}
				if got, want := lv.LiveOut(in), ref.out[in]; got != want {
					t.Fatalf("%s, %s: LiveOut(%#x) = %v, want %v", name, order, in.Addr, got.Regs(), want.Regs())
				}
			}
		}
		check("program order")
		rand.New(rand.NewSource(1)).Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
		check("shuffled")
		// An instruction of another program is unknown here.
		if other != nil {
			if lv.LiveIn(other) != allLive || lv.LiveOut(other) != allLive {
				t.Errorf("%s: instruction of another program not all-live", name)
			}
		}
		other = &p.Procs[0].Blocks[0].Insts[0]
		first, last := all[0], all[len(all)-1]
		if n := testing.AllocsPerRun(10, func() { lv.LiveIn(first); lv.LiveOut(last) }); n != 0 {
			t.Errorf("%s: a LiveIn query allocates %v times", name, n)
		}
	}
}

// TestLivenessWorklistMatchesRoundRobin holds the solver to the naive
// reference solver (refSolve) on real programs: the same least solution
// at every instruction and the same entry summaries.
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
		if err := checkAgainstRef(p, nil); err != "" {
			t.Fatalf("%s: %s", name, err)
		}
	}
}
