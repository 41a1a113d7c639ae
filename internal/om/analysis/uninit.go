package analysis

import (
	"fmt"
	"strings"

	"atom/internal/alpha"
	"atom/internal/obs"
	"atom/internal/om"
	"atom/internal/om/dataflow"
)

// uninitPass is a forward may-reaching-definitions analysis that flags
// reads of temporaries no definition can reach: a register is "defined"
// at a point if SOME path to it writes the register, so a read is
// flagged only when NO path provides a value — the defect class, not the
// style lint. It runs on the generic dataflow engine as a Forward
// Problem whose values are the may-defined register sets.
//
// Only the scratch registers with no defined value at procedure entry
// are tracked: v0, t0–t11, and at. Arguments (a0–a5), the callee-save
// registers, and the linkage registers (ra, pv, gp, sp) all carry
// caller-provided values at entry by convention, so reading them cold is
// legitimate. Every call (bsr, jsr, call_pal) conservatively defines
// everything — the callee's writes are unknown — and blocks with no
// intra-procedure predecessors other than the entry block (unreachable
// code, or code entered by a cross-procedure branch) are assumed
// all-defined rather than guessed at.
//
// In a tool image the generated register-save wrappers (atom$w$*) are
// entered straight from instrumentation sites, where the application's
// entire register state is live; they read scratch registers precisely
// to save them. Their entry is therefore all-defined.

// uninitTracked is the register set with no defined value at procedure
// entry.
var uninitTracked = func() om.RegSet {
	s := om.RegSet(0).Add(alpha.V0).Add(alpha.AT)
	for r := alpha.T0; r <= alpha.T7; r++ {
		s = s.Add(r)
	}
	for r := alpha.T8; r <= alpha.T11; r++ {
		s = s.Add(r)
	}
	return s
}()

type uninitPass struct{}

func init() { Register(uninitPass{}) }

func (uninitPass) Name() string { return "uninit" }
func (uninitPass) Desc() string {
	return "flag reads of scratch registers that no definition reaches"
}
func (uninitPass) Applies(UnitKind) bool { return true }

func (uninitPass) Run(ctx *obs.Ctx, u *Unit) []Finding {
	all := dataflow.AllRegs()
	entryDefined := all &^ uninitTracked

	var out []Finding
	edges := 0
	for _, pr := range u.Prog.Procs {
		if len(pr.Blocks) == 0 {
			continue
		}
		entry := entryDefined
		if u.Kind == ToolImage && strings.HasPrefix(pr.Name, "atom$w$") {
			entry = all // save wrapper: entered with full application state
		}
		preds := make([]int, len(pr.Blocks))
		for _, b := range pr.Blocks {
			for _, s := range b.Succs {
				if si := s.Index; si >= 0 && si < len(pr.Blocks) && pr.Blocks[si] == s {
					preds[si]++
				}
			}
		}
		sol := &dataflow.Solver{Problem: dataflow.Problem{
			Dir: dataflow.Forward,
			Transfer: func(in *om.Inst) dataflow.Transfer {
				switch in.I.Op {
				case alpha.OpBsr, alpha.OpJsr, alpha.OpCallPal:
					// Unknown callee effects: everything may be defined
					// after the call returns.
					return dataflow.Transfer{Mask: ^om.RegSet(0), Gen: all}
				}
				t := dataflow.Identity()
				if w, ok := in.I.WritesReg(); ok {
					t.Gen = om.RegSet(0).Add(w)
				}
				return t
			},
			Boundary: func(_ *om.Proc, b *om.Block) om.RegSet {
				if b.Index == 0 {
					return entry
				}
				if preds[b.Index] == 0 {
					// No path reaches this block from the entry: assume
					// everything defined rather than report dead code.
					return all
				}
				return 0
			},
		}}
		state := make([]om.RegSet, len(pr.Blocks))
		sol.SolveProc(pr, state)
		name := pr.Name
		var regs []alpha.Reg
		sol.VisitProc(pr, state, func(in *om.Inst, before, _ om.RegSet) {
			regs = in.I.ReadsRegs(regs[:0])
			for _, r := range regs {
				if uninitTracked.Has(r) && !before.Has(r) {
					out = append(out, Finding{
						Pass: "uninit", Sev: Warn, Proc: name, Addr: in.Addr,
						Msg: fmt.Sprintf("%s read but no definition reaches it", r),
					})
				}
			}
		})
		edges += sol.Edges
	}
	ctx.Count("om.analyze.edges", int64(edges))
	return out
}
