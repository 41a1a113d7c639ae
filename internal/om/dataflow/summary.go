// Package dataflow implements reusable register data-flow passes over the
// OM intermediate representation: the interprocedural modified-register
// summary ATOM uses to size wrapper save sets (paper, Section 4,
// "Reducing Procedure Call Overhead") and the backward register-liveness
// analysis that refines per-site save sets to live ∩ modified — the
// refinement the paper names as the natural next step ("Only the live
// registers need to be saved and restored to preserve the state of the
// program execution").
//
// Both passes share one model of the unknown: a call whose callee cannot
// be resolved (jsr, bsr into the middle of another procedure) clobbers —
// and may read — ConservativeCallerSave. Keeping that set in one place
// guarantees the two analyses cannot drift apart: a register the summary
// assumes clobbered by an indirect call is exactly a register the
// liveness pass keeps alive across one.
package dataflow

import (
	"atom/internal/alpha"
	"atom/internal/obs"
	"atom/internal/om"
)

// ConservativeCallerSave is the register set assumed clobbered by — and
// readable from — a call whose callee is unknown: every caller-save
// register. The modified-register summary and the liveness analysis both
// derive their unknown-callee behavior from this single definition; a
// test pins it against om.AllCallerSave.
func ConservativeCallerSave() om.RegSet { return om.AllCallerSave() }

// ModifiedRegsCtx computes, for every procedure, the set of caller-save
// registers that may be modified when control reaches it — the data-flow
// summary information ATOM uses to minimize register saves around calls
// into analysis routines (paper, Section 4, "Reducing Procedure Call
// Overhead"). The analysis is an interprocedural fixpoint over the call
// graph; indirect calls (jsr) are assumed to clobber
// ConservativeCallerSave, and CALL_PAL services clobber v0. The fixpoint
// runs under an "om.summary" span annotated with the number of
// iterations the call-graph propagation took to converge.
func ModifiedRegsCtx(ctx *obs.Ctx, p *om.Program) map[string]om.RegSet {
	_, sp := ctx.Start("om.summary", obs.Int("procs", int64(len(p.Procs))))
	defer sp.End()
	direct := make([]om.RegSet, len(p.Procs))
	calls := make([][]int, len(p.Procs)) // proc index -> callee proc indices
	anyIndirect := make([]bool, len(p.Procs))

	for i, pr := range p.Procs {
		for _, b := range pr.Blocks {
			for _, in := range b.Insts {
				if w, ok := in.I.WritesReg(); ok && w.IsCallerSave() {
					direct[i] = direct[i].Add(w)
				}
				switch in.I.Op {
				case alpha.OpBsr:
					target := in.Addr + 4 + uint64(int64(in.I.Disp)*4)
					if c, j := p.Resolve(target); j >= 0 {
						calls[i] = append(calls[i], j)
					} else if c >= 0 && c != i {
						// bsr into the middle of another procedure:
						// treat conservatively.
						anyIndirect[i] = true
					}
				case alpha.OpJsr:
					anyIndirect[i] = true
				case alpha.OpCallPal:
					direct[i] = direct[i].Add(alpha.V0)
				case alpha.OpBr:
					// A cross-procedure br is a tail transfer; treat the
					// target procedure as a callee.
					target := in.Addr + 4 + uint64(int64(in.I.Disp)*4)
					if c, _ := p.Resolve(target); c >= 0 && c != i {
						calls[i] = append(calls[i], c)
					}
				}
			}
		}
	}

	mod := make([]om.RegSet, len(p.Procs))
	copy(mod, direct)
	all := ConservativeCallerSave()
	for i := range mod {
		if anyIndirect[i] {
			mod[i] = all
		}
	}
	rounds := 0
	for changed := true; changed; {
		changed = false
		rounds++
		for i := range p.Procs {
			s := mod[i]
			for _, c := range calls[i] {
				s = s.Union(mod[c])
			}
			if s != mod[i] {
				mod[i] = s
				changed = true
			}
		}
	}
	sp.SetAttr(obs.Int("rounds", int64(rounds)))

	out := make(map[string]om.RegSet, len(p.Procs))
	for i, pr := range p.Procs {
		out[pr.Name] = mod[i]
	}
	return out
}
