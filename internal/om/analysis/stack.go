package analysis

import (
	"fmt"

	"atom/internal/alpha"
	"atom/internal/obs"
	"atom/internal/om"
)

// stackPass verifies that every procedure keeps a balanced, bounded
// stack: the only audited stack-pointer writes are `lda sp, d(sp)`
// adjustments (the idiom both the MiniC compiler, `atom cc`, and the
// hand-written runtime use), every path reaching a ret must be back at
// the entry height, joins must agree on the height, and the frame must
// stay below the caller's and within a sane bound. Heights are
// propagated forward over the CFG from the entry block by a plain
// integer worklist — the lattice is not a register set, so this pass
// does not use the generic engine — and blocks the entry cannot reach
// are left unchecked rather than guessed at.

// maxFrame bounds a single procedure's net frame size; anything larger
// is a runaway adjustment, not a frame.
const maxFrame = 1 << 20

type stackPass struct{}

func init() { Register(stackPass{}) }

func (stackPass) Name() string { return "stackheight" }
func (stackPass) Desc() string {
	return "verify balanced, bounded stack adjustments per procedure"
}
func (stackPass) Applies(UnitKind) bool { return true }

func (stackPass) Run(ctx *obs.Ctx, u *Unit) []Finding {
	var out []Finding
	for _, pr := range u.Prog.Procs {
		out = append(out, stackCheckProc(pr)...)
	}
	return out
}

// spDelta classifies an instruction's effect on sp: ok reports whether
// the write (if any) is auditable. Instructions that do not write sp are
// (0, true).
func spDelta(in *om.Inst) (delta int64, ok bool) {
	w, writes := in.I.WritesReg()
	if !writes || w != alpha.SP {
		return 0, true
	}
	if in.I.Op == alpha.OpLda && in.I.Rb == alpha.SP {
		return int64(in.I.Disp), true
	}
	return 0, false
}

func stackCheckProc(pr *om.Proc) []Finding {
	var out []Finding
	warn := func(addr uint64, format string, args ...any) {
		out = append(out, Finding{Pass: "stackheight", Sev: Warn, Proc: pr.Name, Addr: addr, Msg: fmt.Sprintf(format, args...)})
	}

	// An unauditable sp write poisons the whole procedure: heights after
	// it are unknowable, so report it and check nothing else.
	for _, b := range pr.Blocks {
		for k := range b.Insts {
			in := &b.Insts[k]
			if _, ok := spDelta(in); !ok {
				warn(in.Addr, "unauditable stack-pointer write (%s)", in.I)
				return out
			}
		}
	}

	n := len(pr.Blocks)
	if n == 0 {
		return out
	}
	entryH := make([]int64, n)
	seen := make([]bool, n)
	seen[0] = true
	work := []int{0}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		b := pr.Blocks[bi]
		h := entryH[bi]
		for k := range b.Insts {
			in := &b.Insts[k]
			d, _ := spDelta(in)
			h += d
			if h > 0 {
				warn(in.Addr, "stack height %d above the caller's frame", h)
				return out // everything downstream is wrong the same way
			}
			if h < -maxFrame {
				warn(in.Addr, "frame larger than %d bytes (height %d)", maxFrame, h)
				return out
			}
			switch {
			case in.I.Op == alpha.OpRet && h != 0:
				out = append(out, Finding{Pass: "stackheight", Sev: Error, Proc: pr.Name, Addr: in.Addr,
					Msg: fmt.Sprintf("returns with unbalanced stack height %d", h)})
			case in.I.Op == alpha.OpBr && h != 0:
				// A branch leaving the procedure is a tail transfer; the
				// target expects the caller's height.
				t := in.Addr + 4 + uint64(int64(in.I.Disp)*4)
				if t < pr.Addr || t >= pr.Addr+pr.Size {
					warn(in.Addr, "leaves the procedure with stack height %d", h)
				}
			}
		}
		for _, s := range b.Succs {
			si := s.Index
			if si < 0 || si >= n || pr.Blocks[si] != s {
				continue
			}
			if !seen[si] {
				seen[si] = true
				entryH[si] = h
				work = append(work, si)
			} else if entryH[si] != h {
				addr := pr.Addr
				if len(s.Insts) > 0 {
					addr = s.Insts[0].Addr
				}
				warn(addr, "inconsistent stack height at join (%d vs %d)", entryH[si], h)
				return out
			}
		}
	}
	return out
}
