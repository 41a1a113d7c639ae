package core

import (
	"fmt"

	"atom/internal/alpha"
	"atom/internal/om"
)

// AddCallProgram inserts a call before the application starts executing
// (ProgramBefore) or after it finishes (ProgramAfter). ProgramBefore
// calls run at the program entry point; ProgramAfter calls run when the
// program reaches exit() — every normal termination path goes through it.
func (q *Instrumentation) AddCallProgram(when When, proc string, args ...any) error {
	p, cargs, err := q.checkCall(proc, nil, args)
	if err != nil {
		return err
	}
	var target *om.Inst
	switch when {
	case ProgramBefore:
		entry := q.prog.InstAt(q.prog.Exe.Entry)
		if entry == nil {
			return fmt.Errorf("atom: program entry point not found")
		}
		target = entry
	case ProgramAfter:
		exitProc := q.prog.Proc("exit")
		if exitProc == nil {
			return fmt.Errorf("atom: ProgramAfter requires an exit procedure in the application")
		}
		// The code a call to exit runs: a zero-size alias of exit has no
		// blocks of its own.
		target = q.prog.InstAt(exitProc.Addr)
		if target == nil {
			return fmt.Errorf("atom: exit procedure at %#x has no instruction", exitProc.Addr)
		}
	default:
		return fmt.Errorf("atom: bad When %d", when)
	}
	r := rankProgramBefore
	if when == ProgramAfter {
		r = rankProgramAfter
	}
	q.journal = append(q.journal, callReq{proto: p, args: cargs, inst: target, rank: r})
	return nil
}

// AddCallProc inserts a call at procedure entry (ProcBefore) or before
// every return from the procedure (ProcAfter).
func (q *Instrumentation) AddCallProc(pr *om.Proc, when When, proc string, args ...any) error {
	p, cargs, err := q.checkCall(proc, nil, args)
	if err != nil {
		return err
	}
	if pr == nil {
		return fmt.Errorf("atom: AddCallProc on nil procedure")
	}
	switch when {
	case ProcBefore:
		// The code a call to pr runs; a zero-size alias has no blocks of
		// its own and enters the procedure that shares its address.
		entry := q.prog.InstAt(pr.Addr)
		if entry == nil {
			return fmt.Errorf("atom: AddCallProc on procedure %q: no instruction at %#x", pr.Name, pr.Addr)
		}
		q.journal = append(q.journal, callReq{proto: p, args: cargs, inst: entry, rank: rankAdded})
	case ProcAfter:
		n := 0
		for _, b := range pr.Blocks {
			last := &b.Insts[len(b.Insts)-1]
			if last.I.Op == alpha.OpRet {
				q.journal = append(q.journal, callReq{proto: p, args: cargs, inst: last, rank: rankAdded})
				n++
			}
		}
		if n == 0 {
			return fmt.Errorf("atom: AddCallProc after %q: procedure has no return", pr.Name)
		}
	default:
		return fmt.Errorf("atom: bad When %d", when)
	}
	return nil
}

// AddCallBlock inserts a call before the block executes (BlockBefore) or
// after its body executes (BlockAfter; placed before the terminating
// control transfer, so it runs regardless of branch direction).
func (q *Instrumentation) AddCallBlock(b *om.Block, when When, proc string, args ...any) error {
	p, cargs, err := q.checkCall(proc, nil, args)
	if err != nil {
		return err
	}
	if b == nil || len(b.Insts) == 0 {
		return fmt.Errorf("atom: AddCallBlock on empty block")
	}
	switch when {
	case BlockBefore:
		q.journal = append(q.journal, callReq{proto: p, args: cargs, inst: &b.Insts[0], rank: rankAdded})
	case BlockAfter:
		last := &b.Insts[len(b.Insts)-1]
		// Before a transfer, which is still "after the block body" and
		// runs regardless of the branch direction.
		q.journal = append(q.journal, callReq{proto: p, args: cargs, inst: last, rank: rankAdded, after: !isTransfer(last.I.Op)})
	default:
		return fmt.Errorf("atom: bad When %d", when)
	}
	return nil
}

// AddCallInst inserts a call before or after one instruction. VALUE
// arguments (EffAddrValue, BrCondValue) are validated against the
// instruction. After placement on a control-transfer instruction is
// rejected (the call would only run on the fallthrough path).
func (q *Instrumentation) AddCallInst(in *om.Inst, when When, proc string, args ...any) error {
	p, cargs, err := q.checkCall(proc, in, args)
	if err != nil {
		return err
	}
	if in == nil {
		return fmt.Errorf("atom: AddCallInst on nil instruction")
	}
	if when == After && isTransfer(in.I.Op) {
		return fmt.Errorf("atom: InstAfter on control-transfer instruction %s at %#x", in.I.Op, in.Addr)
	}
	if when != Before && when != After {
		return fmt.Errorf("atom: bad When %d", when)
	}
	q.journal = append(q.journal, callReq{proto: p, args: cargs, inst: in, rank: rankAdded, after: when == After})
	return nil
}

func isTransfer(op alpha.Op) bool {
	return op.IsCondBranch() || op == alpha.OpBr || op == alpha.OpRet || op == alpha.OpJmp
}

func (q *Instrumentation) checkCall(proc string, in *om.Inst, args []any) (*Proto, []arg, error) {
	p, ok := q.protos[proc]
	if !ok {
		return nil, nil, fmt.Errorf("atom: no prototype for analysis procedure %q (AddCallProto it first)", proc)
	}
	cargs, err := q.convertArgs(p, in, args)
	if err != nil {
		return nil, nil, err
	}
	return p, cargs, nil
}
