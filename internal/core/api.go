package core

import (
	"fmt"
	"reflect"
	"strings"

	"atom/internal/alpha"
	"atom/internal/om"
)

// ParamKind is the type of one analysis-procedure parameter, as declared
// in an AddCallProto prototype.
type ParamKind int

const (
	ParamInt    ParamKind = iota // "int" or "long": a 64-bit integer
	ParamString                  // "char*": address of a constant string
	ParamValue                   // "VALUE": EffAddrValue or BrCondValue
	ParamRegV                    // "REGV": run-time contents of a register
	ParamArray                   // "long*": address of a constant array
)

// Proto is a declared analysis-procedure prototype.
type Proto struct {
	Name   string
	Params []ParamKind

	wrapper string // WrapperName(Name), named once for all its sites
}

// Value selects one of the run-time VALUE argument kinds (paper,
// Section 3): the memory address referenced by a load/store, or the
// outcome of a conditional branch.
type Value int

const (
	// EffAddrValue passes the effective memory address of a load or
	// store instruction.
	EffAddrValue Value = iota
	// BrCondValue passes zero if the conditional branch falls through
	// and non-zero if it is taken.
	BrCondValue
)

// RegV requests the run-time contents of a register as an argument.
type RegV alpha.Reg

// Array passes a constant array: ATOM materializes it in the analysis
// data section and passes its address (the paper: "ATOM allows passing
// of arrays as arguments").
type Array []int64

// Placement constants mirror the paper's API.
type When int

const (
	Before When = iota
	After
)

// Aliases matching the paper's names.
const (
	ProgramBefore = Before
	ProgramAfter  = After
	ProcBefore    = Before
	ProcAfter     = After
	BlockBefore   = Before
	BlockAfter    = After
	InstBefore    = Before
	InstAfter     = After
)

// InstType classifies instructions for IsInstType.
type InstType int

const (
	InstTypeCondBr InstType = iota
	InstTypeUncondBr
	InstTypeLoad
	InstTypeStore
	InstTypeCall
	InstTypeRet
	InstTypeJump
	InstTypePal
)

// Instrumentation is the handle passed to a tool's instrumentation
// routine: program traversal, queries, and call insertion.
type Instrumentation struct {
	prog   *om.Program
	protos map[string]*Proto

	// The journal preserves the exact order in which calls were added:
	// "if more than one procedure is to be called at a point, the calls
	// are made in the order in which they were added".
	journal []callReq
	// argBuf backs every journal entry's args: each call's arguments are
	// a capacity-limited window of it, so a plan allocates per growth of
	// this slice, not per call.
	argBuf []arg

	// Constant data passed by address (strings, arrays), materialized
	// into the analysis image.
	consts []constBlob

	args []string // tool command-line arguments (iargc/iargv)
}

// callReq is one call insertion, lowered onto the instruction it is
// spliced at.
type callReq struct {
	proto *Proto
	args  []arg
	inst  *om.Inst // target instruction (lowered for all levels)
	rank  rank     // splice order among the calls at inst
	after bool     // spliced after inst rather than before it
}

// rank orders the calls spliced at one instruction: they run in the
// order they were added, except that ProgramBefore calls always precede
// and ProgramAfter calls always follow the rest.
type rank uint8

const (
	rankProgramBefore rank = iota
	rankAdded
	rankProgramAfter
)

type argKind uint8

const (
	argConst argKind = iota
	argRegV
	argEffAddr
	argBrCond
	argBlobAddr // address of a constant blob in the analysis data
)

type arg struct {
	num  int64 // argConst
	blob int32 // argBlobAddr: index into consts
	kind argKind
	reg  alpha.Reg // argRegV
}

type constBlob struct {
	label string
	data  []byte
}

// NewInstrumentation wraps a program IR in the traversal/query API
// without starting an instrumentation run — useful for program analyses
// that only inspect (the pipe tool's static scheduler, for example).
func NewInstrumentation(prog *om.Program) *Instrumentation {
	return &Instrumentation{prog: prog, protos: map[string]*Proto{}}
}

// Args returns the tool arguments passed through the atom command line
// (the paper's iargc/iargv).
func (q *Instrumentation) Args() []string { return q.args }

// Program traversal, paper style.

// GetFirstProc returns the first procedure of the program.
func (q *Instrumentation) GetFirstProc() *om.Proc {
	if len(q.prog.Procs) == 0 {
		return nil
	}
	return q.prog.Procs[0]
}

// GetNextProc returns the procedure after p, or nil.
func (q *Instrumentation) GetNextProc(p *om.Proc) *om.Proc {
	if p == nil || p.Index+1 >= len(q.prog.Procs) {
		return nil
	}
	return q.prog.Procs[p.Index+1]
}

// GetFirstBlock returns the first basic block of p.
func (q *Instrumentation) GetFirstBlock(p *om.Proc) *om.Block {
	if p == nil || len(p.Blocks) == 0 {
		return nil
	}
	return p.Blocks[0]
}

// GetNextBlock returns the block after b within its procedure, or nil.
func (q *Instrumentation) GetNextBlock(b *om.Block) *om.Block {
	if b == nil {
		return nil
	}
	// A procedure's blocks tile its text, so the next block starts in
	// the slot after b's last instruction; it follows b in b's procedure
	// if its index does.
	k, ok := q.prog.Slot(&b.Insts[len(b.Insts)-1])
	if !ok {
		return nil
	}
	if next, _ := q.prog.BlockAt(k + 1); next != nil && next.Index == b.Index+1 {
		return next
	}
	return nil
}

// GetFirstInst returns the first instruction of b.
func (q *Instrumentation) GetFirstInst(b *om.Block) *om.Inst {
	if b == nil || len(b.Insts) == 0 {
		return nil
	}
	return &b.Insts[0]
}

// GetLastInst returns the last instruction of b.
func (q *Instrumentation) GetLastInst(b *om.Block) *om.Inst {
	if b == nil || len(b.Insts) == 0 {
		return nil
	}
	return &b.Insts[len(b.Insts)-1]
}

// GetNextInst returns the instruction after i within its block, or nil.
// A block holds consecutive words, so i's position follows from its
// address.
func (q *Instrumentation) GetNextInst(i *om.Inst) *om.Inst {
	if i == nil {
		return nil
	}
	k, ok := q.prog.Slot(i)
	if !ok {
		return nil
	}
	b, _ := q.prog.BlockAt(k)
	if next := int(i.Addr-b.Insts[0].Addr)/4 + 1; next < len(b.Insts) {
		return &b.Insts[next]
	}
	return nil
}

// Procs returns all procedures (Go-idiomatic traversal).
func (q *Instrumentation) Procs() []*om.Proc { return q.prog.Procs }

// Queries.

// ProcName returns the procedure's name.
func (q *Instrumentation) ProcName(p *om.Proc) string { return p.Name }

// ProcPC returns the procedure's original start address.
func (q *Instrumentation) ProcPC(p *om.Proc) uint64 { return p.Addr }

// InstPC returns the instruction's ORIGINAL program counter. ATOM
// guarantees analysis routines see pre-instrumentation text addresses
// ("if an analysis routine asks for the PC of an instruction in the
// application program, the original PC is simply supplied").
func (q *Instrumentation) InstPC(i *om.Inst) uint64 { return i.Addr }

// IsInstType classifies an instruction.
func (q *Instrumentation) IsInstType(i *om.Inst, t InstType) bool {
	if i == nil {
		return false
	}
	op := i.I.Op
	switch t {
	case InstTypeCondBr:
		return op.IsCondBranch()
	case InstTypeUncondBr:
		return op == alpha.OpBr
	case InstTypeLoad:
		return op.IsLoad()
	case InstTypeStore:
		return op.IsStore()
	case InstTypeCall:
		return op.IsCall()
	case InstTypeRet:
		return op == alpha.OpRet
	case InstTypeJump:
		return op == alpha.OpJmp
	case InstTypePal:
		return op == alpha.OpCallPal
	}
	return false
}

// InstMemBytes returns the access width of a load/store, 0 otherwise.
func (q *Instrumentation) InstMemBytes(i *om.Inst) int { return i.I.Op.MemBytes() }

// InstPalFn returns the PAL function code of a call_pal instruction, or
// -1 for other instructions.
func (q *Instrumentation) InstPalFn(i *om.Inst) int {
	if i == nil || i.I.Op != alpha.OpCallPal {
		return -1
	}
	return int(i.I.PalFn)
}

// InstBaseIsAligned reports whether a memory reference's base register is
// statically known to be naturally aligned (the stack pointer or the zero
// register), so the access cannot be misaligned when its displacement is
// a multiple of the access size.
func (q *Instrumentation) InstBaseIsAligned(i *om.Inst) bool {
	if i == nil || i.I.Op.MemBytes() == 0 {
		return false
	}
	if i.I.Rb != alpha.SP && i.I.Rb != alpha.Zero {
		return false
	}
	return int(i.I.Disp)%i.I.Op.MemBytes() == 0
}

// GetProcCalled returns the name of the procedure a direct call (bsr)
// targets. Indirect calls (jsr) report false.
func (q *Instrumentation) GetProcCalled(i *om.Inst) (string, bool) {
	if i == nil || i.I.Op != alpha.OpBsr {
		return "", false
	}
	target := i.Addr + 4 + uint64(int64(i.I.Disp)*4)
	if p := q.prog.ProcAt(target); p != nil {
		return p.Name, true
	}
	return "", false
}

// ProgramInstCount returns the total instruction count of the program.
func (q *Instrumentation) ProgramInstCount() int { return q.prog.NumInsts() }

// AddCallProto declares an analysis-procedure prototype, e.g.
// "CondBranch(int, VALUE)". Accepted parameter types: int, long, char*,
// long*, VALUE, REGV. Every procedure named in an AddCall must have been
// declared first; ATOM verifies that.
func (q *Instrumentation) AddCallProto(proto string) error {
	open := strings.IndexByte(proto, '(')
	if open <= 0 || !strings.HasSuffix(proto, ")") {
		return fmt.Errorf("atom: malformed prototype %q", proto)
	}
	name := strings.TrimSpace(proto[:open])
	if name == "" {
		return fmt.Errorf("atom: malformed prototype %q", proto)
	}
	if _, dup := q.protos[name]; dup {
		return fmt.Errorf("atom: prototype %q already declared", name)
	}
	p := &Proto{Name: name, wrapper: WrapperName(name)}
	inner := strings.TrimSpace(proto[open+1 : len(proto)-1])
	if inner != "" && inner != "void" {
		for _, f := range strings.Split(inner, ",") {
			switch t := strings.Join(strings.Fields(f), ""); t {
			case "int", "long":
				p.Params = append(p.Params, ParamInt)
			case "char*":
				p.Params = append(p.Params, ParamString)
			case "long*":
				p.Params = append(p.Params, ParamArray)
			case "VALUE":
				p.Params = append(p.Params, ParamValue)
			case "REGV":
				p.Params = append(p.Params, ParamRegV)
			default:
				return fmt.Errorf("atom: prototype %q: unsupported parameter type %q", proto, strings.TrimSpace(f))
			}
		}
	}
	q.protos[name] = p
	return nil
}

// convertArgs validates user arguments against the prototype and
// returns them as a window of argBuf. It keeps no reference to userArgs,
// so a caller's boxed arguments need not escape.
func (q *Instrumentation) convertArgs(p *Proto, in *om.Inst, userArgs []any) ([]arg, error) {
	if len(userArgs) != len(p.Params) {
		return nil, fmt.Errorf("atom: %s expects %d arguments, got %d", p.Name, len(p.Params), len(userArgs))
	}
	start := len(q.argBuf)
	for range userArgs {
		q.argBuf = append(q.argBuf, arg{})
	}
	out := q.argBuf[start:len(q.argBuf):len(q.argBuf)]
	args, err := q.fillArgs(out, p, in, userArgs)
	if err != nil {
		q.argBuf = q.argBuf[:start]
	}
	return args, err
}

// fillArgs converts each user argument into out.
func (q *Instrumentation) fillArgs(out []arg, p *Proto, in *om.Inst, userArgs []any) ([]arg, error) {
	for i, ua := range userArgs {
		kind := p.Params[i]
		switch v := ua.(type) {
		case int:
			if kind != ParamInt {
				return nil, fmt.Errorf("atom: %s argument %d: integer passed for %v parameter", p.Name, i, kind)
			}
			out[i] = arg{kind: argConst, num: int64(v)}
		case int64:
			if kind != ParamInt {
				return nil, fmt.Errorf("atom: %s argument %d: integer passed for %v parameter", p.Name, i, kind)
			}
			out[i] = arg{kind: argConst, num: v}
		case uint64:
			if kind != ParamInt {
				return nil, fmt.Errorf("atom: %s argument %d: integer passed for %v parameter", p.Name, i, kind)
			}
			out[i] = arg{kind: argConst, num: int64(v)}
		case string:
			if kind != ParamString {
				return nil, fmt.Errorf("atom: %s argument %d: string passed for %v parameter", p.Name, i, kind)
			}
			out[i] = arg{kind: argBlobAddr, blob: q.internBlob(append([]byte(v), 0))}
		case Array:
			if kind != ParamArray {
				return nil, fmt.Errorf("atom: %s argument %d: array passed for %v parameter", p.Name, i, kind)
			}
			b := make([]byte, 8*len(v))
			for k, e := range v {
				for j := 0; j < 8; j++ {
					b[8*k+j] = byte(uint64(e) >> (8 * j))
				}
			}
			out[i] = arg{kind: argBlobAddr, blob: q.internBlob(b)}
		case RegV:
			if kind != ParamRegV {
				return nil, fmt.Errorf("atom: %s argument %d: REGV passed for %v parameter", p.Name, i, kind)
			}
			if alpha.Reg(v) >= alpha.NumRegs {
				return nil, fmt.Errorf("atom: %s argument %d: bad register %d", p.Name, i, v)
			}
			out[i] = arg{kind: argRegV, reg: alpha.Reg(v)}
		case Value:
			if kind != ParamValue {
				return nil, fmt.Errorf("atom: %s argument %d: VALUE passed for %v parameter", p.Name, i, kind)
			}
			switch v {
			case EffAddrValue:
				if in == nil || (!in.I.Op.IsLoad() && !in.I.Op.IsStore()) {
					return nil, fmt.Errorf("atom: %s argument %d: EffAddrValue requires a load or store instruction", p.Name, i)
				}
				out[i] = arg{kind: argEffAddr}
			case BrCondValue:
				if in == nil || !in.I.Op.IsCondBranch() {
					return nil, fmt.Errorf("atom: %s argument %d: BrCondValue requires a conditional branch", p.Name, i)
				}
				out[i] = arg{kind: argBrCond}
			default:
				return nil, fmt.Errorf("atom: %s argument %d: unknown VALUE %d", p.Name, i, v)
			}
		default:
			// reflect.TypeOf, unlike formatting ua itself, lets ua stay
			// on the caller's stack.
			return nil, fmt.Errorf("atom: %s argument %d: unsupported argument type %v", p.Name, i, reflect.TypeOf(ua))
		}
	}
	return out, nil
}

func (q *Instrumentation) internBlob(b []byte) int32 {
	for i, c := range q.consts {
		if string(c.data) == string(b) {
			return int32(i)
		}
	}
	q.consts = append(q.consts, constBlob{
		label: fmt.Sprintf("atom$const%d", len(q.consts)),
		data:  b,
	})
	return int32(len(q.consts) - 1)
}

// String renders a ParamKind for diagnostics.
func (k ParamKind) String() string {
	switch k {
	case ParamInt:
		return "int"
	case ParamString:
		return "char*"
	case ParamValue:
		return "VALUE"
	case ParamRegV:
		return "REGV"
	case ParamArray:
		return "long*"
	}
	return "?"
}
