// Package atom is the public face of this reproduction of "ATOM: A
// System for Building Customized Program Analysis Tools" (Srivastava &
// Eustace, PLDI 1994): a framework for building program-analysis tools
// by link-time binary instrumentation.
//
// The package bundles the full toolchain the paper's environment assumed
// — a MiniC compiler, assembler, and linker targeting an Alpha-subset
// ISA, plus a VM standing in for the Alpha AXP/OSF-1 machine — and the
// ATOM system itself: OM-based binary rewriting, the instrumentation
// API (AddCallProto/AddCallProgram/AddCallProc/AddCallBlock/AddCallInst
// with REGV/EffAddrValue/BrCondValue arguments), wrapper or in-analysis
// register-save strategies driven by interprocedural data-flow
// summaries, and the pristine-address memory layout of Figure 4.
//
// The typical pipeline mirrors the paper's `atom prog inst.c anal.c -o
// prog.atom`:
//
//	app, _ := atom.BuildProgram(map[string]string{"app.c": src})
//	tool, _ := atom.ToolByName("cache")
//	res, _ := atom.Instrument(app, tool, atom.Options{})
//	out, _ := atom.RunProgram(res.Exe, atom.RunConfig{})
//	fmt.Print(string(out.Files["cache.out"]))
//
// Custom tools supply a Go instrumentation routine and MiniC analysis
// routines; see internal/tools for the paper's eleven tools written
// against the same API.
package atom

import (
	"fmt"

	"atom/internal/aout"
	"atom/internal/core"
	"atom/internal/om"
	"atom/internal/rtl"
	"atom/internal/tools"
	"atom/internal/vm"
)

// Tool is a complete ATOM tool: a Go instrumentation routine plus MiniC
// (and optionally assembly) analysis routines.
type Tool = core.Tool

// Options control instrumentation; see core.Options.
type Options = core.Options

// Result is the outcome of Instrument; see core.Result.
type Result = core.Result

// Instrumentation is the traversal/insertion API handed to a tool's
// instrumentation routine.
type Instrumentation = core.Instrumentation

// Executable is a linked program image.
type Executable = aout.File

// Re-exported instrumentation constants.
const (
	ProgramBefore = core.ProgramBefore
	ProgramAfter  = core.ProgramAfter
	ProcBefore    = core.ProcBefore
	ProcAfter     = core.ProcAfter
	BlockBefore   = core.BlockBefore
	BlockAfter    = core.BlockAfter
	InstBefore    = core.InstBefore
	InstAfter     = core.InstAfter

	EffAddrValue = core.EffAddrValue
	BrCondValue  = core.BrCondValue

	SaveWrapper    = core.SaveWrapper
	SaveInAnalysis = core.SaveInAnalysis
)

// BuildProgram compiles MiniC sources (file name -> source text) and
// links them with the runtime library into an application executable
// suitable for instrumentation (symbols and relocations retained).
func BuildProgram(sources map[string]string) (*Executable, error) {
	return rtl.BuildProgramMultiCtx(nil, sources)
}

// Instrument applies a tool to an application. The tool's analysis image
// is built once per (tool, options) and cached; instrumenting further
// programs with the same tool pays only the per-program rewrite (the
// paper's two-step cost model). See also BuildToolImage/Apply for the
// explicit form and InstrumentSuite for parallel fan-out.
func Instrument(app *Executable, tool Tool, opts Options) (*Result, error) {
	return core.InstrumentCtx(nil, app, tool, opts)
}

// ToolImage is a tool's compiled and linked analysis image, independent
// of any application; see core.ToolImage.
type ToolImage = core.ToolImage

// BuildToolImage performs the paper's first step — build the custom tool
// — without an application in hand. The image is cached; subsequent
// Instrument or Apply calls with the same tool and options reuse it.
func BuildToolImage(tool Tool, opts Options) (*ToolImage, error) {
	return core.BuildToolImageCtx(nil, tool, opts)
}

// Apply stamps a prebuilt tool image into an application (the second
// step of the two-step model).
func Apply(app *Executable, ti *ToolImage, opts Options) (*Result, error) {
	return core.ApplyCtx(nil, app, ti, opts)
}

// Program is an application lifted to OM IR: the symbolic
// program/procedure/block/instruction view instrumentation routines
// traverse. Instrumentation only reads a Program, so one lifted Program
// can be instrumented any number of times, also concurrently.
type Program = om.Program

// Lift raises an executable to OM IR. Each call builds a new Program
// over app; instrumentation never writes to app or to the Program.
func Lift(app *Executable) (*Program, error) { return core.LiftCtx(nil, app) }

// InstrumentProgram is Instrument starting from an already-lifted
// Program instead of an executable. The Program is only read.
func InstrumentProgram(prog *Program, tool Tool, opts Options) (*Result, error) {
	return core.InstrumentProgramCtx(nil, prog, tool, opts)
}

// Tools returns the paper's eleven analysis tools.
func Tools() []Tool { return tools.All() }

// ToolNames returns the registered tool names.
func ToolNames() []string { return tools.Names() }

// ToolByName returns one of the built-in tools.
func ToolByName(name string) (Tool, error) {
	t, ok := tools.ByName(name)
	if !ok {
		return Tool{}, fmt.Errorf("atom: unknown tool %q (have %v)", name, tools.Names())
	}
	return t, nil
}

// RunConfig parameterizes program execution.
type RunConfig struct {
	Args  []string
	Stdin []byte
	// FS maps path -> contents for files the program may open.
	FS map[string][]byte
	// MaxInstr bounds execution (0 = default 2e9).
	MaxInstr uint64
}

// RunResult is the observable outcome of a program run.
type RunResult struct {
	ExitCode int
	Stdout   []byte
	Stderr   []byte
	// Files holds every file the program wrote, keyed by path — tool
	// reports land here.
	Files map[string][]byte
	// Statistics from the machine.
	Icount    uint64
	Loads     uint64
	Stores    uint64
	Unaligned uint64
	Syscalls  uint64
}

// RunProgram executes an executable on the VM to completion. The VM
// dispatches trace-linked superblocks; the result is identical to
// executing one instruction at a time. An instrumented executable
// carries its own heap scheme (Options.HeapOffset), so the same
// RunConfig runs any program.
func RunProgram(exe *Executable, cfg RunConfig) (*RunResult, error) {
	m, err := vm.New(exe, vm.Config{
		Args:     cfg.Args,
		Stdin:    cfg.Stdin,
		FS:       cfg.FS,
		MaxInstr: cfg.MaxInstr,
	})
	if err != nil {
		return nil, err
	}
	code, err := m.Run()
	if err != nil {
		return nil, err
	}
	return &RunResult{
		ExitCode:  code,
		Stdout:    m.Stdout,
		Stderr:    m.Stderr,
		Files:     m.FSOut,
		Icount:    m.Icount,
		Loads:     m.Loads,
		Stores:    m.Stores,
		Unaligned: m.Unaligned,
		Syscalls:  m.Syscalls,
	}, nil
}
