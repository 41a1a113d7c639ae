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
	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/om"
	"atom/internal/om/analysis"
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

// CacheStats is a snapshot of artifact-cache counters.
type CacheStats = build.Stats

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

// ImageCacheStats reports tool-image cache activity: hits, disk hits,
// misses, completed builds, and build errors.
func ImageCacheStats() CacheStats { return core.ImageCacheStats() }

// StoreStats is a snapshot of persistent-store counters.
type StoreStats = build.StoreStats

// WithCacheDir installs a persistent on-disk artifact store rooted at
// dir, shared by every cache kind (tool images, compiled objects, the
// runtime library): artifacts built by any process pointed at the same
// directory are decoded from disk instead of rebuilt, so a warm second
// process instruments with zero compiles or links. The store is one
// content-addressed blob file per artifact, crash-safe (write-to-temp +
// atomic rename; blobs are SHA-256-verified on read, and corrupt ones
// are deleted and silently rebuilt). Nothing bounds its size: delete the
// directory to reclaim the space. The library never reads ATOM_CACHE_DIR
// itself — only the atom CLI does — so programmatic users opt in
// explicitly here.
func WithCacheDir(dir string) error {
	return build.SetCacheDir(nil, dir)
}

// CloseCacheDir retires the persistent store installed by WithCacheDir;
// subsequent cache traffic is memory-only.
func CloseCacheDir() { build.CloseStore() }

// CacheSnapshot unifies the counters of both artifact caches, plus the
// persistent store's own counters when one is configured.
type CacheSnapshot struct {
	Image   CacheStats
	Objects CacheStats
	// Disk is nil when no persistent store is configured.
	Disk *StoreStats
}

// Caches returns a unified snapshot of cache and store activity.
func Caches() CacheSnapshot {
	snap := CacheSnapshot{
		Image:   core.ImageCacheStats(),
		Objects: rtl.ObjectCacheStats(),
	}
	if s := build.ActiveStore(); s != nil {
		st := s.Stats()
		snap.Disk = &st
	}
	return snap
}

// Program is an application lifted to OM IR: the symbolic
// program/procedure/block/instruction view instrumentation routines
// traverse. A Program is a single-use handle — instrumentation attaches
// call sites to it — so Lift a fresh one per Instrument/Apply call.
type Program = om.Program

// Lift raises an executable to OM IR. Each call builds a fresh Program
// over app; instrumentation never writes to app.
func Lift(app *Executable) (*Program, error) { return core.LiftCtx(nil, app) }

// InstrumentProgram is Instrument starting from an already-lifted
// Program instead of an executable. The Program is consumed.
func InstrumentProgram(prog *Program, tool Tool, opts Options) (*Result, error) {
	return core.InstrumentProgramCtx(nil, prog, tool, opts)
}

// AnalysisPass is one registered static-analysis pass over the OM IR
// (uninit, stackheight, callgraph, toollint).
type AnalysisPass = analysis.Pass

// AnalysisReport is the outcome of running passes over one unit:
// sorted, deterministic findings plus unit metadata. Render it with
// WriteText or MarshalAnalysisReports.
type AnalysisReport = analysis.Report

// AnalysisFinding is a single diagnostic keyed by original PC and
// procedure name.
type AnalysisFinding = analysis.Finding

// AnalysisPasses resolves a comma-separated pass selection ("" = every
// registered pass) to the passes themselves, rejecting unknown names.
func AnalysisPasses(spec string) ([]AnalysisPass, error) { return analysis.Select(spec) }

// Analyze lifts an application and runs the selected passes over it
// (the `atom analyze prog.x` entry point as a library call). A tool
// image is audited with ToolImage.Analyze instead, which runs the
// image-only passes such as toollint.
func Analyze(name string, app *Executable, passSpec string) (*AnalysisReport, error) {
	ps, err := analysis.Select(passSpec)
	if err != nil {
		return nil, err
	}
	prog, err := core.LiftCtx(nil, app)
	if err != nil {
		return nil, err
	}
	return core.AnalyzeProgram(nil, name, prog, analysis.Application, ps), nil
}

// MarshalAnalysisReports renders reports as the stable atom-analyze/v1
// JSON document.
func MarshalAnalysisReports(reports []*AnalysisReport) ([]byte, error) {
	return analysis.MarshalReports(reports)
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
