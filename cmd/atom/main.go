// Command atom mirrors the paper's command line: it instruments fully
// linked applications with one of the built-in analysis tools,
//
//	atom prog.x -t branch -o prog.atom
//	atom -t cache -j 4 -progress prog1.x prog2.x prog3.x
//
// standing in for `atom prog inst.c anal.c -o prog.atom` (the built-in
// tools are selected by name; use the library API to write new ones).
// Flags may come before, between or after the program names. With
// several inputs the tool's analysis image is built once and applied to
// each, in parallel under -j, and each output is written next to its
// input as <input>.atom. A failing program does not abort the batch:
// each failure, including an output an earlier input already claimed
// (a/p.x and a/p.y both name a/p.atom), is reported, and the exit status
// is non-zero iff any program failed.
//
// Subcommands cover the rest of the toolchain, each with its own flags
// (a program named like a subcommand is given as ./run):
//
//	atom cc [-S] [-o hello.o] hello.c    # MiniC compiler
//	atom as [-o defect.o] defect.s       # assembler
//	atom ld [-o hello.x] hello.o ...     # linker, adding crt0 and the runtime
//	atom dis hello.x                     # disassembler
//	atom list                            # the 11 tools
//	atom analyze [-t tool] [prog.x ...]  # static-analysis passes
//	atom run [-t tool] prog.x [args...]  # execute on the VM
//
// atom run instruments the program first when -t is given. Regular files
// in -fs (default ".") are served to the program and the files it writes
// go back there; a path that is absolute or climbs out of it is refused.
// The program's stdin is atom's, unless that is a terminal, and every
// argument after the program name is its argv. -profile attaches a
// deterministic sampling profiler that reports in the application's
// original procedures, with injected code attributed to "[analysis]".
//
// Instrument, run and analyze share the tool options and the
// observability flags: -trace (Chrome trace_event JSON), -metrics (the
// span/counter/histogram snapshot), -debug-addr (Prometheus /metrics of
// that same aggregate, /healthz and net/http/pprof, live for the
// invocation), -cpuprofile and -cache-dir.
//
// -heap N partitions the heap (the paper's Figure 4 scheme) and records
// the analysis zone offset in the output, so `atom run prog.atom` runs
// it under the same scheme with no flag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"

	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/telemetry"
	"atom/internal/tools"
)

const usage = `usage: atom prog.x [prog2.x ...] -t tool [-o prog.atom] [-j N] [-mode wrapper|inanalysis] [-heap N] [-vet]
       atom run [-t tool [-o prog.atom]] [-fs dir] [-profile file [-profile-period N] [-profile-format flat|folded]] prog.x [args...]
       atom analyze [-passes p1,p2] [-json file] [-as app|tool] [-t tool] [prog.x ...]
       atom cc [-S] [-o file.o] file.c
       atom as [-o file.o] file.s
       atom ld [-o a.x] file.o...
       atom dis file
       atom list`

func main() {
	var stdin []byte
	if len(os.Args) > 1 && os.Args[1] == "run" {
		var err error
		if stdin, err = readStdin(os.Stdin); err != nil {
			os.Exit(fail(fmt.Errorf("reading stdin: %w", err)))
		}
	}
	os.Exit(run(os.Args[1:], stdin))
}

// readStdin reads f to EOF, or nothing when f is a terminal.
func readStdin(f *os.File) ([]byte, error) {
	if fi, err := f.Stat(); err != nil || fi.Mode()&os.ModeCharDevice != 0 {
		return nil, err
	}
	return io.ReadAll(f)
}

// run dispatches on the first argument: a subcommand name, or else the
// default form, `atom prog.x -t tool -o out`. stdin is what atom run
// serves the program on fd 0.
func run(args []string, stdin []byte) int {
	if len(args) > 0 {
		switch rest := args[1:]; args[0] {
		case "run":
			return cmdRun(rest, stdin)
		case "analyze":
			return cmdAnalyze(rest)
		case "cc":
			return cmdCC(rest)
		case "as":
			return cmdAs(rest)
		case "ld":
			return cmdLd(rest)
		case "dis":
			return cmdDis(rest)
		case "list":
			for _, t := range tools.All() {
				fmt.Printf("%-8s  %s\n", t.Name, t.Description)
			}
			return 0
		}
	}
	return cmdInstrument(args)
}

// newFlags returns a subcommand's flag set, whose usage message is the
// given usage line followed by the subcommand's own flags.
func newFlags(name, usageLine string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), usageLine)
		fs.PrintDefaults()
	}
	return fs
}

// errUsage is a wrong number of positional arguments.
var errUsage = errors.New("usage")

// parse parses a subcommand's arguments with flags before, between and
// after the positionals, so `atom prog.x -t tool` and `atom -t tool
// prog.x` mean the same (flag.Parse alone stops at the first
// positional), and requires least to most positionals (most < 0: no
// bound).
func parse(fs *flag.FlagSet, args []string, least, most int) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			break
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(pos) < least || most >= 0 && len(pos) > most {
		fs.Usage()
		return nil, errUsage
	}
	return pos, nil
}

// parseStatus is the exit status of a parse error: 0 for -h, which
// printed the usage, and 2 for bad usage.
func parseStatus(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// pipeline holds the flags that instrument, run and analyze share: the
// tool selection and instrumentation options, and the observability
// flags.
type pipeline struct {
	tool, toolArgs, mode                            string
	heap                                            uint64
	noSummary, noLiveness, noInline, vet            bool
	trace, metrics, debugAddr, cpuProfile, cacheDir string
}

// newPipeline returns a pipeline subcommand's flag set with the shared
// flags registered.
func newPipeline(name, usageLine string) (*flag.FlagSet, *pipeline) {
	fs, p := newFlags(name, usageLine), &pipeline{}
	fs.StringVar(&p.tool, "t", "", "analysis tool to apply (see atom list)")
	fs.StringVar(&p.toolArgs, "args", "", "comma-separated tool arguments (iargv)")
	fs.StringVar(&p.mode, "mode", "wrapper", "register-save mode: wrapper | inanalysis")
	fs.Uint64Var(&p.heap, "heap", 0, "partition the heap: analysis zone offset in bytes, a multiple of 8, recorded in the output (0 = linked sbrks)")
	fs.BoolVar(&p.noSummary, "nosummary", false, "disable the data-flow register summary (save all caller-save registers)")
	fs.BoolVar(&p.noLiveness, "noliveness", false, "disable the register-liveness analysis (save registers without regard to liveness)")
	fs.BoolVar(&p.noInline, "noinline", false, "disable analysis-routine inlining (always call through the register-save wrapper)")
	fs.BoolVar(&p.vet, "vet", false, "verify the OM IR before instrumentation and the PC maps and rewritten text after")
	fs.StringVar(&p.trace, "trace", "", `write a Chrome trace_event JSON of the pipeline to this file ("-" = stdout)`)
	fs.StringVar(&p.metrics, "metrics", "", `write a span/counter/histogram metrics snapshot to this file ("-" = stderr)`)
	fs.StringVar(&p.debugAddr, "debug-addr", "", "serve this invocation's metrics live on this address (host:port; port 0 picks one): Prometheus /metrics (the -metrics aggregate), /debug/pprof/, /healthz")
	fs.StringVar(&p.cpuProfile, "cpuprofile", "", "write a CPU profile of atom itself to this file")
	fs.StringVar(&p.cacheDir, "cache-dir", os.Getenv("ATOM_CACHE_DIR"), "persistent artifact cache directory shared across processes: one verified file per artifact, never pruned (delete it to reclaim space; default $ATOM_CACHE_DIR; empty = in-memory only)")
	return fs, p
}

var saveModes = map[string]core.SaveMode{"wrapper": core.SaveWrapper, "inanalysis": core.SaveInAnalysis}

// resolve looks up the -t tool (the zero Tool when -t is unset) and
// builds the instrumentation options.
func (p *pipeline) resolve() (core.Tool, core.Options, error) {
	opts := core.Options{
		HeapOffset:   p.heap,
		NoRegSummary: p.noSummary,
		NoLiveness:   p.noLiveness,
		NoInline:     p.noInline,
		Verify:       p.vet,
	}
	var tool core.Tool
	if p.tool != "" {
		var ok bool
		if tool, ok = tools.ByName(p.tool); !ok {
			return tool, opts, fmt.Errorf("unknown tool %q; try atom list", p.tool)
		}
	}
	mode, ok := saveModes[p.mode]
	if !ok {
		return tool, opts, fmt.Errorf("bad -mode %q", p.mode)
	}
	opts.Mode = mode
	if p.toolArgs != "" {
		opts.ToolArgs = strings.Split(p.toolArgs, ",")
	}
	return tool, opts, nil
}

// observe runs body under the invocation's observability: the CPU
// profile, the stage context, the persistent store and the debug
// server. However body ends — a program erroring mid-run, or a
// SIGINT/SIGTERM, included — the trace file is written, the metrics
// snapshot printed and the debug server shut down; a flush failure makes
// the exit status non-zero without masking body's.
func (p *pipeline) observe(body func(ctx *obs.Ctx) int) (code int) {
	if p.cpuProfile != "" {
		f, err := os.Create(p.cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// The stage context is nil (near-zero overhead) unless some consumer
	// of spans or counters is active. -metrics and -debug-addr need no
	// sink: both render the context's own obs.Metrics aggregate.
	var (
		traceSink *obs.TraceSink
		ctx       *obs.Ctx
	)
	if p.trace != "" {
		traceSink = &obs.TraceSink{}
		ctx = obs.New(traceSink)
	} else if p.metrics != "" || p.debugAddr != "" {
		ctx = obs.New()
	}

	// The persistent store opens after the stage context exists, so its
	// store.open span (and any store.get/store.put under the lookups)
	// lands in -trace and -metrics output.
	if p.cacheDir != "" {
		if err := build.SetCacheDir(ctx, p.cacheDir); err != nil {
			return fail(err)
		}
	}
	var srv *telemetry.Server
	if p.debugAddr != "" {
		srv = telemetry.NewServer(ctx.Metrics())
		if err := srv.Start(p.debugAddr); err != nil {
			return fail(err)
		}
		// The resolved address matters with port 0; scripts poll stderr
		// for this line to find the endpoints.
		fmt.Fprintf(os.Stderr, "atom: telemetry listening on http://%s\n", srv.Addr())
	}

	// The persistent store needs no flush (each Put renames its blob into
	// place). The flush runs once, from the defer or the signal handler.
	var flushOnce sync.Once
	flush := func() {
		flushOnce.Do(func() {
			report := func(err error) {
				if err != nil {
					fmt.Fprintln(os.Stderr, "atom:", err)
					if code == 0 {
						code = 1
					}
				}
			}
			if p.trace != "" {
				report(writeTrace(traceSink, p.trace))
			}
			if p.metrics != "" {
				report(writeMetricsSnapshot(ctx, p.metrics))
			}
			if srv != nil {
				srv.Close()
			}
		})
	}
	defer flush()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		flush()
		status := 1
		if sig, isSig := s.(syscall.Signal); isSig {
			status = 128 + int(sig)
		}
		os.Exit(status)
	}()

	return body(ctx)
}

// writeTrace writes the Chrome trace document, honoring the "-" path as
// stdout so a run's trace can pipe straight into another tool.
func writeTrace(t *obs.TraceSink, path string) error {
	if path == "-" {
		data, err := t.MarshalTrace()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	return t.WriteFile(path)
}

// writeMetricsSnapshot writes the end-of-run metrics snapshot, honoring
// the "-" path as stderr (keeping the snapshot out of the program's
// stdout, which atom run owns).
func writeMetricsSnapshot(ctx *obs.Ctx, path string) error {
	write := func(w io.Writer) error {
		_, err := ctx.Metrics().WriteTo(w)
		return err
	}
	if path == "-" {
		return write(os.Stderr)
	}
	return createWith(path, write)
}

// createWith creates the file at path and fills it with write.
func createWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// outputName derives an output path: an explicit -o wins, otherwise the
// input's extension is replaced by ext (input+ext for an extensionless
// name like "a").
func outputName(input, explicit, ext string) string {
	if explicit != "" {
		return explicit
	}
	if dot := strings.LastIndexByte(input, '.'); dot > strings.LastIndexByte(input, '/') {
		return input[:dot] + ext
	}
	return input + ext
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "atom:", err)
	return 1
}
