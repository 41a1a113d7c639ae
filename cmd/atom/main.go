// Command atom mirrors the paper's command line: it instruments fully
// linked applications with one of the built-in analysis tools,
//
//	atom prog.x -t branch -o prog.atom
//	atom -t cache -j 4 -progress prog1.x prog2.x prog3.x
//
// standing in for `atom prog inst.c anal.c -o prog.atom` (instrumentation
// routines are Go code, so the built-in tools are selected by name; use
// the library API to write new ones). With several input programs the
// tool's analysis image is built once and applied to each program, in
// parallel when -j is given; each output is written next to its input
// with the extension replaced by ".atom". A failing program does not
// abort the batch: the rest are still instrumented, each failure is
// reported, and the exit status is non-zero iff any program failed.
//
// Run mode executes a program on the Alpha-subset VM, with an optional
// deterministic sampling profiler whose reports are in the application's
// ORIGINAL terms (PCs translated back through the static new->original
// map; samples in injected analysis code attributed to "[analysis]"):
//
//	atom -run prog.x arg1 arg2              # plain execution
//	atom -t prof -run -profile p.txt prog.x # instrument, run, profile
//	atom -run -profile p.folded -profile-format=folded prog.x
//
// The VM runs on a trace-linked superblock cache, profiled or not: the
// profiler's call/return events fire at block terminators, and only a
// block that would retire a sampling point is single-stepped.
//
// The pipeline is observable end to end:
//
//	atom -t cache -trace t.json prog.x   # Chrome trace (chrome://tracing)
//	atom -t cache -metrics - prog.x      # span/counter/histogram snapshot
//	atom -t cache -cpuprofile cpu.pprof prog.x
//	atom -t cache -bench-json run.json prog.x  # per-phase JSON breakdown
//	atom -t cache -vet prog.x            # verify IR, PC maps, rewritten text
//	atom -verify-trace t.json            # validate a trace file (CI smoke)
//
// and observable live: -debug-addr starts an embedded debug server with
// Prometheus /metrics, a streaming NDJSON event feed, /healthz, and
// net/http/pprof, while -log emits structured logs as the pipeline runs:
//
//	atom -t cache -j 4 -debug-addr 127.0.0.1:6060 prog1.x prog2.x ...
//	atom -scrape http://127.0.0.1:6060/metrics   # built-in curl (CI smoke)
//	atom -t cache -log json -log-level info prog.x
//
// -trace - streams the trace JSON to stdout and -metrics - prints the
// snapshot to stderr; both also accept ordinary file paths.
//
// The lift stage is serializable: -emit-ir writes each input's OM IR as
// a stable atom-ir/v1 blob, and -ir-in instruments from such a blob in
// place of an executable — decode substitutes for the lift, and the
// output is bit-identical to the in-memory path:
//
//	atom -emit-ir ir prog.x              # write ir/prog.ir
//	atom -t cache -ir-in ir/prog.ir      # instrument from the blob
//
// It also regenerates the paper's evaluation artifacts:
//
//	atom -list                      # the 11 tools
//	atom -table fig5                # Figure 5 (instrumentation time)
//	atom -table fig6                # Figure 6 (execution-time ratios)
//	atom -table fig5 -bench-json f  # same, plus machine-readable JSON
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/figures"
	"atom/internal/obs"
	"atom/internal/om"
	"atom/internal/prof"
	"atom/internal/rtl"
	"atom/internal/telemetry"
	"atom/internal/tools"
	"atom/internal/vm"
)

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		toolName      = flag.String("t", "", "analysis tool to apply (see -list)")
		outPath       = flag.String("o", "", "output executable (single input only; default: input with .atom extension, or a.atom)")
		toolArgs      = flag.String("args", "", "comma-separated tool arguments (iargv)")
		mode          = flag.String("mode", "wrapper", "register-save mode: wrapper | inanalysis")
		heapOff       = flag.Uint64("heap", 0, "partition the heap: analysis zone offset in bytes (0 = linked sbrks)")
		noSummary     = flag.Bool("nosummary", false, "disable the data-flow register summary (save all caller-save registers)")
		noLiveness    = flag.Bool("noliveness", false, "disable the register-liveness analysis (save registers without regard to liveness)")
		noInline      = flag.Bool("noinline", false, "disable analysis-routine inlining (always call through the register-save wrapper)")
		inlineLimit   = flag.Int("inline-limit", 0, "largest analysis-routine body to inline, in instructions (0 = default)")
		vet           = flag.Bool("vet", false, "verify the OM IR before instrumentation and the PC maps and rewritten text after")
		analyze       = flag.Bool("analyze", false, "run the static-analysis passes over the inputs (and the -t tool's image) and report findings instead of instrumenting")
		analyzeJSON   = flag.String("analyze-json", "", "with -analyze: also write the reports as JSON (atom-analyze/v1) to this file")
		passSpec      = flag.String("passes", "", "with -analyze: comma-separated pass subset (default: all; names: uninit, stackheight, callgraph, toollint)")
		analyzeAs     = flag.String("analyze-as", "app", "with -analyze: treat inputs as an application or a tool image: app | tool")
		emitIR        = flag.String("emit-ir", "", "lift each input and write its serialized IR (atom-ir/v1) to <dir>/<input>.ir instead of instrumenting")
		irIn          = flag.String("ir-in", "", "instrument from a serialized IR blob (-emit-ir output) instead of an input executable")
		jobs          = flag.Int("j", 1, "instrument up to N input programs in parallel (0 = GOMAXPROCS)")
		list          = flag.Bool("list", false, "list the built-in tools")
		table         = flag.String("table", "", "regenerate a paper table: fig5 | fig6")
		progs         = flag.String("progs", "", "comma-separated suite subset for -table (default: all 20)")
		benchJSON     = flag.String("bench-json", "", "write measurements as JSON: -table rows, or a per-phase run breakdown")
		stats         = flag.Bool("stats", false, "print instrumentation and cache statistics")
		layout        = flag.Bool("layout", false, "print the instrumented executable's memory layout (Figure 4)")
		verbose       = flag.Bool("v", false, "progress output for -table")
		progress      = flag.Bool("progress", false, "live status line on stderr for multi-program instrument batches")
		tracePath     = flag.String("trace", "", `write a Chrome trace_event JSON of the pipeline to this file ("-" = stdout)`)
		metrics       = flag.String("metrics", "", `write a span/counter/histogram metrics snapshot to this file ("-" = stderr)`)
		debugAddr     = flag.String("debug-addr", "", "serve live telemetry on this address (host:port; port 0 picks one): Prometheus /metrics, /debug/events NDJSON stream, /debug/pprof/, /healthz")
		logFormat     = flag.String("log", "", "emit structured logs to stderr in this format: text | json (default: off)")
		logLevel      = flag.String("log-level", "info", "minimum structured-log level: debug | info | warn | error")
		scrapeURL     = flag.String("scrape", "", "fetch a URL and copy the body to stdout, then exit (CI smoke; no curl needed)")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of atom itself to this file")
		verifyTrace   = flag.String("verify-trace", "", "validate a trace file written by -trace and exit (CI smoke)")
		verifyFolded  = flag.String("verify-folded", "", "validate a folded-stack profile written by -profile-format=folded and exit (CI smoke)")
		runMode       = flag.Bool("run", false, "execute the (instrumented) program on the VM; extra arguments become its argv")
		profilePath   = flag.String("profile", "", "sample the VM run and write the profile to this file (implies -run)")
		profilePeriod = flag.Uint64("profile-period", 10000, "sampling period in retired instructions")
		profileFormat = flag.String("profile-format", "flat", "profile report format: flat | folded")
		cacheDir      = flag.String("cache-dir", os.Getenv("ATOM_CACHE_DIR"), "persistent artifact cache directory shared across processes (default $ATOM_CACHE_DIR; empty = in-memory only)")
		cacheMaxMB    = flag.Int64("cache-max-mb", 0, "evict least-recently-used blobs when the persistent cache exceeds this many MiB (0 = unbounded)")
	)
	flag.Parse()

	switch {
	case *list:
		for _, t := range tools.All() {
			fmt.Printf("%-8s  %s\n", t.Name, t.Description)
		}
		return 0
	case *scrapeURL != "":
		return scrape(*scrapeURL)
	case *verifyTrace != "":
		if err := checkTrace(*verifyTrace); err != nil {
			fmt.Fprintln(os.Stderr, "atom:", err)
			return 1
		}
		fmt.Printf("%s: ok\n", *verifyTrace)
		return 0
	case *verifyFolded != "":
		data, err := os.ReadFile(*verifyFolded)
		if err != nil {
			return fail(err)
		}
		n, err := prof.ValidateFolded(data)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s: ok (%d stacks)\n", *verifyFolded, n)
		return 0
	case *table != "" || (*benchJSON != "" && *toolName == "" && !*runMode && !*analyze && *profilePath == ""):
		which := *table
		if which == "" {
			which = "fig5"
		}
		return runTable(which, *progs, *benchJSON, *verbose)
	}
	doRun := *runMode || *profilePath != ""

	switch {
	case *emitIR != "" && (*irIn != "" || doRun || *toolName != ""):
		return fail(fmt.Errorf("-emit-ir only lifts; it cannot be combined with -t, -ir-in or -run"))
	case *irIn != "" && doRun:
		return fail(fmt.Errorf("-ir-in cannot be combined with -run"))
	case *irIn != "" && flag.NArg() > 0:
		return fail(fmt.Errorf("-ir-in replaces the input executable; positional inputs are not allowed"))
	case *analyze && (doRun || *emitIR != ""):
		return fail(fmt.Errorf("-analyze reports findings; it cannot be combined with -run or -emit-ir"))
	case *analyze && *analyzeAs != "app" && *analyzeAs != "tool":
		return fail(fmt.Errorf("bad -analyze-as %q (app or tool)", *analyzeAs))
	}
	// -analyze with only a tool lints the built image; no input needed.
	needInput := *irIn == "" && !(*analyze && *toolName != "")
	needTool := *toolName == "" && !doRun && *emitIR == "" && !*analyze
	if (needInput && flag.NArg() < 1) || needTool {
		fmt.Fprintln(os.Stderr, "usage: atom prog.x [prog2.x ...] -t tool [-o prog.atom] [-j N] [-mode wrapper|inanalysis] [-heap N] [-vet]")
		fmt.Fprintln(os.Stderr, "       atom [-t tool] -run [-profile file [-profile-period N] [-profile-format flat|folded]] prog.x [args...]")
		fmt.Fprintln(os.Stderr, "       atom -emit-ir dir prog.x [prog2.x ...] | atom -t tool -ir-in prog.ir [-o prog.atom]")
		fmt.Fprintln(os.Stderr, "       atom -analyze [-passes p1,p2] [-analyze-json file] [-t tool] [prog.x ...]")
		fmt.Fprintln(os.Stderr, "       atom -list | -table fig5|fig6 [-bench-json file] | -verify-trace file")
		return 2
	}
	if flag.NArg() > 1 && *outPath != "" && !doRun {
		return fail(fmt.Errorf("-o is only valid with a single input program (outputs are named <input>.atom)"))
	}
	var tool core.Tool
	if *toolName != "" {
		var ok bool
		tool, ok = tools.ByName(*toolName)
		if !ok {
			return fail(fmt.Errorf("unknown tool %q; try -list", *toolName))
		}
	}
	opts := core.Options{
		HeapOffset:   *heapOff,
		NoRegSummary: *noSummary,
		NoLiveness:   *noLiveness,
		NoInline:     *noInline,
		InlineLimit:  *inlineLimit,
		Verify:       *vet,
	}
	switch *mode {
	case "wrapper":
		opts.Mode = core.SaveWrapper
	case "inanalysis":
		opts.Mode = core.SaveInAnalysis
	default:
		return fail(fmt.Errorf("bad -mode %q", *mode))
	}
	if *toolArgs != "" {
		opts.ToolArgs = strings.Split(*toolArgs, ",")
	}
	switch *profileFormat {
	case "flat", "folded":
	default:
		return fail(fmt.Errorf("bad -profile-format %q (flat or folded)", *profileFormat))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
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
	// of spans or counters is active. -metrics and -bench-json need no
	// sink: they render the context's own obs.Metrics aggregate.
	var (
		traceSink *obs.TraceSink
		logger    *slog.Logger
		sinks     []obs.Sink
	)
	if *tracePath != "" {
		traceSink = &obs.TraceSink{}
		sinks = append(sinks, traceSink)
	}
	if *logFormat != "" {
		level, err := telemetry.ParseLevel(*logLevel)
		if err != nil {
			return fail(err)
		}
		logger, err = telemetry.NewLogger(os.Stderr, *logFormat, level)
		if err != nil {
			return fail(err)
		}
		sinks = append(sinks, &telemetry.LogSink{L: logger})
	}
	if *debugAddr != "" {
		// The debug server exposes the process-wide registry and event
		// stream; attaching them here makes the CLI's pipeline activity
		// visible on the same endpoints the library API serves.
		sinks = append(sinks, telemetry.Default().Sink(), telemetry.DefaultStream())
	}
	var ctx *obs.Ctx
	if len(sinks) > 0 || *metrics != "" || *benchJSON != "" {
		ctx = obs.New(sinks...)
	}

	// The persistent store opens after the stage context exists, so its
	// store.open span (and any store.get/store.put under the lookups)
	// lands in -trace and -metrics output.
	if *cacheDir != "" {
		if err := build.SetCacheDir(ctx, *cacheDir, *cacheMaxMB<<20); err != nil {
			return fail(err)
		}
	}
	if *debugAddr != "" {
		srv, err := telemetry.StartDefaultServer(*debugAddr)
		if err != nil {
			return fail(err)
		}
		// The resolved address matters with port 0; scripts poll stderr
		// for this line to find the endpoints.
		fmt.Fprintf(os.Stderr, "atom: telemetry listening on http://%s\n", srv.Addr())
	}

	// Fail-soft flush: no matter how the batch or the run ends — a
	// program erroring mid-run, or a SIGINT/SIGTERM, included — the trace
	// file is written, the metrics snapshot printed, the persistent store
	// closed (journal flushed), and the debug server shut down. The
	// sync.Once makes the flush safe to reach from both the normal defer
	// and the signal handler; a flush failure makes the exit status
	// non-zero without masking the primary outcome.
	var flushOnce sync.Once
	flush := func() {
		flushOnce.Do(func() {
			if *tracePath != "" {
				if err := writeTrace(traceSink, *tracePath); err != nil {
					fmt.Fprintln(os.Stderr, "atom:", err)
					if code == 0 {
						code = 1
					}
				}
			}
			if *metrics != "" {
				if err := writeMetricsSnapshot(ctx, *metrics); err != nil {
					fmt.Fprintln(os.Stderr, "atom:", err)
					if code == 0 {
						code = 1
					}
				}
			}
			if *cacheDir != "" {
				if err := build.CloseStore(); err != nil {
					fmt.Fprintln(os.Stderr, "atom:", err)
					if code == 0 {
						code = 1
					}
				}
			}
			if *debugAddr != "" {
				telemetry.StopDefaultServer()
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

	if *analyze {
		return runAnalyze(ctx, analyzeConfig{
			inputs:    flag.Args(),
			irIn:      *irIn,
			tool:      tool,
			haveTool:  *toolName != "",
			opts:      opts,
			passSpec:  *passSpec,
			asKind:    *analyzeAs,
			jsonPath:  *analyzeJSON,
			benchJSON: *benchJSON,
		})
	}

	if *emitIR != "" {
		return emitIRBlobs(ctx, *emitIR, flag.Args())
	}
	if *irIn != "" {
		return instrumentFromIR(ctx, *irIn, tool, opts,
			*outPath, *stats, *layout, *benchJSON)
	}

	if doRun {
		return runUnderVM(ctx, runConfig{
			input:         flag.Arg(0),
			progArgs:      flag.Args()[1:],
			tool:          tool,
			haveTool:      *toolName != "",
			opts:          opts,
			outPath:       *outPath,
			benchJSON:     *benchJSON,
			profilePath:   *profilePath,
			profilePeriod: *profilePeriod,
			profileFormat: *profileFormat,
			stats:         *stats,
		})
	}

	// Read every input before instrumenting any; per-program read errors
	// fail soft like instrumentation errors do.
	inputs := flag.Args()
	apps := make([]*aout.File, len(inputs))
	errs := make([]error, len(inputs))
	for i, path := range inputs {
		app, err := aout.ReadFile(path)
		if err != nil {
			errs[i] = err
			continue
		}
		apps[i] = app
	}

	// Instrument the readable subset, then fold results and errors back
	// into input order.
	var good []*aout.File
	var goodIdx []int
	for i, app := range apps {
		if app != nil {
			good = append(good, app)
			goodIdx = append(goodIdx, i)
		}
	}
	results := make([]*core.Result, len(inputs))
	if len(good) > 0 {
		goodNames := make([]string, len(good))
		for k, i := range goodIdx {
			goodNames[k] = inputs[i]
		}
		// Per-program completion counters stream over /debug/events as
		// the batch runs, so a live reader watches progress without the
		// -progress status line.
		var done atomic.Int64
		total := len(good)
		progressLine := *progress && len(inputs) > 1
		onDone := func(k int, err error) {
			n := done.Add(1)
			if err != nil {
				ctx.Count("atom.batch.failed", 1)
			} else {
				ctx.Count("atom.batch.done", 1)
			}
			if progressLine {
				fmt.Fprintf(os.Stderr, "\ratom: instrumented %d/%d", n, total)
			}
		}
		if progressLine {
			defer fmt.Fprintln(os.Stderr)
		}
		res, rerrs := core.InstrumentManyNamed(ctx, good, goodNames, tool, opts, *jobs, onDone)
		for k, i := range goodIdx {
			results[i] = res[k]
			if rerrs[k] != nil {
				errs[i] = fmt.Errorf("%s: %w", tool.Name, rerrs[k])
			}
		}
	}

	failed := 0
	for i, res := range results {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "atom: %s: %v\n", inputs[i], errs[i])
			if logger != nil {
				logger.Error("program failed", slog.String("program", inputs[i]), slog.String("err", errs[i].Error()))
			}
			failed++
			continue
		}
		out := outputName(inputs[i], *outPath)
		_, sp := ctx.Start("atom.write", obs.String("file", out))
		err := res.Exe.WriteFile(out)
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "atom: %s: %v\n", inputs[i], err)
			errs[i] = err
			failed++
			continue
		}
		if len(inputs) > 1 && *verbose {
			fmt.Fprintf(os.Stderr, "atom: %s -> %s\n", inputs[i], out)
		}
		if *layout {
			printLayout(apps[i], res)
		}
		if *stats {
			if len(inputs) > 1 {
				fmt.Printf("%s:\n", inputs[i])
			}
			printResultStats(res)
		}
	}
	if *stats {
		printCacheStats()
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "atom: %d of %d programs failed\n", failed, len(inputs))
	}

	if *benchJSON != "" {
		doc := newRunDoc(ctx, tool.Name, inputs)
		for i := range inputs {
			if errs[i] != nil {
				doc.Failed = append(doc.Failed, inputs[i])
			}
		}
		if err := figures.WriteRunJSON(*benchJSON, doc); err != nil {
			return fail(err)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runConfig carries the run-mode parameters.
type runConfig struct {
	input         string
	progArgs      []string
	tool          core.Tool
	haveTool      bool
	opts          core.Options
	outPath       string
	benchJSON     string
	profilePath   string
	profilePeriod uint64
	profileFormat string
	stats         bool
}

// runUnderVM executes one program on the VM — instrumenting it first
// when a tool was selected — with the sampling profiler attached when
// requested. The profile (and the bench JSON document) is written even
// when the program faults mid-run, so a crashing workload still yields
// its observability artifacts.
func runUnderVM(ctx *obs.Ctx, rc runConfig) int {
	app, err := aout.ReadFile(rc.input)
	if err != nil {
		return fail(err)
	}

	exe := app
	cfg := vm.Config{
		Arg0: rc.input,
		Args: rc.progArgs,
		FS:   map[string][]byte{},
		Obs:  ctx,
	}
	var pcMap func(uint64) (uint64, bool)
	procs := prof.ProcsFromSymbols(app.Symbols)
	if rc.haveTool {
		res, err := core.InstrumentCtx(ctx, app, rc.tool, rc.opts)
		if err != nil {
			return fail(fmt.Errorf("%s: %s: %w", rc.input, rc.tool.Name, err))
		}
		exe = res.Exe
		cfg.AnalysisHeapOffset = res.HeapOffset
		pcMap = res.PCMap.OldAddr
		procs = res.PCMap.OrigProcs()
		if rc.outPath != "" {
			if err := res.Exe.WriteFile(rc.outPath); err != nil {
				return fail(err)
			}
		}
	}

	var profiler *prof.Profiler
	if rc.profilePath != "" {
		profiler = prof.New(prof.Options{
			Period: rc.profilePeriod,
			Procs:  procs,
			MapPC:  pcMap,
			Obs:    ctx,
		})
		profiler.Attach(&cfg)
	}

	m, err := vm.New(exe, cfg)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", rc.input, err))
	}
	runStart := time.Now()
	exitCode, runErr := m.Run()
	runWall := time.Since(runStart)
	os.Stdout.Write(m.Stdout)
	os.Stderr.Write(m.Stderr)
	for _, path := range m.Paths() {
		if werr := os.WriteFile(path, m.FSOut[path], 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "atom:", werr)
			if runErr == nil {
				runErr = werr
			}
		}
	}

	status := exitCode
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "atom: %s: %v\n", rc.input, runErr)
		status = 1
	}
	if rc.stats {
		fmt.Fprintf(os.Stderr, "icount=%d loads=%d stores=%d unaligned=%d syscalls=%d\n",
			m.Icount, m.Loads, m.Stores, m.Unaligned, m.Syscalls)
	}

	// Observability artifacts are flushed regardless of how the run went.
	if profiler != nil {
		profiler.Flush()
		if err := writeProfile(profiler, rc.profilePath, rc.profileFormat); err != nil {
			fmt.Fprintln(os.Stderr, "atom:", err)
			if status == 0 {
				status = 1
			}
		}
	}
	if rc.benchJSON != "" {
		doc := newRunDoc(ctx, rc.tool.Name, []string{rc.input})
		if runErr != nil {
			doc.Failed = []string{rc.input}
		}
		if secs := runWall.Seconds(); secs > 0 {
			doc.VMMinstS = float64(m.Icount) / 1e6 / secs
		}
		if err := figures.WriteRunJSON(rc.benchJSON, doc); err != nil {
			fmt.Fprintln(os.Stderr, "atom:", err)
			if status == 0 {
				status = 1
			}
		}
	}
	return status
}

// writeProfile renders the profiler's report in the selected format.
func writeProfile(p *prof.Profiler, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if format == "folded" {
		err = p.WriteFolded(f)
	} else {
		err = p.WriteFlat(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// emitIRBlobs lifts each input executable (through the IR cache) and
// writes its serialized atom-ir/v1 blob to <dir>/<input>.ir. Per-input
// failures fail soft, like instrument batches do.
func emitIRBlobs(ctx *obs.Ctx, dir string, inputs []string) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	failed := 0
	for _, path := range inputs {
		app, err := aout.ReadFile(path)
		var blob []byte
		if err == nil {
			blob, err = core.LiftBlobCtx(ctx, app)
		}
		out := filepath.Join(dir, irName(path))
		if err == nil {
			err = os.WriteFile(out, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "atom: %s: %v\n", path, err)
			failed++
			continue
		}
		fmt.Printf("%s -> %s (%d bytes, %s)\n", path, out, len(blob), om.BlobDigest(blob)[:12])
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// irName maps an input path to its blob file name: the base name with
// the extension replaced by ".ir".
func irName(input string) string {
	base := filepath.Base(input)
	if dot := strings.LastIndexByte(base, '.'); dot > 0 {
		base = base[:dot]
	}
	return base + ".ir"
}

// instrumentFromIR instruments from a serialized IR blob: decode
// substitutes for the lift, and the rest of the pipeline — plan, tool
// image, apply — is exactly the in-memory one, so the output executable
// is bit-identical to instrumenting the original input. The output name
// derives from the blob (prog.ir -> prog.atom) unless -o is given.
func instrumentFromIR(ctx *obs.Ctx, irPath string, tool core.Tool, opts core.Options, outPath string, stats, layout bool, benchJSON string) int {
	blob, err := os.ReadFile(irPath)
	if err != nil {
		return fail(err)
	}
	prog, err := om.DecodeCtx(ctx, blob)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", irPath, err))
	}
	res, err := core.InstrumentProgramCtx(ctx, prog, tool, opts)
	if err != nil {
		return fail(fmt.Errorf("%s: %s: %w", irPath, tool.Name, err))
	}
	out := outputName(irPath, outPath)
	_, sp := ctx.Start("atom.write", obs.String("file", out))
	err = res.Exe.WriteFile(out)
	sp.End()
	if err != nil {
		return fail(err)
	}
	if layout {
		printLayout(prog.Exe, res)
	}
	if stats {
		printResultStats(res)
		printCacheStats()
	}
	if benchJSON != "" {
		doc := newRunDoc(ctx, tool.Name, []string{irPath})
		if err := figures.WriteRunJSON(benchJSON, doc); err != nil {
			return fail(err)
		}
	}
	return 0
}

// printResultStats renders one instrumented program's -stats block: the
// call sites split into inlined, direct and wrapper calls, the code
// inserted, and the image sizes.
func printResultStats(res *core.Result) {
	s := res.Stats
	fmt.Printf("call sites instrumented: %d\n", s.Calls)
	fmt.Printf("call sites inlined:      %d\n", s.InlinedSites)
	fmt.Printf("call sites direct:       %d\n", s.DirectSites)
	fmt.Printf("call sites via wrapper:  %d\n", s.Calls-s.InlinedSites-s.DirectSites)
	fmt.Printf("instructions inserted:   %d\n", s.InsertedInsts)
	fmt.Printf("application text:        %d -> %d bytes\n", s.OrigText, s.InstrText)
	fmt.Printf("analysis image:          %d text + %d data bytes\n", s.AnalysisText, s.AnalysisData)
	if res.HeapOffset != 0 {
		fmt.Printf("analysis heap offset:    %#x (run with the same offset)\n", res.HeapOffset)
	}
}

// printCacheStats renders the three artifact caches (and, when a
// -cache-dir store is configured, the store itself) for -stats.
func printCacheStats() {
	ic, oc, rc := core.ImageCacheStats(), rtl.ObjectCacheStats(), build.IRCacheStats()
	fmt.Printf("image cache:             %d hits, %d disk hits, %d misses, %d builds\n", ic.Hits, ic.DiskHits, ic.Misses, ic.Builds)
	fmt.Printf("object cache:            %d hits, %d disk hits, %d misses, %d builds\n", oc.Hits, oc.DiskHits, oc.Misses, oc.Builds)
	fmt.Printf("ir cache:                %d hits, %d disk hits, %d misses, %d builds\n", rc.Hits, rc.DiskHits, rc.Misses, rc.Builds)
	if s := build.ActiveStore(); s != nil {
		st := s.Stats()
		fmt.Printf("disk store:              %d blobs, %d bytes, %d hits, %d misses, %d puts, %d corrupt, %d adopted, %d evicted\n",
			st.Blobs, st.Bytes, st.Hits, st.Misses, st.Puts, st.Corrupt, st.Adopted, st.Evicted)
	}
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
// stdout, which run mode owns).
func writeMetricsSnapshot(ctx *obs.Ctx, path string) error {
	if path == "-" {
		_, err := ctx.Metrics().WriteTo(os.Stderr)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = ctx.Metrics().WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// scrape fetches a URL and copies the body to stdout: the CI smoke's
// curl substitute, so the telemetry gate needs no tools beyond atom
// itself. Exit status is non-zero for transport errors and non-200s.
func scrape(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("%s: %s", url, resp.Status))
	}
	return 0
}

// newRunDoc assembles the common part of a bench JSON run document
// (schema atom-run/v7): per-phase totals including the lift, the three
// cache stat blocks, the disk-store block when a persistent store is
// configured, counters, the inline block, and histograms.
func newRunDoc(ctx *obs.Ctx, toolName string, programs []string) figures.RunDoc {
	m := ctx.Metrics()
	doc := figures.RunDoc{
		Tool:     toolName,
		Programs: programs,
		Phases: figures.BenchPhases{
			LiftMS:    msOf(m.SpanTotal("om.lift")),
			BuildMS:   msOf(m.SpanTotal("atom.image.build")),
			PlanMS:    msOf(m.SpanTotal("atom.plan")),
			ApplyMS:   msOf(m.SpanTotal("atom.apply")),
			WriteMS:   msOf(m.SpanTotal("atom.write")),
			AnalyzeMS: msOf(m.SpanTotal("om.analyze")),
		},
		Image:   figures.CacheStats(core.ImageCacheStats()),
		Objects: figures.CacheStats(rtl.ObjectCacheStats()),
		IR:      figures.CacheStats(build.IRCacheStats()),
	}
	if s := build.ActiveStore(); s != nil {
		blk := figures.StoreStats(s.Stats())
		doc.Disk = &blk
	}
	for _, c := range m.Counters() {
		doc.Counters = append(doc.Counters, figures.BenchCounter{Name: c.Name, Value: c.Value})
	}
	doc.Inline = inlineBlock(ctx)
	doc.Hists = figures.Histograms(m.Histograms())
	return doc
}

// inlineBlock extracts the inliner's site counters for the bench JSON
// document (schema atom-run/v3). Nil when no instrumentation ran, so
// plain -run documents stay free of a meaningless zero block.
func inlineBlock(ctx *obs.Ctx) *figures.BenchInline {
	var blk figures.BenchInline
	found := false
	for _, c := range ctx.Counters() {
		switch c.Name {
		case "atom.sites_inlined":
			blk.SitesInlined, found = c.Value, true
		case "atom.sites_called":
			blk.SitesCalled, found = c.Value, true
		}
	}
	if !found {
		return nil
	}
	return &blk
}

// checkTrace validates a -trace output file: well-formed Chrome
// trace_event JSON, non-empty, and covering the pipeline stages a cold
// instrumentation run always exercises.
func checkTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, err := obs.ParseTrace(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: trace has no events", path)
	}
	seen := map[string]bool{}
	attributed := false
	for _, e := range events {
		seen[e.Name] = true
		if e.Args["outcome"] != "" {
			attributed = true
		}
	}
	for _, want := range []string{"cc.compile", "link.link", "om.lift", "atom.plan", "atom.image.build", "atom.apply"} {
		if !seen[want] {
			return fmt.Errorf("%s: no %q span in trace", path, want)
		}
	}
	if !attributed {
		return fmt.Errorf("%s: no cache lookup with an outcome attribute in trace", path)
	}
	return nil
}

// outputName derives an output path: an explicit -o wins (single input),
// otherwise the input's extension is replaced by ".atom" ("a.atom" for
// an extensionless bare name like "a").
func outputName(input, explicit string) string {
	if explicit != "" {
		return explicit
	}
	if dot := strings.LastIndexByte(input, '.'); dot > strings.LastIndexByte(input, '/') {
		return input[:dot] + ".atom"
	}
	return input + ".atom"
}

// printLayout renders the paper's Figure 4: the memory organization of
// the instrumented executable against the uninstrumented one.
func printLayout(app *aout.File, res *core.Result) {
	s := res.Stats
	heap := res.Exe.BssAddr + res.Exe.Bss
	fmt.Printf("memory layout (Figure 4):\n")
	fmt.Printf("  %#10x  stack base (grows down)            [unchanged]\n", app.TextAddr)
	fmt.Printf("  %#10x  instrumented program text  %7d B  [was %d B]\n", app.TextAddr, s.InstrText, s.OrigText)
	fmt.Printf("  %#10x  analysis text              %7d B\n", s.AnalysisTextAddr, s.AnalysisText)
	fmt.Printf("  %#10x  analysis data (bss zeroed) %7d B\n", s.AnalysisDataAddr, s.AnalysisData)
	fmt.Printf("  %#10x  program data               %7d B  [address unchanged]\n", res.Exe.DataAddr, len(res.Exe.Data))
	fmt.Printf("  %#10x  program bss                %7d B  [address unchanged]\n", res.Exe.BssAddr, res.Exe.Bss)
	fmt.Printf("  %#10x  heap base (grows up)                [unchanged]\n", heap)
	if res.HeapOffset != 0 {
		fmt.Printf("  %#10x  analysis heap zone (+%#x)\n", heap+res.HeapOffset, res.HeapOffset)
	}
}

func runTable(which, progList, benchJSON string, verbose bool) int {
	var progress *os.File
	if verbose {
		progress = os.Stderr
	}
	var names []string
	if progList != "" {
		names = strings.Split(progList, ",")
	}
	switch which {
	case "fig5":
		rows, hists, err := figures.Fig5(names, progress)
		if err != nil {
			return fail(err)
		}
		figures.PrintFig5(os.Stdout, rows)
		if benchJSON != "" {
			if err := figures.WriteBenchJSON(benchJSON, rows, nil, 0, hists); err != nil {
				return fail(err)
			}
		}
	case "fig6":
		// The fig6 measurement executes every suite program on the VM, so
		// the process-wide retired-instruction delta over its wall time is
		// the interpreter's aggregate retirement rate (vm_minst_s).
		icount0 := vm.Totals().Icount
		start := time.Now()
		rows, hists, err := figures.Fig6(names, progress)
		wall := time.Since(start)
		if err != nil {
			return fail(err)
		}
		figures.PrintFig6(os.Stdout, rows)
		if benchJSON != "" {
			var minstS float64
			if secs := wall.Seconds(); secs > 0 {
				minstS = float64(vm.Totals().Icount-icount0) / 1e6 / secs
			}
			if err := figures.WriteBenchJSON(benchJSON, nil, rows, minstS, hists); err != nil {
				return fail(err)
			}
		}
	default:
		return fail(fmt.Errorf("unknown table %q (fig5 or fig6)", which))
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "atom:", err)
	return 1
}
