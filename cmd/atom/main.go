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
// reported, and the exit status is non-zero iff any program failed. An
// input whose output an earlier input already claimed (a/p.x and a/p.y
// both name a/p.atom) fails the same way instead of overwriting it.
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
// profiler's call/return events fire at block terminators, and where a
// block would cross a sampling point the VM single-steps to that point
// and then on to the next block entry or control transfer.
//
// The pipeline is observable end to end:
//
//	atom -t cache -trace t.json prog.x   # Chrome trace (chrome://tracing)
//	atom -t cache -metrics - prog.x      # span/counter/histogram snapshot
//	atom -t cache -cpuprofile cpu.pprof prog.x
//	atom -t cache -vet prog.x            # verify IR, PC maps, rewritten text
//
// and observable live: -debug-addr starts an embedded debug server with
// Prometheus /metrics, /healthz and net/http/pprof for the length of the
// invocation. Its /metrics renders the same aggregate the -metrics
// snapshot writes, so a scrape at the end of a run and the snapshot agree:
//
//	atom -t cache -j 4 -debug-addr 127.0.0.1:6060 prog1.x prog2.x ...
//
// -trace - streams the trace JSON to stdout and -metrics - prints the
// snapshot to stderr; both also accept ordinary file paths. The -metrics
// snapshot is the one machine-readable report: every span total,
// counter (the atom.batch.* program counts and the
// store.<kind>.<outcome> cache counters included) and histogram of the
// invocation.
//
// -heap N partitions the heap (the paper's Figure 4 scheme): the
// analysis routines allocate from a zone N bytes past the heap base, so
// the application's heap addresses match its uninstrumented run. The
// offset is recorded in the output executable itself, so a later
// `atom -run prog.atom` (or arun) runs it under the same scheme with no
// flag.
//
// atom -list prints the 11 tools. The paper's Figures 5 and 6 are
// regenerated by the benchmark in perfbench/, not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/obs"
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
		heapOff       = flag.Uint64("heap", 0, "partition the heap: analysis zone offset in bytes, a multiple of 8, recorded in the output (0 = linked sbrks)")
		noSummary     = flag.Bool("nosummary", false, "disable the data-flow register summary (save all caller-save registers)")
		noLiveness    = flag.Bool("noliveness", false, "disable the register-liveness analysis (save registers without regard to liveness)")
		noInline      = flag.Bool("noinline", false, "disable analysis-routine inlining (always call through the register-save wrapper)")
		vet           = flag.Bool("vet", false, "verify the OM IR before instrumentation and the PC maps and rewritten text after")
		analyze       = flag.Bool("analyze", false, "run the static-analysis passes over the inputs (and the -t tool's image) and report findings instead of instrumenting")
		analyzeJSON   = flag.String("analyze-json", "", "with -analyze: also write the reports as JSON (atom-analyze/v1) to this file")
		passSpec      = flag.String("passes", "", "with -analyze: comma-separated pass subset (default: all; names: uninit, stackheight, callgraph, toollint)")
		analyzeAs     = flag.String("analyze-as", "app", "with -analyze: treat inputs as an application or a tool image: app | tool")
		jobs          = flag.Int("j", 1, "instrument up to N input programs in parallel (0 = GOMAXPROCS)")
		list          = flag.Bool("list", false, "list the built-in tools")
		stats         = flag.Bool("stats", false, "print instrumentation and cache statistics")
		layout        = flag.Bool("layout", false, "print the instrumented executable's memory layout (Figure 4)")
		verbose       = flag.Bool("v", false, "print an \"in -> out\" line per program of a multi-program batch")
		progress      = flag.Bool("progress", false, "live status line on stderr for multi-program instrument batches")
		tracePath     = flag.String("trace", "", `write a Chrome trace_event JSON of the pipeline to this file ("-" = stdout)`)
		metrics       = flag.String("metrics", "", `write a span/counter/histogram metrics snapshot to this file ("-" = stderr)`)
		debugAddr     = flag.String("debug-addr", "", "serve this invocation's metrics live on this address (host:port; port 0 picks one): Prometheus /metrics (the -metrics aggregate), /debug/pprof/, /healthz")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of atom itself to this file")
		runMode       = flag.Bool("run", false, "execute the (instrumented) program on the VM; extra arguments become its argv")
		profilePath   = flag.String("profile", "", "sample the VM run and write the profile to this file (implies -run)")
		profilePeriod = flag.Uint64("profile-period", 10000, "sampling period in retired instructions")
		profileFormat = flag.String("profile-format", "flat", "profile report format: flat | folded")
		cacheDir      = flag.String("cache-dir", os.Getenv("ATOM_CACHE_DIR"), "persistent artifact cache directory shared across processes: one verified file per artifact, never pruned (delete it to reclaim space; default $ATOM_CACHE_DIR; empty = in-memory only)")
	)
	flag.Parse()

	if *list {
		for _, t := range tools.All() {
			fmt.Printf("%-8s  %s\n", t.Name, t.Description)
		}
		return 0
	}
	doRun := *runMode || *profilePath != ""

	switch {
	case *analyze && doRun:
		return fail(fmt.Errorf("-analyze reports findings; it cannot be combined with -run"))
	case *analyze && *analyzeAs != "app" && *analyzeAs != "tool":
		return fail(fmt.Errorf("bad -analyze-as %q (app or tool)", *analyzeAs))
	}
	// -analyze with only a tool lints the built image; no input needed.
	needInput := !(*analyze && *toolName != "")
	needTool := *toolName == "" && !doRun && !*analyze
	if (needInput && flag.NArg() < 1) || needTool {
		fmt.Fprintln(os.Stderr, "usage: atom prog.x [prog2.x ...] -t tool [-o prog.atom] [-j N] [-mode wrapper|inanalysis] [-heap N] [-vet]")
		fmt.Fprintln(os.Stderr, "       atom [-t tool] -run [-profile file [-profile-period N] [-profile-format flat|folded]] prog.x [args...]")
		fmt.Fprintln(os.Stderr, "       atom -analyze [-passes p1,p2] [-analyze-json file] [-t tool] [prog.x ...]")
		fmt.Fprintln(os.Stderr, "       atom -list")
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
	// of spans or counters is active. -metrics and -debug-addr need no
	// sink: both render the context's own obs.Metrics aggregate.
	var (
		traceSink *obs.TraceSink
		sinks     []obs.Sink
	)
	if *tracePath != "" {
		traceSink = &obs.TraceSink{}
		sinks = append(sinks, traceSink)
	}
	var ctx *obs.Ctx
	if len(sinks) > 0 || *metrics != "" || *debugAddr != "" {
		ctx = obs.New(sinks...)
	}

	// The persistent store opens after the stage context exists, so its
	// store.open span (and any store.get/store.put under the lookups)
	// lands in -trace and -metrics output.
	if *cacheDir != "" {
		if err := build.SetCacheDir(ctx, *cacheDir); err != nil {
			return fail(err)
		}
	}
	var srv *telemetry.Server
	if *debugAddr != "" {
		srv = telemetry.NewServer(ctx.Metrics())
		if err := srv.Start(*debugAddr); err != nil {
			return fail(err)
		}
		// The resolved address matters with port 0; scripts poll stderr
		// for this line to find the endpoints.
		fmt.Fprintf(os.Stderr, "atom: telemetry listening on http://%s\n", srv.Addr())
	}

	// Fail-soft flush: no matter how the batch or the run ends — a
	// program erroring mid-run, or a SIGINT/SIGTERM, included — the trace
	// file is written, the metrics snapshot printed, and the debug server
	// shut down. (The persistent store needs no flush: each blob is
	// renamed into place, fsynced, by the Put that wrote it.) The
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

	if *analyze {
		return runAnalyze(ctx, analyzeConfig{
			inputs:   flag.Args(),
			tool:     tool,
			haveTool: *toolName != "",
			opts:     opts,
			passSpec: *passSpec,
			asKind:   *analyzeAs,
			jsonPath: *analyzeJSON,
		})
	}

	if doRun {
		return runUnderVM(ctx, runConfig{
			input:         flag.Arg(0),
			progArgs:      flag.Args()[1:],
			tool:          tool,
			haveTool:      *toolName != "",
			opts:          opts,
			outPath:       *outPath,
			profilePath:   *profilePath,
			profilePeriod: *profilePeriod,
			profileFormat: *profileFormat,
			stats:         *stats,
		})
	}

	// Read every input before instrumenting any; per-program read errors
	// and output collisions fail soft like instrumentation errors do.
	inputs := flag.Args()
	outs, errs := claimOutputs(inputs, *outPath)
	apps := make([]*aout.File, len(inputs))
	for i, path := range inputs {
		if errs[i] != nil {
			continue
		}
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
		// Per-program completion counters show on /metrics as the batch
		// runs, so a live reader watches progress without the -progress
		// status line.
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
			failed++
			continue
		}
		out := outs[i]
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
	profilePath   string
	profilePeriod uint64
	profileFormat string
	stats         bool
}

// runUnderVM executes one program on the VM — instrumenting it first
// when a tool was selected — with the sampling profiler attached when
// requested. The profile is written even when the program faults
// mid-run, so a crashing workload still yields its observability
// artifacts.
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
	exitCode, runErr := m.Run()
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
		fmt.Printf("analysis heap offset:    %#x\n", res.HeapOffset)
	}
}

// printCacheStats renders the two artifact caches (and, when a
// -cache-dir store is configured, the store itself) for -stats.
func printCacheStats() {
	ic, oc := core.ImageCacheStats(), rtl.ObjectCacheStats()
	fmt.Printf("image cache:             %d hits, %d disk hits, %d misses, %d builds\n", ic.Hits, ic.DiskHits, ic.Misses, ic.Builds)
	fmt.Printf("object cache:            %d hits, %d disk hits, %d misses, %d builds\n", oc.Hits, oc.DiskHits, oc.Misses, oc.Builds)
	if s := build.ActiveStore(); s != nil {
		st := s.Stats()
		fmt.Printf("disk store:              %d hits, %d misses, %d puts, %d corrupt\n",
			st.Hits, st.Misses, st.Puts, st.Corrupt)
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

// claimOutputs names each input's output (see outputName) and fails
// every input whose output an earlier input of the same invocation
// already claimed, so no output of a batch silently overwrites another.
func claimOutputs(inputs []string, explicit string) ([]string, []error) {
	outs := make([]string, len(inputs))
	errs := make([]error, len(inputs))
	owner := map[string]string{}
	for i, in := range inputs {
		outs[i] = outputName(in, explicit)
		key := filepath.Clean(outs[i])
		if prev, ok := owner[key]; ok {
			errs[i] = fmt.Errorf("output %s is already claimed by %s", outs[i], prev)
			continue
		}
		owner[key] = in
	}
	return outs, errs
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

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "atom:", err)
	return 1
}
