package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/om"
	"atom/internal/prof"
	"atom/internal/rtl"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// workload is one benchmark regime. Every workload instruments and runs
// the whole 20-program suite, so its deterministic fields do not depend
// on the seed; the seed decides the order of programs and tools.
type workload struct {
	// tools are applied to every suite program.
	tools []string
	// instrumentInLoop measures instrumentation sweeps in the loop and
	// runs a check pass after it; otherwise the tools are applied during
	// set-up and the loop runs the executables.
	instrumentInLoop bool
	// profileTools runs every instrumented executable a second time under
	// the profiler; uninstrumented programs always run both ways.
	profileTools bool
}

var workloads = map[string]workload{
	// Figure 5: per tool, a cold image build, then lift + plan + apply for
	// every program. The VM runs only in the check pass.
	"instrument": {tools: tools.Names(), instrumentInLoop: true},
	// Figure 6 for the per-event tools: the VM spends its time in
	// injected code, where short blocks and save/restore traffic dominate.
	"run_dense": {tools: []string{"branch", "cache", "dyninst", "gprof", "pipe", "prof", "unalign"}},
	// Figure 6 for the rare-event tools plus the bare suite, each run bare
	// and profiled: long application blocks, vm.New a large share, and the
	// profiler's per-instruction probe loop.
	"run_sparse": {tools: []string{"inline", "io", "malloc", "syscall"}, profileTools: true},
}

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 5
	// checkPrograms is how many of the shortest-running programs the
	// instrument workload's check passes run under every tool, and
	// checkPasses how often. All 220 executables would take longer than
	// the measured loop; repeating the passes steadies their timings.
	checkPrograms = 4
	checkPasses   = 3
	// maxInstr bounds every run, as internal/figures does for Figure 6.
	maxInstr = 4_000_000_000
	// maxFailures caps the failure messages kept for the result file.
	maxFailures = 100
)

// instrumentOpts are the options every tool is applied with. The heap is
// partitioned, the paper's scheme that keeps application heap addresses
// unchanged: compress writes past the end of its last bss array into the
// heap, so under the default linked heap it reads the analysis routines'
// heap data and its output changes.
var instrumentOpts = core.Options{HeapOffset: 1 << 20}

// Root span names: the kinds of operation the benchmark performs.
const (
	opImageBuild  = "bench.image_build"
	opInstrument  = "bench.instrument"
	opRun         = "bench.run"
	opProfiledRun = "bench.profiled_run"
)

// pair names one executable: a tool applied to a program, or the
// uninstrumented program when tool is empty.
type pair struct{ tool, prog string }

func (k pair) String() string {
	if k.tool == "" {
		return "-/" + k.prog
	}
	return k.tool + "/" + k.prog
}

func sortedPairs[V any](m map[pair]V) []pair {
	keys := make([]pair, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tool != keys[j].tool {
			return keys[i].tool < keys[j].tool
		}
		return keys[i].prog < keys[j].prog
	})
	return keys
}

// runOut is what one VM run produced, kept without the machine, whose
// 64 MiB memory must not stay live.
type runOut struct {
	exit   int
	stdout []byte
	files  map[string][]byte
	icount uint64
}

// runSamples are the timings of one executable's runs, in milliseconds on
// the process CPU clock (see cpuNow). The wall time of a run is vm.New plus
// Run, what a user of the VM pays.
type runSamples struct {
	wall, newMS, runMS []float64
	icount             uint64 // retired instructions, summed over the runs
	samples            uint64 // profiler samples, summed over the runs
}

// acc holds the measurements of one tracing mode.
type acc struct {
	rounds    int
	roundSecs []float64

	sweeps  []float64              // s per instrumentation sweep
	builds  map[string][]float64   // ms per cold image build, by tool
	buildMS float64                // the builds' sum
	inst    []float64              // ms per lift + plan + apply
	instBy  map[pair][]float64     // the same, by executable
	caches  map[string]build.Stats // summed over sweeps: image, objects, ir

	runs     map[pair]*runSamples // unprofiled runs
	profiled map[pair]*runSamples
	vm       vm.TotalStats // deltas of vm.Totals summed over unprofiled runs
	nRuns    int           // unprofiled runs

	allocBytes, pauseNs uint64 // Go runtime, summed over rounds
}

func newAcc() *acc {
	return &acc{
		builds:   map[string][]float64{},
		instBy:   map[pair][]float64{},
		caches:   map[string]build.Stats{},
		runs:     map[pair]*runSamples{},
		profiled: map[pair]*runSamples{},
	}
}

// bench is one run of one workload.
type bench struct {
	name    string
	wl      workload
	seed    int64
	rng     *rand.Rand
	log     io.Writer
	tracing bool // the traced variant: per-layer metrics are reported
	tr      *tracer
	speed   *speedProbe

	ops      tally
	failures []string

	suite  []spec.Program
	exes   map[string]*aout.File  // compiled suite, by program
	ref    map[string]*runOut     // uninstrumented reference run, by program
	res    map[pair]*instrumented // latest instrumented executable
	stats  map[pair]core.Stats
	digest map[pair]string
	icount map[pair]uint64 // retired instructions of every executable run

	setups []float64 // s per set-up
	plain  *acc      // untraced measurements: the end-to-end metrics
	traced *acc      // traced measurements: the per-layer metrics
}

func newBench(name string, wl workload, seed int64, tracing bool, log io.Writer) *bench {
	b := &bench{
		name: name, wl: wl, seed: seed, rng: rand.New(rand.NewSource(seed)), log: log,
		tracing: tracing, tr: newTracer(), speed: newSpeedProbe(),
		suite: spec.Suite(), ref: map[string]*runOut{}, res: map[pair]*instrumented{},
		stats: map[pair]core.Stats{}, digest: map[pair]string{}, icount: map[pair]uint64{},
		plain: newAcc(),
	}
	b.traced = b.plain
	if tracing {
		b.traced = newAcc()
	}
	return b
}

// run sets up setupReps times, runs whole rounds of the suite until the
// budget is about spent, and, for the instrument workload, runs the check
// pass. A traced run traces set-up and check and alternates untraced and
// traced rounds, so that the round times give the tracing overhead.
func (b *bench) run(budget time.Duration) error {
	b.tr.on = b.tracing
	b.speed.poll()
	for i := 0; i < setupReps; i++ {
		start, probing := cpuNow(), b.speed.spent
		if err := b.setup(b.traced); err != nil {
			return err
		}
		b.setups = append(b.setups, (cpuNow() - start - (b.speed.spent - probing)).Seconds())
	}
	minRounds := 1
	if b.tracing {
		minRounds = 2
	}
	start := time.Now()
	for r := 1; ; r++ {
		a := b.plain
		if b.tracing && r%2 == 0 {
			a = b.traced
		}
		b.tr.on = b.tracing && a == b.traced
		b.round(a)
		// Stop at the round boundary nearest the budget.
		elapsed := time.Since(start)
		if r >= minRounds && elapsed+elapsed/time.Duration(2*r) >= budget {
			break
		}
	}
	if b.wl.instrumentInLoop {
		// Return the sweeps' garbage to the system first. Otherwise whether
		// the first machine's memory comes on top of it decides the peak
		// RSS, which then jumps by tens of MB from run to run.
		debug.FreeOSMemory()
		b.tr.on = b.tracing
		for i := 0; i < checkPasses; i++ {
			b.runPass(b.traced, b.checkSet(), false)
		}
	}
	b.tr.on = false
	computeSelf(b.tr.spans)
	return nil
}

// setup compiles the suite, runs every program once uninstrumented, the
// reference every later run is checked against, and, for the run
// workloads, applies the workload's tools to every program.
func (b *bench) setup(a *acc) error {
	rtl.ResetObjectCache(build.ScopeMemory)
	b.exes = make(map[string]*aout.File, len(b.suite))
	for _, p := range b.suite {
		exe, err := rtl.BuildProgram(p.Name+".c", p.Src)
		if err != nil {
			return fmt.Errorf("building %s: %w", p.Name, err)
		}
		b.exes[p.Name] = exe
	}
	for _, p := range b.suite {
		b.runOne(nil, pair{prog: p.Name}, false)
	}
	if !b.wl.instrumentInLoop {
		b.sweep(a, b.suite)
	}
	return nil
}

// round covers the suite once, in seed order.
func (b *bench) round(a *acc) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, probing := cpuNow(), b.speed.spent
	var progs []spec.Program
	for _, i := range b.rng.Perm(len(b.suite)) {
		progs = append(progs, b.suite[i])
	}
	if b.wl.instrumentInLoop {
		b.sweep(a, progs)
	} else {
		b.runPass(a, progs, b.wl.profileTools)
	}
	a.roundSecs = append(a.roundSecs, (cpuNow() - start - (b.speed.spent - probing)).Seconds())
	a.rounds++
	runtime.ReadMemStats(&m1)
	a.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	a.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
}

// checkSet returns the checkPrograms programs with the fewest retired
// instructions uninstrumented.
func (b *bench) checkSet() []spec.Program {
	progs := append([]spec.Program(nil), b.suite...)
	sort.SliceStable(progs, func(i, j int) bool {
		return b.icount[pair{prog: progs[i].Name}] < b.icount[pair{prog: progs[j].Name}]
	})
	return progs[:checkPrograms]
}

// ok counts one operation and reports whether it succeeded, logging the
// failure when it did not.
func (b *bench) ok(err error, what string) bool {
	if b.ops.count(err) {
		return true
	}
	msg := what + ": " + err.Error()
	if len(b.failures) < maxFailures {
		b.failures = append(b.failures, msg)
	}
	fmt.Fprintln(b.log, "perfbench: FAIL", msg)
	return false
}

// sweep applies every tool of the workload, in seed order, to progs. Its
// time is that of the image builds and instrumentations it performs,
// without the benchmark's own checks.
func (b *bench) sweep(a *acc, progs []spec.Program) {
	// Start from a collected heap, so that the garbage of the VM runs
	// before the sweep is not charged to it, while the collections its own
	// allocations cause fall inside its timed operations.
	runtime.GC()
	n, m := len(a.inst), a.buildMS
	for _, i := range b.rng.Perm(len(b.wl.tools)) {
		b.instrumentTool(a, b.wl.tools[i], progs)
	}
	a.sweeps = append(a.sweeps, (a.buildMS-m+sum(a.inst[n:]))/1e3)
}

// instrumentTool drops the in-memory artifact caches, builds the tool's
// image cold and applies it to each program.
func (b *bench) instrumentTool(a *acc, name string, progs []spec.Program) {
	tool, _ := tools.ByName(name)
	core.ResetImageCache(build.ScopeMemory)
	rtl.ResetObjectCache(build.ScopeMemory)
	build.ResetIRCache(build.ScopeMemory)
	defer a.addCaches()

	b.speed.poll()
	root := b.tr.begin(0, opImageBuild)
	var ti *core.ToolImage
	var err error
	start := cpuNow()
	b.tr.call(root, "core.BuildToolImageCtx", func(ctx *obs.Ctx) {
		ti, err = core.BuildToolImageCtx(ctx, tool, instrumentOpts)
	})
	d := ms(cpuNow() - start)
	b.tr.end(root)
	if !b.ok(err, "building the "+name+" image") {
		return
	}
	a.builds[name] = append(a.builds[name], d)
	a.buildMS += d
	for _, p := range progs {
		b.instrumentOne(a, ti, pair{name, p.Name})
	}
}

// instrumentOne lifts one program and applies a tool image to it.
func (b *bench) instrumentOne(a *acc, ti *core.ToolImage, k pair) {
	b.speed.poll()
	root := b.tr.begin(0, opInstrument)
	var prog *om.Program
	var res *core.Result
	var err error
	start := cpuNow()
	b.tr.call(root, "core.LiftCtx", func(ctx *obs.Ctx) {
		prog, err = core.LiftCtx(ctx, b.exes[k.prog])
	})
	if err == nil {
		b.tr.call(root, "core.ApplyProgramCtx", func(ctx *obs.Ctx) {
			res, err = core.ApplyProgramCtx(ctx, prog, ti, instrumentOpts)
		})
	}
	d := ms(cpuNow() - start)
	b.tr.end(root)
	if err == nil {
		err = b.keep(k, res)
	}
	if !b.ok(err, "instrumenting "+k.String()) {
		return
	}
	a.inst = append(a.inst, d)
	a.instBy[k] = append(a.instBy[k], d)
}

// instrumented is what the runs need of one instrumented executable. A
// profiled run needs the PC maps, but not the om.Layout that provides
// them: it holds the whole om.Program, and keeping every pair's would hold
// tens of MB live, which every collection during a run would then mark.
type instrumented struct {
	exe        *aout.File
	heapOffset uint64
	procs      []om.ProcRange
	newToOld   map[uint64]uint64
}

// oldAddr is om.Layout.OldAddr over the kept map.
func (in *instrumented) oldAddr(pc uint64) (uint64, bool) {
	old, ok := in.newToOld[pc]
	return old, ok
}

// keep stores a fresh instrumented executable after checking that its
// bytes equal every earlier instrumentation of the same pair.
func (b *bench) keep(k pair, res *core.Result) error {
	sum := sha256.Sum256(res.Exe.Encode())
	d := hex.EncodeToString(sum[:])
	if prev, ok := b.digest[k]; ok && prev != d {
		return fmt.Errorf("executable digest %.12s differs from an earlier instrumentation's %.12s", d, prev)
	}
	b.digest[k] = d
	b.stats[k] = res.Stats
	in := &instrumented{exe: res.Exe, heapOffset: res.HeapOffset}
	if b.wl.profileTools {
		in.procs = res.PCMap.OrigProcs()
		pairs := res.PCMap.PCPairs()
		in.newToOld = make(map[uint64]uint64, len(pairs))
		for _, p := range pairs {
			in.newToOld[p.New] = p.Old
		}
	}
	b.res[k] = in
	return nil
}

// addCaches adds the artifact caches' counters to a's totals; they count
// from the last reset.
func (a *acc) addCaches() {
	for name, s := range map[string]build.Stats{
		"image":   core.ImageCacheStats(),
		"objects": rtl.ObjectCacheStats(),
		"ir":      build.IRCacheStats(),
	} {
		t := a.caches[name]
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Builds += s.Builds
		a.caches[name] = t
	}
}

// runPass runs each program of progs uninstrumented, uninstrumented under
// the profiler, and with each tool of the workload in seed order (under
// the profiler too when profileTools is set).
func (b *bench) runPass(a *acc, progs []spec.Program, profileTools bool) {
	for _, p := range progs {
		bare := pair{prog: p.Name}
		b.runOne(a, bare, false)
		b.runOne(a, bare, true)
		for _, i := range b.rng.Perm(len(b.wl.tools)) {
			k := pair{b.wl.tools[i], p.Name}
			b.runOne(a, k, false)
			if profileTools {
				b.runOne(a, k, true)
			}
		}
	}
}

// runOne runs one executable on a fresh machine, checks the run, and
// records its timings in a (when a is not nil).
func (b *bench) runOne(a *acc, k pair, profiled bool) {
	p, _ := spec.ByName(k.prog)
	exe := b.exes[k.prog]
	cfg := vm.Config{Stdin: p.Stdin, FS: p.FS, MaxInstr: maxInstr}
	procs, mapPC := prof.ProcsFromSymbols(exe.Symbols), (func(uint64) (uint64, bool))(nil)
	if k.tool != "" {
		in := b.res[k]
		if in == nil {
			return // its instrumentation failed and was counted
		}
		exe, cfg.AnalysisHeapOffset = in.exe, in.heapOffset
		if profiled {
			procs, mapPC = in.procs, in.oldAddr
		}
	}
	name, what := opRun, "running "+k.String()
	if profiled {
		name, what = opProfiledRun, what+" profiled"
	}
	root := b.tr.begin(0, name)
	pc := b.tr.program()
	cfg.Obs = pc.ctx
	var pr *prof.Profiler
	if profiled {
		pr = prof.New(prof.Options{Procs: procs, MapPC: mapPC, Obs: pc.ctx})
		pr.Attach(&cfg)
	}

	// Every run starts from a collected heap, as in a fresh process: the
	// previous machine's memory is garbage, and collecting it during this
	// run would charge this run for it.
	runtime.GC()
	b.speed.poll()
	sp := b.tr.begin(root, "vm.New")
	start := cpuNow()
	m, err := vm.New(exe, cfg)
	tNew := cpuNow() - start
	b.tr.end(sp)
	var tRun time.Duration
	var before, after vm.TotalStats
	out := &runOut{}
	if err == nil {
		sp = b.tr.begin(root, "Machine.Run")
		before = vm.Totals()
		start = cpuNow()
		out.exit, err = m.Run()
		tRun = cpuNow() - start
		after = vm.Totals()
		if pr != nil {
			pr.Flush()
		}
		b.tr.adopt(sp, pc)
		b.tr.end(sp)
		out.stdout, out.files, out.icount = m.Stdout, m.FSOut, m.Icount
	}
	b.tr.end(root)
	if err == nil {
		err = b.check(k, out)
	}
	if !b.ok(err, what) || a == nil {
		return
	}

	all := a.runs
	if profiled {
		all = a.profiled
	} else {
		a.addVM(before, after)
	}
	s := all[k]
	if s == nil {
		s = &runSamples{}
		all[k] = s
	}
	s.wall = append(s.wall, ms(tNew+tRun))
	s.newMS = append(s.newMS, ms(tNew))
	s.runMS = append(s.runMS, ms(tRun))
	s.icount += out.icount
	if pr != nil {
		s.samples += pr.TotalSamples()
	}
}

// addVM adds one run's deltas of the process-wide VM totals.
func (a *acc) addVM(before, after vm.TotalStats) {
	a.nRuns++
	a.vm.Icount += after.Icount - before.Icount
	a.vm.Loads += after.Loads - before.Loads
	a.vm.Stores += after.Stores - before.Stores
	a.vm.SBBuilt += after.SBBuilt - before.SBBuilt
	a.vm.SBHits += after.SBHits - before.SBHits
	a.vm.SBLinks += after.SBLinks - before.SBLinks
	a.vm.SBInval += after.SBInval - before.SBInval
}

// check holds a run to the program's uninstrumented reference run and
// its instruction count to every earlier run of the same executable. The
// first uninstrumented run of a program becomes its reference.
func (b *bench) check(k pair, out *runOut) error {
	if prev, ok := b.icount[k]; ok && prev != out.icount {
		return fmt.Errorf("retired %d instructions, an earlier run %d", out.icount, prev)
	}
	b.icount[k] = out.icount
	ref := b.ref[k.prog]
	if ref == nil {
		if k.tool != "" {
			return errors.New("no uninstrumented reference run")
		}
		b.ref[k.prog] = out
		return nil
	}
	return compareRuns(ref, out, k.tool)
}

// compareRuns reports how got departs from the uninstrumented reference
// run: its exit code, stdout and the files the application writes must be
// equal, and the tool's report, if tool is set, must be non-empty.
func compareRuns(ref, got *runOut, tool string) error {
	if got.exit != ref.exit {
		return fmt.Errorf("exit code %d, uninstrumented %d", got.exit, ref.exit)
	}
	if !bytes.Equal(got.stdout, ref.stdout) {
		return errors.New("stdout differs from the uninstrumented run")
	}
	report := ""
	if tool != "" {
		report = tool + ".out"
		if len(got.files[report]) == 0 {
			return fmt.Errorf("tool report %s is missing or empty", report)
		}
	}
	for path, data := range ref.files {
		if got, ok := got.files[path]; !ok || !bytes.Equal(got, data) {
			return fmt.Errorf("file %s differs from the uninstrumented run", path)
		}
	}
	for path := range got.files {
		if _, ok := ref.files[path]; !ok && path != report {
			return fmt.Errorf("file %s is not written by the uninstrumented run", path)
		}
	}
	return nil
}
