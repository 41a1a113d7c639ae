package atom_test

// Benchmarks of what the repository's benchmark (perfbench/) does not
// measure. Figures 5 and 6 are perfbench's instrument, run_dense and
// run_sparse workloads: bash perfbench/run.sh --workload instrument ...
//
//   - BenchmarkInstrumentSuite, BenchmarkInstrumentDiskWarm — instrumenting
//     with the parallel fan-out driver, and from a warm persistent cache
//     directory.
//
//   - BenchmarkSaveMode, BenchmarkRegSummary, BenchmarkLiveness,
//     BenchmarkInline — ablations of the design choices Section 4
//     discusses (wrapper vs in-analysis saves, the data-flow register
//     summary vs saving all caller-save registers) and of the two
//     future-work items implemented here (liveness, inlining), as
//     instruction ratios.
//
//   - BenchmarkScheduler, BenchmarkVM, BenchmarkCompile, BenchmarkLift —
//     substrate costs: pipe's static dual-issue scheduling, raw
//     interpreter speed, MiniC compilation, and the lift of gcc.
//
//   - BenchmarkLiftLiveness — the two tool-independent stages of every
//     instrumentation, each alone over the 20 suite programs: the lift
//     and the global liveness fixpoint, as us/prog, B/op and allocs/op.
//
//   - BenchmarkVMRunSuite — the interpreter on instrumented suite
//     programs, per tool: the injected code perfbench's run_dense
//     workload runs, as Minst/s without perfbench.
//
//   - internal/vm's BenchmarkVMRun, BenchmarkVMRunTextData and
//     BenchmarkVMRunProfiled — the superblock dispatcher on synthetic
//     loops: bare, with a text-resident counter store per iteration, and
//     under a sampling probe at the profiler's default period (Minst/s
//     beside BenchmarkVMRun's, and the probed/bare slowdown).
//
// Run everything:  go test -bench=. -benchmem -run='^$' . ./internal/vm

import (
	"runtime"
	"testing"

	"atom"
	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/figures"
	"atom/internal/om"
	"atom/internal/om/dataflow"
	"atom/internal/rtl"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// BenchmarkInstrumentSuite measures the parallel fan-out driver: the
// whole 20-program suite instrumented with one tool at GOMAXPROCS
// workers, sharing a single cached analysis image.
func BenchmarkInstrumentSuite(b *testing.B) {
	var apps []*atom.Executable
	for _, p := range spec.Suite() {
		exe, err := spec.BuildCtx(nil, p.Name)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, exe)
	}
	tool, _ := tools.ByName("cache")
	if _, err := core.BuildToolImageCtx(nil, tool, core.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atom.InstrumentSuite(apps, tool, core.Options{}, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perProg := float64(b.Elapsed().Milliseconds()) / float64(b.N) / float64(len(apps))
	b.ReportMetric(perProg, "ms/program")
}

// BenchmarkInstrumentDiskWarm measures the third cost regime the
// persistent store adds beside cold and memory-warm: a fresh process
// against a warm cache directory. Every iteration drops the in-memory
// caches (what a new process sees) and instruments with every artifact —
// tool image and compiled objects — decoded from a DiskStore
// instead of rebuilt. Compare with perfbench's tool_build_ms (a cold
// image build) and instrument_ms (everything in memory).
func BenchmarkInstrumentDiskWarm(b *testing.B) {
	ds, err := build.OpenDiskStore(nil, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	prev := build.SwapStore(ds)
	defer build.SwapStore(prev)

	exe, err := spec.BuildCtx(nil, "eqntott")
	if err != nil {
		b.Fatal(err)
	}
	tool, _ := tools.ByName("cache")
	// Seed the store: one cold pass from empty memory persists every
	// artifact.
	core.ResetImageCache(build.ScopeMemory)
	rtl.ResetObjectCache(build.ScopeMemory)
	if _, err := core.InstrumentCtx(nil, exe, tool, core.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		core.ResetImageCache(build.ScopeMemory)
		rtl.ResetObjectCache(build.ScopeMemory)
		b.StartTimer()
		if _, err := core.InstrumentCtx(nil, exe, tool, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := core.ImageCacheStats(); s.Builds != 0 {
		b.Fatalf("disk-warm iterations rebuilt the image %d times", s.Builds)
	}
}

// BenchmarkSaveMode ablates the register-save strategy on the branch tool
// (per-event instrumentation, so the save cost dominates): wrapper
// routines (default), saves spliced into the analysis routines (the
// paper's higher optimization option), and both with/without wrappers is
// visible in the ratio metric.
func BenchmarkSaveMode(b *testing.B) {
	cases := []struct {
		name string
		opts core.Options
	}{
		{"wrapper", core.Options{Mode: core.SaveWrapper}},
		{"inanalysis", core.Options{Mode: core.SaveInAnalysis}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := figures.RatioFor("branch", "eqntott", c.opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r, "ratio")
			}
		})
	}
}

// BenchmarkRegSummary ablates the interprocedural data-flow summary: with
// it, only the registers an analysis routine can clobber are saved;
// without it, every caller-save register is.
func BenchmarkRegSummary(b *testing.B) {
	cases := []struct {
		name string
		opts core.Options
	}{
		{"summary", core.Options{}},
		{"save-all", core.Options{NoRegSummary: true}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := figures.RatioFor("cache", "eqntott", c.opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r, "ratio")
			}
		})
	}
}

// BenchmarkLiveness ablates the global register-liveness analysis
// (the paper's "Only the live registers need to be saved and restored"
// refinement, the top rung of the ladder): per-tool, the instrumented/
// uninstrumented instruction ratio and the average registers saved per
// site with the analysis on (default) and off. The per-event tools show
// the effect most clearly — every site that saves fewer registers
// executes fewer loads and stores per event.
func BenchmarkLiveness(b *testing.B) {
	for _, tname := range []string{"branch", "cache", "prof"} {
		tname := tname
		tool, _ := tools.ByName(tname)
		for _, c := range []struct {
			name string
			opts core.Options
		}{
			{"on", core.Options{}},
			{"off", core.Options{NoLiveness: true}},
		} {
			c := c
			b.Run(tname+"/"+c.name, func(b *testing.B) {
				exe, err := spec.BuildCtx(nil, "eqntott")
				if err != nil {
					b.Fatal(err)
				}
				var ratio float64
				var saved, sites int
				for i := 0; i < b.N; i++ {
					res, err := core.InstrumentCtx(nil, exe, tool, c.opts)
					if err != nil {
						b.Fatal(err)
					}
					saved, sites = res.Stats.SavedRegs, res.Stats.Calls
					r, err := figures.RatioFor(tname, "eqntott", c.opts)
					if err != nil {
						b.Fatal(err)
					}
					ratio = r
				}
				b.ReportMetric(ratio, "ratio")
				if sites > 0 {
					b.ReportMetric(float64(saved)/float64(sites), "regs/site")
				}
			})
		}
	}
}

// BenchmarkInline ablates the analysis-routine inliner: per-tool, the
// instrumented/uninstrumented instruction ratio, registers saved per
// site, and call sites inlined with splicing on (default) and off. The
// tools whose per-event routines classify as inlinable leaves — gprof,
// prof, pipe — drop the bsr/ret pair, the wrapper transit, and the ra
// save at every spliced site, so their dynamic instruction counts fall
// well past the 10% acceptance bar; tools whose routines are too large
// (cache, branch) are unchanged by construction.
func BenchmarkInline(b *testing.B) {
	for _, tname := range []string{"gprof", "prof", "pipe", "inline"} {
		tname := tname
		tool, _ := tools.ByName(tname)
		for _, c := range []struct {
			name string
			opts core.Options
		}{
			{"on", core.Options{}},
			{"off", core.Options{NoInline: true}},
		} {
			c := c
			b.Run(tname+"/"+c.name, func(b *testing.B) {
				exe, err := spec.BuildCtx(nil, "queens")
				if err != nil {
					b.Fatal(err)
				}
				var ratio float64
				var saved, sites, inlined int
				for i := 0; i < b.N; i++ {
					res, err := core.InstrumentCtx(nil, exe, tool, c.opts)
					if err != nil {
						b.Fatal(err)
					}
					saved, sites, inlined = res.Stats.SavedRegs, res.Stats.Calls, res.Stats.InlinedSites
					r, err := figures.RatioFor(tname, "queens", c.opts)
					if err != nil {
						b.Fatal(err)
					}
					ratio = r
				}
				b.ReportMetric(ratio, "ratio")
				if sites > 0 {
					b.ReportMetric(float64(saved)/float64(sites), "regs/site")
				}
				b.ReportMetric(float64(inlined), "inlined")
			})
		}
	}
}

// BenchmarkScheduler measures pipe's static dual-issue scheduling (the
// work that makes pipe the slowest tool to instrument with in Figure 5).
func BenchmarkScheduler(b *testing.B) {
	exe, err := spec.BuildCtx(nil, "su2cor")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := om.BuildCtx(nil, exe)
	if err != nil {
		b.Fatal(err)
	}
	q := core.NewInstrumentation(prog)
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		for _, p := range prog.Procs {
			for _, blk := range p.Blocks {
				c, _ := tools.ScheduleBlock(q, blk)
				cycles += c
			}
		}
	}
	_ = cycles
}

// BenchmarkVM measures raw interpreter speed in instructions per second.
// Only Run is timed, as in perfbench's vm_minst_s: vm.New allocates and
// zeroes the 64 MiB address space, which is not interpreting, and each
// run starts from a collected heap so it is not charged for collecting
// the previous machine.
func BenchmarkVM(b *testing.B) {
	exe, err := spec.BuildCtx(nil, "eqntott")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		m, err := vm.New(exe, vm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		insts += m.Icount
	}
	b.StopTimer()
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// vmSuitePrograms are the programs BenchmarkVMRunSuite instruments:
// integer and floating-point codes whose instrumented runs take a few
// million instructions each.
var vmSuitePrograms = []string{"eqntott", "li", "gcc", "tomcatv", "queens"}

// BenchmarkVMRunSuite measures the interpreter on instrumented code, one
// sub-benchmark per per-event tool. The suite programs are instrumented
// once, with the partitioned heap perfbench uses, and every iteration
// runs each of them. Only Run is timed, as in BenchmarkVM and
// perfbench's vm_minst_s.
func BenchmarkVMRunSuite(b *testing.B) {
	type run struct {
		exe *aout.File
		cfg vm.Config
	}
	perEvent := []string{"pipe", "cache", "branch"}
	runs := map[string][]run{}
	for _, prog := range vmSuitePrograms {
		exe, err := spec.BuildCtx(nil, prog)
		if err != nil {
			b.Fatal(err)
		}
		p, _ := spec.ByName(prog)
		for _, name := range perEvent {
			tool, _ := tools.ByName(name)
			res, err := core.InstrumentCtx(nil, exe, tool, core.Options{HeapOffset: 1 << 20})
			if err != nil {
				b.Fatal(err)
			}
			runs[name] = append(runs[name], run{res.Exe, vm.Config{Arg0: prog, Stdin: p.Stdin, FS: p.FS}})
		}
	}
	for _, name := range perEvent {
		b.Run(name, func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				for _, r := range runs[name] {
					b.StopTimer()
					runtime.GC()
					m, err := vm.New(r.exe, r.cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := m.Run(); err != nil {
						b.Fatal(err)
					}
					insts += m.Icount
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
		})
	}
}

// BenchmarkCompile measures MiniC compilation of the whole suite.
func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range spec.Suite() {
			if _, err := rtl.BuildProgram(p.Name+".c", p.Src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLift measures the lift stage: om.BuildCtx of the largest suite
// program, what every Instrument/Apply pays before planning.
func BenchmarkLift(b *testing.B) {
	exe, err := spec.BuildCtx(nil, "gcc")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.LiftCtx(nil, exe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiftLiveness measures the two tool-independent stages of every
// instrumentation, each alone over the 20 suite programs: the lift
// (core.LiftCtx) and the global liveness fixpoint (dataflow.ComputeCtx,
// on programs lifted once beforehand). One iteration runs a stage once
// per program; B/op and allocs/op are per 20 programs, us/prog the time
// of one.
func BenchmarkLiftLiveness(b *testing.B) {
	var exes []*aout.File
	var progs []*om.Program
	for _, p := range spec.Suite() {
		exe, err := spec.BuildCtx(nil, p.Name)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := core.LiftCtx(nil, exe)
		if err != nil {
			b.Fatal(err)
		}
		exes, progs = append(exes, exe), append(progs, prog)
	}
	perProg := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(exes)), "us/prog")
	}
	b.Run("lift", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, exe := range exes {
				if _, err := core.LiftCtx(nil, exe); err != nil {
					b.Fatal(err)
				}
			}
		}
		perProg(b)
	})
	b.Run("liveness", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, prog := range progs {
				dataflow.ComputeCtx(nil, prog)
			}
		}
		perProg(b)
	})
}
