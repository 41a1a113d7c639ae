// Package figures regenerates the paper's evaluation artifacts:
//
//   - Figure 5: time for ATOM to instrument the 20-program suite with
//     each of the 11 tools (total and per-program average);
//   - Figure 6: execution time of each instrumented program relative to
//     its uninstrumented run, per tool.
//
// "Time" for Figure 6 is the machine's deterministic retired-instruction
// count — the reproduction's clock — with wall-clock reported alongside.
// Reference columns carry the paper's published numbers so the shape of
// the result (which tools are expensive, by roughly what factor) can be
// compared directly.
package figures

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"atom/internal/build"
	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/rtl"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// PaperFig5 holds the published per-tool instrumentation times (seconds,
// DEC 3000/400): total over 20 SPEC92 programs and the average.
var PaperFig5 = map[string]struct{ Total, Avg float64 }{
	"branch":  {110.46, 5.52},
	"cache":   {120.58, 6.03},
	"dyninst": {126.31, 6.32},
	"gprof":   {113.24, 5.66},
	"inline":  {146.50, 7.33},
	"io":      {121.60, 6.08},
	"malloc":  {97.93, 4.90},
	"pipe":    {257.48, 12.87},
	"prof":    {122.53, 6.13},
	"syscall": {120.53, 6.03},
	"unalign": {135.61, 6.78},
}

// PaperFig6 holds the published execution-time ratios (instrumented /
// uninstrumented) with the paper's instrumentation-point descriptions
// and argument counts.
var PaperFig6 = map[string]struct {
	Points string
	Args   int
	Ratio  float64
}{
	"branch":  {"each conditional branch", 3, 3.03},
	"cache":   {"each memory reference", 1, 11.84},
	"dyninst": {"each basic block", 3, 2.91},
	"gprof":   {"each procedure/each basic block", 2, 2.70},
	"inline":  {"each call site", 1, 1.03},
	"io":      {"before/after write procedure", 4, 1.01},
	"malloc":  {"before/after malloc procedure", 1, 1.02},
	"pipe":    {"each basic block", 2, 1.80},
	"prof":    {"each procedure/each basic block", 2, 2.33},
	"syscall": {"before/after each system call", 2, 1.01},
	"unalign": {"each basic block", 3, 2.93},
}

// Fig5Row is one Figure 5 line, split along the paper's two-step cost
// model: ToolBuild is the one-time cost of compiling and linking the
// tool's analysis image (step one, paid once no matter how many programs
// follow); Total/Avg are the per-program rewrite costs (step two) with
// the image already built.
type Fig5Row struct {
	Tool        string
	Description string
	ToolBuild   time.Duration // one-time: compile + link the analysis image
	Total       time.Duration // wall time to rewrite the whole suite (warm)
	Avg         time.Duration // per-program rewrite time
	Programs    int

	// Cold vs warm lift: wall time to lift the whole suite against an
	// empty IR cache (build + encode + decode per program) and again
	// against the populated one (blob decode only). The gap is what the
	// content-addressed IR cache saves every re-instrumentation.
	// LiftDisk is the third rung: the in-memory cache dropped but the
	// blobs resident in a persistent DiskStore — what a fresh process
	// pays against a warm cache directory.
	LiftCold time.Duration
	LiftWarm time.Duration
	LiftDisk time.Duration

	// DiskStore is the private store's traffic during the LiftDisk
	// sweep (seed puts + measured disk hits).
	DiskStore build.StoreStats

	// Per-phase breakdown from the observability layer: cumulative time
	// in the lift, plan (instrumentation-routine), apply (rewrite) and
	// image build stages across this tool's whole measurement (the plan
	// total includes the probe plan BuildToolImage runs).
	LiftTime   time.Duration
	PlanTime   time.Duration
	ApplyTime  time.Duration
	ImageBuild time.Duration

	// Cache activity during this tool's measurement (the caches are reset
	// per tool, so these are per-tool deltas).
	ImageCache  build.Stats
	ObjectCache build.Stats
	IRCache     build.Stats
}

// Fig5 instruments the given suite programs (all 20 when names is empty)
// with every tool and measures instrumentation time (ATOM processing plus
// the tool's instrumentation routine, exactly the paper's definition).
// For each tool the artifact caches are dropped first, so ToolBuild is a
// true cold build; the per-program loop then runs against the warm cache,
// which is how the system behaves when one tool is applied to a suite.
// It also returns the pipeline histograms (per-site live/saved register
// distributions among them) aggregated across every tool, for the bench
// JSON document.
func Fig5(names []string, progress io.Writer) ([]Fig5Row, []obs.Hist, error) {
	if len(names) == 0 {
		for _, p := range spec.Suite() {
			names = append(names, p.Name)
		}
	}
	// Warm the application-build cache outside the timers.
	for _, pn := range names {
		if _, err := spec.Build(pn); err != nil {
			return nil, nil, err
		}
	}
	// One context turns the pipeline's spans into the per-phase
	// breakdown (lift/plan/apply/image-build) the JSON output reports
	// alongside the wall-clock columns: a tool's phase times are the
	// span-total deltas over its iteration.
	mctx := obs.New()
	var rows []Fig5Row
	for _, tname := range tools.Names() {
		tool, _ := tools.ByName(tname)
		phase := spanDeltas(mctx.Metrics())

		core.ResetImageCache(build.ScopeMemory)
		rtl.ResetObjectCache(build.ScopeMemory)
		build.ResetIRCache(build.ScopeMemory)
		start := time.Now()
		ti, err := core.BuildToolImageCtx(mctx, tool, core.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("fig5: building %s: %w", tname, err)
		}
		toolBuild := time.Since(start)

		// Cold vs warm lift over the suite: the first sweep builds,
		// encodes and caches every program's IR blob; the second decodes
		// the cached blobs. The apply loop below then runs entirely warm,
		// as a suite pass does in practice.
		start = time.Now()
		if err := liftSuite(mctx, names); err != nil {
			return nil, nil, fmt.Errorf("fig5: %w", err)
		}
		liftCold := time.Since(start)
		start = time.Now()
		if err := liftSuite(mctx, names); err != nil {
			return nil, nil, fmt.Errorf("fig5: %w", err)
		}
		liftWarm := time.Since(start)

		start = time.Now()
		for _, pn := range names {
			exe, err := spec.BuildCtx(mctx, pn)
			if err != nil {
				return nil, nil, err
			}
			if _, err := core.ApplyCtx(mctx, exe, ti, core.Options{}); err != nil {
				return nil, nil, fmt.Errorf("fig5: %s on %s: %w", tname, pn, err)
			}
		}
		total := time.Since(start)

		// Capture the cache deltas before the disk sweep below resets
		// the in-memory IR cache again.
		imageStats := core.ImageCacheStats()
		objectStats := rtl.ObjectCacheStats()
		irStats := build.IRCacheStats()

		liftDisk, diskStats, err := diskLiftSweep(mctx, names)
		if err != nil {
			return nil, nil, fmt.Errorf("fig5: disk-warm lift for %s: %w", tname, err)
		}

		rows = append(rows, Fig5Row{
			Tool:        tname,
			Description: tool.Description,
			ToolBuild:   toolBuild,
			Total:       total,
			Avg:         total / time.Duration(len(names)),
			Programs:    len(names),
			LiftCold:    liftCold,
			LiftWarm:    liftWarm,
			LiftDisk:    liftDisk,
			DiskStore:   diskStats,
			LiftTime:    phase("om.lift"),
			PlanTime:    phase("atom.plan"),
			ApplyTime:   phase("atom.apply"),
			ImageBuild:  phase("atom.image.build"),
			ImageCache:  imageStats,
			ObjectCache: objectStats,
			IRCache:     irStats,
		})
		if progress != nil {
			fmt.Fprintf(progress, "fig5: %-8s build %v, lift %v/%v/%v (cold/warm/disk), apply %v\n",
				tname, toolBuild.Round(time.Millisecond),
				liftCold.Round(time.Millisecond), liftWarm.Round(time.Millisecond),
				liftDisk.Round(time.Millisecond),
				total.Round(time.Millisecond))
		}
	}
	return rows, mctx.Histograms(), nil
}

// spanDeltas snapshots m's span totals and returns each name's growth
// since the snapshot.
func spanDeltas(m *obs.Metrics) func(name string) time.Duration {
	before := map[string]time.Duration{}
	for _, s := range m.Spans() {
		before[s.Name] = s.Total
	}
	return func(name string) time.Duration { return m.SpanTotal(name) - before[name] }
}

// liftSuite builds and lifts every named program through the IR cache.
func liftSuite(ctx *obs.Ctx, names []string) error {
	for _, pn := range names {
		exe, err := spec.BuildCtx(ctx, pn)
		if err != nil {
			return err
		}
		if _, err := core.LiftCtx(ctx, exe); err != nil {
			return fmt.Errorf("lifting %s: %w", pn, err)
		}
	}
	return nil
}

// diskLiftSweep measures the third lift rung: the in-memory IR cache
// dropped, but every blob resident in a persistent DiskStore — the cost
// a fresh process pays against a warm -cache-dir. A private temporary
// store is installed for the duration: a seeding sweep writes each
// program's IR blob to disk, the memory layer is dropped again, and the
// measured sweep then serves every lift by decoding a disk blob.
func diskLiftSweep(mctx *obs.Ctx, names []string) (time.Duration, build.StoreStats, error) {
	dir, err := os.MkdirTemp("", "atom-fig5-store")
	if err != nil {
		return 0, build.StoreStats{}, err
	}
	defer os.RemoveAll(dir)
	ds, err := build.OpenDiskStore(mctx, dir, 0)
	if err != nil {
		return 0, build.StoreStats{}, err
	}
	prev := build.SwapStore(ds)
	defer func() {
		build.SwapStore(prev)
		ds.Close()
	}()

	build.ResetIRCache(build.ScopeMemory)
	if err := liftSuite(mctx, names); err != nil { // seed: rebuild + Put every blob
		return 0, build.StoreStats{}, err
	}
	build.ResetIRCache(build.ScopeMemory)
	start := time.Now()
	if err := liftSuite(mctx, names); err != nil { // measure: every lift decodes from disk
		return 0, build.StoreStats{}, err
	}
	return time.Since(start), ds.Stats(), nil
}

// Fig6Row is one Figure 6 line.
type Fig6Row struct {
	Tool     string
	Points   string  // instrumentation points, as described in the paper
	Args     int     // number of arguments passed at each point
	Ratio    float64 // geometric-mean instruction ratio across the suite
	MinRatio float64
	MaxRatio float64
}

var (
	baseMu    sync.Mutex
	baseCache = map[string]uint64{} // program -> uninstrumented icount
)

// baselineIcount runs a program uninstrumented (cached).
func baselineIcount(name string) (uint64, error) {
	baseMu.Lock()
	defer baseMu.Unlock()
	if v, ok := baseCache[name]; ok {
		return v, nil
	}
	exe, err := spec.Build(name)
	if err != nil {
		return 0, err
	}
	p, _ := spec.ByName(name)
	m, err := vm.New(exe, vm.Config{Stdin: p.Stdin, FS: p.FS})
	if err != nil {
		return 0, err
	}
	if _, err := m.Run(); err != nil {
		return 0, fmt.Errorf("fig6: baseline %s: %w", name, err)
	}
	baseCache[name] = m.Icount
	return m.Icount, nil
}

// RatioFor measures one tool on one program and returns the
// instrumented/uninstrumented instruction ratio.
func RatioFor(toolName, progName string, opts core.Options) (float64, error) {
	return RatioForCtx(nil, toolName, progName, opts)
}

// RatioForCtx is RatioFor under a stage context, so a caller collecting
// pipeline counters and histograms (per-site live/saved register
// distributions among them) sees every instrumentation in the sweep.
func RatioForCtx(ctx *obs.Ctx, toolName, progName string, opts core.Options) (float64, error) {
	base, err := baselineIcount(progName)
	if err != nil {
		return 0, err
	}
	exe, err := spec.Build(progName)
	if err != nil {
		return 0, err
	}
	tool, ok := tools.ByName(toolName)
	if !ok {
		return 0, fmt.Errorf("fig6: unknown tool %q", toolName)
	}
	res, err := core.InstrumentCtx(ctx, exe, tool, opts)
	if err != nil {
		return 0, fmt.Errorf("fig6: %s on %s: %w", toolName, progName, err)
	}
	p, _ := spec.ByName(progName)
	m, err := vm.New(res.Exe, vm.Config{
		Stdin:              p.Stdin,
		FS:                 p.FS,
		AnalysisHeapOffset: res.HeapOffset,
		MaxInstr:           4_000_000_000,
	})
	if err != nil {
		return 0, err
	}
	if _, err := m.Run(); err != nil {
		return 0, fmt.Errorf("fig6: %s on %s: %w", toolName, progName, err)
	}
	return float64(m.Icount) / float64(base), nil
}

// Fig6 measures every tool over the given programs (all 20 when names is
// empty) and returns per-tool geometric-mean ratios, plus the pipeline
// histograms aggregated over the whole sweep.
func Fig6(names []string, progress io.Writer) ([]Fig6Row, []obs.Hist, error) {
	if len(names) == 0 {
		for _, p := range spec.Suite() {
			names = append(names, p.Name)
		}
	}
	// A sinkless context still aggregates counters and histograms.
	mctx := obs.New()
	var rows []Fig6Row
	for _, tname := range tools.Names() {
		logSum := 0.0
		minR, maxR := math.Inf(1), 0.0
		for _, pn := range names {
			r, err := RatioForCtx(mctx, tname, pn, core.Options{})
			if err != nil {
				return nil, nil, err
			}
			logSum += math.Log(r)
			minR = math.Min(minR, r)
			maxR = math.Max(maxR, r)
			if progress != nil {
				fmt.Fprintf(progress, "fig6: %-8s %-9s %6.2fx\n", tname, pn, r)
			}
		}
		ref := PaperFig6[tname]
		rows = append(rows, Fig6Row{
			Tool:     tname,
			Points:   ref.Points,
			Args:     ref.Args,
			Ratio:    math.Exp(logSum / float64(len(names))),
			MinRatio: minR,
			MaxRatio: maxR,
		})
	}
	return rows, mctx.Histograms(), nil
}

// PrintFig5 renders Figure 5 next to the paper's numbers. "build" is the
// one-time tool-image cost; "total"/"avg/prog" cover only the
// per-program rewrites (the cost that scales with the suite).
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "Figure 5: time to instrument the %d-program suite (build once, apply per program)\n", rows[0].Programs)
	fmt.Fprintf(w, "%-8s  %-45s %10s %11s %11s %11s %12s %12s %14s\n",
		"tool", "description", "build", "lift(cold)", "lift(warm)", "lift(disk)", "total", "avg/prog", "paper avg (s)")
	for _, r := range rows {
		ref := PaperFig5[r.Tool]
		fmt.Fprintf(w, "%-8s  %-45s %10v %11v %11v %11v %12v %12v %14.2f\n",
			r.Tool, r.Description, r.ToolBuild.Round(time.Millisecond),
			r.LiftCold.Round(time.Millisecond), r.LiftWarm.Round(time.Millisecond),
			r.LiftDisk.Round(time.Millisecond),
			r.Total.Round(time.Millisecond), r.Avg.Round(time.Millisecond), ref.Avg)
	}
}

// PrintFig6 renders Figure 6 next to the paper's numbers.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Figure 6: instrumented / uninstrumented execution (instruction ratio)")
	fmt.Fprintf(w, "%-8s  %-34s %5s %9s %9s %9s %8s\n", "tool", "instrumentation points", "args", "ratio", "min", "max", "paper")
	for _, r := range rows {
		ref := PaperFig6[r.Tool]
		fmt.Fprintf(w, "%-8s  %-34s %5d %8.2fx %8.2fx %8.2fx %7.2fx\n",
			r.Tool, r.Points, r.Args, r.Ratio, r.MinRatio, r.MaxRatio, ref.Ratio)
	}
}
