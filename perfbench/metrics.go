package main

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"atom/internal/tools"
)

// metricDef is one reported metric, as BENCHMARK.json lists it. A
// per-layer metric also names the end-to-end metric, and the workload,
// it should move; BENCHMARK.json has no field for that, so the result
// file carries it.
type metricDef struct{ name, unit, better, target string }

// endToEndDefs are the metrics a user of the system sees; an untraced
// run reports all of them on every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"instrument_suite_s", "s", "lower", ""},
	{"instrument_ms_p50", "ms", "lower", ""},
	{"instrument_ms_p95", "ms", "lower", ""},
	{"tool_build_ms_p50", "ms", "lower", ""},
	{"text_ratio", "ratio", "lower", ""},
	{"icount_ratio", "ratio", "lower", ""},
	{"run_wall_ratio", "ratio", "lower", ""},
	{"vm_minst_s", "Minst/s", "higher", ""},
	{"profiled_minst_s", "Minst/s", "higher", ""},
	{"profile_slowdown", "ratio", "lower", ""},
	{"ok_frac", "ratio", "higher", ""},
}

const (
	toImageBuild = "tool_build_ms_p50 on instrument"
	toInstrument = "instrument_ms_p50 on instrument"
	toTail       = "instrument_ms_p95 on instrument"
	toSuite      = "instrument_suite_s on instrument"
	toSites      = "text_ratio on instrument and icount_ratio on run_dense"
	toDispatch   = "vm_minst_s and run_wall_ratio on run_dense"
	toBlocks     = "vm_minst_s on run_dense"
	toProfiler   = "profiled_minst_s and profile_slowdown on run_sparse"
	toTools      = "the run_* workload that runs the tool"
	toAll        = "every wall-time metric, on every workload"
)

// spanMetrics are the per-layer times read from the program's own spans:
// the self time of the named spans, averaged over the operations of one
// kind.
var spanMetrics = []struct {
	name, op, target string
	spans            []string
}{
	{"cc.compile_ms", opImageBuild, toImageBuild, []string{"cc.compile", "cc.func"}},
	{"asm.assemble_ms", opImageBuild, toImageBuild, []string{"asm.assemble"}},
	{"link.link_ms", opImageBuild, toImageBuild, []string{"link.link", "link.layout", "link.resolve"}},
	{"rtl.objects_ms", opImageBuild, toImageBuild, []string{"rtl.objects"}},
	{"core.image_build_ms", opImageBuild, toImageBuild, []string{"atom.image.build"}},
	{"om.lift_ms", opInstrument, toInstrument, []string{"om.lift"}},
	{"om.build_ms", opInstrument, toInstrument, []string{"om.build"}},
	{"om.encode_ms", opInstrument, toInstrument, []string{"om.encode"}},
	{"om.decode_ms", opInstrument, toInstrument, []string{"om.decode"}},
	{"core.plan_ms", opInstrument, toInstrument, []string{"atom.plan"}},
	{"core.apply_ms", opInstrument, toInstrument, []string{"atom.apply"}},
	{"om.liveness_ms", opInstrument, toTail, []string{"om.liveness"}},
}

// perLayerDefs are the metrics a traced run reports. A layer a workload
// does not exercise reads 0.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, s := range spanMetrics {
		defs = append(defs, metricDef{s.name, "ms", "lower", s.target})
	}
	defs = append(defs, metricDef{"dataflow.rounds", "count", "lower", toTail})
	for _, c := range []string{"image", "objects", "ir"} {
		defs = append(defs,
			metricDef{"build." + c + ".hits", "count", "higher", toSuite},
			metricDef{"build." + c + ".misses", "count", "lower", toSuite},
			metricDef{"build." + c + ".builds", "count", "lower", toSuite})
	}
	defs = append(defs,
		metricDef{"core.sites", "count", "lower", toSites},
		metricDef{"core.sites_inlined", "count", "higher", toSites},
		metricDef{"core.regs_per_site", "count", "lower", toSites},
		metricDef{"core.inserted_insts", "count", "lower", toSites},
		metricDef{"vm.new_ms", "ms", "lower", "run_wall_ratio, mainly on run_sparse"},
		metricDef{"vm.run_ms", "ms", "lower", toDispatch},
		metricDef{"vm.loads_per_inst", "ratio", "lower", toDispatch},
		metricDef{"vm.stores_per_inst", "ratio", "lower", toDispatch},
		metricDef{"vm.sb.built", "count", "lower", toBlocks},
		metricDef{"vm.sb.hits", "count", "lower", toBlocks},
		metricDef{"vm.sb.links", "count", "higher", toBlocks},
		metricDef{"vm.sb.invalidations", "count", "lower", toBlocks},
		metricDef{"vm.sb.inst_per_hit", "count", "higher", toBlocks})
	for _, t := range tools.Names() {
		defs = append(defs,
			metricDef{"icount_ratio." + t, "ratio", "lower", "icount_ratio on " + toTools},
			metricDef{"run_wall_ratio." + t, "ratio", "lower", "run_wall_ratio on " + toTools},
			metricDef{"vm.minst_s." + t, "Minst/s", "higher", "vm_minst_s on " + toTools})
	}
	return append(defs,
		metricDef{"prof.run_ms", "ms", "lower", toProfiler},
		metricDef{"prof.samples", "count", "lower", toProfiler},
		metricDef{"peak_rss_mb", "MB", "lower", "memory use, on every workload"},
		metricDef{"go.alloc_mb", "MB", "lower", toAll},
		metricDef{"go.gc_pause_ms", "ms", "lower", toAll},
		metricDef{"fail_frac", "ratio", "lower", "ok_frac, on every workload"},
		metricDef{"trace.overhead_pct", "%", "lower", "the traced run's own cost"})
}

// endToEnd computes the end-to-end metrics from a.
func (b *bench) endToEnd(a *acc) map[string]float64 {
	var builds []float64
	for _, t := range b.wl.tools {
		builds = append(builds, a.builds[t]...)
	}
	return map[string]float64{
		"setup_s":            median(b.setups),
		"instrument_suite_s": median(a.sweeps),
		"instrument_ms_p50":  median(a.inst),
		"instrument_ms_p95":  percentile(a.inst, tailPercentile(len(a.inst), 95)),
		"tool_build_ms_p50":  median(builds),
		"text_ratio":         b.textRatio(),
		"icount_ratio":       b.icountRatio(""),
		"run_wall_ratio":     wallRatio(a, ""),
		"vm_minst_s":         minstPerSec(a.runs, ""),
		"profiled_minst_s":   minstPerSec(a.profiled, ""),
		"profile_slowdown":   profileSlowdown(a),
		"ok_frac":            1 - b.ops.failFrac(),
	}
}

// perLayer computes the per-layer metrics from a. Counts are per sweep
// (instrumentation layers) or per run (VM layers); times are means per
// operation.
func (b *bench) perLayer(a *acc) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayerDefs() {
		m[d.name] = 0
	}
	for _, s := range spanMetrics {
		if n, self := b.tr.layer(s.op); n > 0 {
			for _, name := range s.spans {
				m[s.name] += self[name] / float64(n)
			}
		}
	}
	if n, _ := b.tr.layer(opInstrument); n > 0 {
		m["dataflow.rounds"] = float64(b.tr.counters["om.liveness.rounds"]) / float64(n)
	}
	if sweeps := float64(len(a.sweeps)); sweeps > 0 {
		for name, s := range a.caches {
			m["build."+name+".hits"] = float64(s.Hits) / sweeps
			m["build."+name+".misses"] = float64(s.Misses) / sweeps
			m["build."+name+".builds"] = float64(s.Builds) / sweeps
		}
	}
	var sites, inlined, saved, inserted int
	for _, s := range b.stats {
		sites += s.Calls
		inlined += s.InlinedSites
		saved += s.SavedRegs
		inserted += s.InsertedInsts
	}
	m["core.sites"] = float64(sites)
	m["core.sites_inlined"] = float64(inlined)
	m["core.regs_per_site"] = ratio(float64(saved), float64(sites))
	m["core.inserted_insts"] = float64(inserted)

	var newMS, runMS, profMS []float64
	var samples uint64
	for _, s := range a.runs {
		newMS = append(newMS, s.newMS...)
		runMS = append(runMS, s.runMS...)
	}
	for _, s := range a.profiled {
		profMS = append(profMS, s.runMS...)
		samples += s.samples
	}
	runs, icount := float64(a.nRuns), float64(a.vm.Icount)
	m["vm.new_ms"] = mean(newMS)
	m["vm.run_ms"] = mean(runMS)
	m["vm.loads_per_inst"] = ratio(float64(a.vm.Loads), icount)
	m["vm.stores_per_inst"] = ratio(float64(a.vm.Stores), icount)
	m["vm.sb.built"] = ratio(float64(a.vm.SBBuilt), runs)
	m["vm.sb.hits"] = ratio(float64(a.vm.SBHits), runs)
	m["vm.sb.links"] = ratio(float64(a.vm.SBLinks), runs)
	m["vm.sb.invalidations"] = ratio(float64(a.vm.SBInval), runs)
	m["vm.sb.inst_per_hit"] = ratio(icount, float64(a.vm.SBHits))
	for _, t := range tools.Names() {
		m["icount_ratio."+t] = b.icountRatio(t)
		m["run_wall_ratio."+t] = wallRatio(a, t)
		m["vm.minst_s."+t] = minstPerSec(a.runs, t)
	}
	m["prof.run_ms"] = mean(profMS)
	m["prof.samples"] = ratio(float64(samples), float64(len(profMS)))
	rounds := float64(a.rounds)
	m["peak_rss_mb"] = peakRSSMB()
	m["go.alloc_mb"] = ratio(float64(a.allocBytes)/(1<<20), rounds)
	m["go.gc_pause_ms"] = ratio(float64(a.pauseNs)/1e6, rounds)
	m["fail_frac"] = b.ops.failFrac()
	if b.tracing {
		m["trace.overhead_pct"] = 100 * (ratio(mean(b.traced.roundSecs), mean(b.plain.roundSecs)) - 1)
	}
	return m
}

// ratio is x/y, or 0 when y is 0.
func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// textRatio is the geometric mean, over every instrumented pair, of the
// application text after instrumentation over the text before.
func (b *bench) textRatio() float64 {
	var xs []float64
	for _, k := range sortedPairs(b.stats) {
		s := b.stats[k]
		xs = append(xs, float64(s.InstrText)/float64(s.OrigText))
	}
	return geomean(xs)
}

// icountRatio is the Figure 6 instruction ratio: the geometric mean, over
// the instrumented executables run (those of tool, or all when tool is
// empty), of retired instructions over the uninstrumented program's.
func (b *bench) icountRatio(tool string) float64 {
	var xs []float64
	for _, k := range sortedPairs(b.icount) {
		base := b.icount[pair{prog: k.prog}]
		if k.tool == "" || (tool != "" && k.tool != tool) || base == 0 {
			continue
		}
		xs = append(xs, float64(b.icount[k])/float64(base))
	}
	return geomean(xs)
}

// wallRatio is the wall-clock Figure 6 ratio: the geometric mean, over
// the instrumented executables run (of tool, or all when empty), of the
// median wall time over the uninstrumented program's median.
func wallRatio(a *acc, tool string) float64 {
	var xs []float64
	for _, k := range sortedPairs(a.runs) {
		base := a.runs[pair{prog: k.prog}]
		if k.tool == "" || (tool != "" && k.tool != tool) || base == nil {
			continue
		}
		xs = append(xs, median(a.runs[k].wall)/median(base.wall))
	}
	return geomean(xs)
}

// minstPerSec is retired instructions over the time spent inside Run, in
// millions per second, over the runs of tool (all runs when tool is
// empty).
func minstPerSec(runs map[pair]*runSamples, tool string) float64 {
	var n uint64
	var runMS float64
	for k, s := range runs {
		if tool == "" || k.tool == tool {
			n += s.icount
			runMS += sum(s.runMS)
		}
	}
	return ratio(float64(n)/1e3, runMS)
}

// profileSlowdown is the geometric mean, over the executables run under
// the profiler, of the median profiled wall time over the median bare one.
func profileSlowdown(a *acc) float64 {
	var xs []float64
	for _, k := range sortedPairs(a.profiled) {
		if bare := a.runs[k]; bare != nil {
			xs = append(xs, median(a.profiled[k].wall)/median(bare.wall))
		}
	}
	return geomean(xs)
}

// peakRSSMB is the process's peak resident set size, or the memory the Go
// runtime holds where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
