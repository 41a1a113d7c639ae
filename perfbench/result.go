package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"atom/internal/figures"
	"atom/internal/tools"
)

// resultSchema versions the result file.
const resultSchema = "perfbench/v1"

// result is the file one run writes: every metric and the Figure 5 and 6
// rows per tool, per program and per executable.
type result struct {
	Schema     string  `json:"schema"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Rounds     int     `json:"rounds"`
	// HostScale is the factor that took this run's timings to the
	// reference host (see speed.go); every timing below is scaled by it.
	HostScale float64 `json:"host_scale"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// The instrument-time tail is reported at the highest percentile, at
	// most the 95th, with at least ten samples beyond it.
	InstrumentSamples int     `json:"instrument_samples"`
	TailPercentile    float64 `json:"instrument_tail_percentile"`

	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
	// PerLayerTargets names, per per-layer metric, the end-to-end metric
	// and workload it should move.
	PerLayerTargets map[string]string `json:"per_layer_targets"`

	Tools    []toolRow `json:"tools"`
	Programs []progRow `json:"programs"`
	Pairs    []pairRow `json:"pairs"`
}

// toolRow is one tool's Figure 5 and Figure 6 line, with the paper's
// reference columns. Columns the workload did not measure are 0.
type toolRow struct {
	Tool        string  `json:"tool"`
	BuildMS     float64 `json:"image_build_ms_p50"`
	SuiteMS     float64 `json:"instrument_suite_ms"`
	AvgMS       float64 `json:"instrument_avg_ms"`
	Sites       int     `json:"sites"`
	IcountRatio float64 `json:"icount_ratio"`
	WallRatio   float64 `json:"run_wall_ratio"`
	MinstS      float64 `json:"vm_minst_s"`
	PaperTotalS float64 `json:"paper_fig5_total_s"`
	PaperAvgS   float64 `json:"paper_fig5_avg_s"`
	PaperRatio  float64 `json:"paper_fig6_ratio"`
}

// progRow is one suite program run uninstrumented.
type progRow struct {
	Program        string  `json:"program"`
	Icount         uint64  `json:"icount"`
	WallMS         float64 `json:"wall_ms"`
	ProfiledWallMS float64 `json:"profiled_wall_ms"`
}

// pairRow is one instrumented executable.
type pairRow struct {
	Tool         string  `json:"tool"`
	Program      string  `json:"program"`
	InstrumentMS float64 `json:"instrument_ms"`
	TextRatio    float64 `json:"text_ratio"`
	Sites        int     `json:"sites"`
	SavedRegs    int     `json:"saved_regs"`
	Digest       string  `json:"digest"`
	Icount       uint64  `json:"icount,omitempty"`
	IcountRatio  float64 `json:"icount_ratio,omitempty"`
	WallRatio    float64 `json:"run_wall_ratio,omitempty"`
}

// result assembles the run's result file. End-to-end metrics come from
// the untraced measurements, per-layer metrics from the traced ones.
func (b *bench) result(seconds float64) *result {
	a := b.plain
	hs := b.speed.scale()
	r := &result{
		Schema: resultSchema, Workload: b.name, Seed: b.seed, Seconds: seconds, Traced: b.tracing,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Rounds: a.rounds, HostScale: hs,
		Attempted: b.ops.attempted, Failed: b.ops.failed, Failures: b.failures,
		InstrumentSamples: len(a.inst), TailPercentile: tailPercentile(len(a.inst), 95),
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
	}
	e2e := b.endToEnd(a)
	for _, d := range endToEndDefs {
		r.EndToEnd[d.name] = finite(atReferenceSpeed(e2e[d.name], d.unit, hs))
	}
	layers := b.perLayer(b.traced)
	for _, d := range perLayerDefs() {
		r.PerLayer[d.name] = finite(atReferenceSpeed(layers[d.name], d.unit, hs))
	}
	r.PerLayerTargets = map[string]string{}
	for _, d := range perLayerDefs() {
		r.PerLayerTargets[d.name] = d.target
	}

	for _, t := range tools.Names() {
		row := toolRow{
			Tool: t, BuildMS: hs * median(a.builds[t]),
			IcountRatio: b.icountRatio(t), WallRatio: wallRatio(a, t), MinstS: ratio(minstPerSec(a.runs, t), hs),
			PaperTotalS: figures.PaperFig5[t].Total, PaperAvgS: figures.PaperFig5[t].Avg,
			PaperRatio: figures.PaperFig6[t].Ratio,
		}
		n := 0
		for _, k := range sortedPairs(b.stats) {
			if k.tool == t {
				row.SuiteMS += hs * median(a.instBy[k])
				row.Sites += b.stats[k].Calls
				n++
			}
		}
		if n == 0 && row.IcountRatio == 0 {
			continue
		}
		row.AvgMS = ratio(row.SuiteMS, float64(n))
		r.Tools = append(r.Tools, row)
	}

	for _, p := range b.suite {
		k := pair{prog: p.Name}
		row := progRow{Program: p.Name, Icount: b.icount[k]}
		if s := a.runs[k]; s != nil {
			row.WallMS = hs * median(s.wall)
		}
		if s := a.profiled[k]; s != nil {
			row.ProfiledWallMS = hs * median(s.wall)
		}
		r.Programs = append(r.Programs, row)
	}

	for _, k := range sortedPairs(b.stats) {
		s := b.stats[k]
		row := pairRow{
			Tool: k.tool, Program: k.prog, InstrumentMS: hs * median(a.instBy[k]),
			TextRatio: float64(s.InstrText) / float64(s.OrigText),
			Sites:     s.Calls, SavedRegs: s.SavedRegs, Digest: b.digest[k], Icount: b.icount[k],
		}
		if base := b.icount[pair{prog: k.prog}]; row.Icount > 0 && base > 0 {
			row.IcountRatio = float64(row.Icount) / float64(base)
		}
		if run, base := a.runs[k], a.runs[pair{prog: k.prog}]; run != nil && base != nil {
			row.WallRatio = median(run.wall) / median(base.wall)
		}
		r.Pairs = append(r.Pairs, row)
	}
	return r
}

// save writes the result file, and in a traced run the span file, into
// dir, and returns the result file's path.
func (b *bench) save(dir string, r *result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, boolInt(r.Traced)))
	if r.Traced {
		if err := b.tr.writeSpans(base + "-spans.json"); err != nil {
			return "", err
		}
	}
	return base + ".json", writeJSON(base+".json", r)
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

// printTables renders a result file as Figure 5 and Figure 6 markdown
// tables with the paper's reference columns, plus one row per program.
func printTables(w io.Writer, r *result) {
	fmt.Fprintf(w, "### Figure 5: time to instrument the %d-program suite (%s, seed %d)\n\n", len(r.Programs), r.Workload, r.Seed)
	fmt.Fprintln(w, "| tool | image build p50 (ms) | suite (ms) | avg/program (ms) | sites | paper total (s) | paper avg (s) |")
	fmt.Fprintln(w, "|------|------:|------:|------:|------:|------:|------:|")
	for _, t := range r.Tools {
		if t.SuiteMS > 0 {
			fmt.Fprintf(w, "| %s | %.2f | %.1f | %.2f | %d | %.2f | %.2f |\n",
				t.Tool, t.BuildMS, t.SuiteMS, t.AvgMS, t.Sites, t.PaperTotalS, t.PaperAvgS)
		}
	}
	fmt.Fprintf(w, "\n### Figure 6: instrumented / uninstrumented execution (%s, seed %d)\n\n", r.Workload, r.Seed)
	fmt.Fprintln(w, "| tool | icount ratio | wall ratio | Minst/s | paper ratio |")
	fmt.Fprintln(w, "|------|------:|------:|------:|------:|")
	for _, t := range r.Tools {
		if t.IcountRatio > 0 {
			fmt.Fprintf(w, "| %s | %.2fx | %.2fx | %.1f | %.2fx |\n", t.Tool, t.IcountRatio, t.WallRatio, t.MinstS, t.PaperRatio)
		}
	}
	var ran []string
	ratios := map[string]map[string]float64{}
	for _, p := range r.Pairs {
		if p.IcountRatio > 0 {
			if ratios[p.Tool] == nil {
				ran = append(ran, p.Tool)
				ratios[p.Tool] = map[string]float64{}
			}
			ratios[p.Tool][p.Program] = p.IcountRatio
		}
	}
	sort.Strings(ran)
	fmt.Fprintf(w, "\n### Per program: uninstrumented run and icount ratio per tool (%s, seed %d)\n\n", r.Workload, r.Seed)
	fmt.Fprint(w, "| program | icount | wall (ms) | profiled wall (ms) |")
	for _, t := range ran {
		fmt.Fprintf(w, " %s |", t)
	}
	fmt.Fprint(w, "\n|---------|------:|------:|------:|")
	for range ran {
		fmt.Fprint(w, "------:|")
	}
	fmt.Fprintln(w)
	for _, p := range r.Programs {
		fmt.Fprintf(w, "| %s | %d | %.2f | %.2f |", p.Program, p.Icount, p.WallMS, p.ProfiledWallMS)
		for _, t := range ran {
			if v, ok := ratios[t][p.Program]; ok {
				fmt.Fprintf(w, " %.2fx |", v)
			} else {
				fmt.Fprint(w, " |")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// deterministicFields collects from r's rows the fields two runs of one
// commit must agree on exactly. Every workload covers the whole suite, so
// they do not depend on the seed either.
func deterministicFields(r *result) map[string]float64 {
	f := map[string]float64{
		"text_ratio":         r.EndToEnd["text_ratio"],
		"icount_ratio":       r.EndToEnd["icount_ratio"],
		"core.sites":         r.PerLayer["core.sites"],
		"core.regs_per_site": r.PerLayer["core.regs_per_site"],
	}
	for _, p := range r.Programs {
		f["icount -/"+p.Program] = float64(p.Icount)
	}
	for _, p := range r.Pairs {
		if p.Icount > 0 {
			f["icount "+p.Tool+"/"+p.Program] = float64(p.Icount)
		}
	}
	return f
}

// deterministicDiffs lists every deterministic field on which a and b
// disagree, a field one of them lacks included.
func deterministicDiffs(a, b *result) []string {
	fa, fb := deterministicFields(a), deterministicFields(b)
	var names []string
	for k := range fa {
		names = append(names, k)
	}
	for k := range fb {
		if _, ok := fa[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var diffs []string
	for _, k := range names {
		va, oka := fa[k]
		vb, okb := fb[k]
		if va != vb || oka != okb {
			diffs = append(diffs, fmt.Sprintf("%s: %v != %v", k, va, vb))
		}
	}
	return diffs
}

// compareResults prints the end-to-end metrics of two result files side
// by side and fails when their deterministic fields differ.
func compareResults(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadResult(pathA)
	if err == nil {
		var b *result
		if b, err = loadResult(pathB); err == nil {
			return printComparison(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "perfbench:", err)
	return 1
}

func printComparison(a, b *result, w io.Writer) int {
	fmt.Fprintln(w, "| metric | A | B | B/A - 1 |")
	fmt.Fprintln(w, "|--------|------:|------:|------:|")
	for _, d := range endToEndDefs {
		va, vb := a.EndToEnd[d.name], b.EndToEnd[d.name]
		fmt.Fprintf(w, "| %s (%s) | %.4g | %.4g | %+.1f%% |\n", d.name, d.unit, va, vb, 100*(ratio(vb, va)-1))
	}
	diffs := deterministicDiffs(a, b)
	for _, d := range diffs {
		fmt.Fprintln(w, "deterministic field differs:", d)
	}
	if len(diffs) > 0 {
		return 1
	}
	fmt.Fprintln(w, "deterministic fields identical")
	return 0
}

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeLine prints the result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func writeLine(w io.Writer, r *result) error {
	defs, values := endToEndDefs, r.EndToEnd
	if r.Traced {
		defs, values = perLayerDefs(), r.PerLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
