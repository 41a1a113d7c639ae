// Package figures holds the paper's evaluation reference data and the
// measurements built on it:
//
//   - PaperFig5 and PaperFig6: the published Figure 5 instrumentation
//     times and Figure 6 execution-time ratios, which perfbench prints
//     beside its own tables;
//   - RatioFor: one tool's instrumented/uninstrumented retired-instruction
//     ratio on one suite program — the reproduction's Figure 6 clock —
//     which the paper-ablation benches report.
//
// perfbench (perfbench/) is the harness that regenerates Figures 5 and 6.
package figures

import (
	"fmt"
	"sync"

	"atom/internal/core"
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
	res, err := core.Instrument(exe, tool, opts)
	if err != nil {
		return 0, fmt.Errorf("fig6: %s on %s: %w", toolName, progName, err)
	}
	p, _ := spec.ByName(progName)
	m, err := vm.New(res.Exe, vm.Config{
		Stdin:    p.Stdin,
		FS:       p.FS,
		MaxInstr: 4_000_000_000,
	})
	if err != nil {
		return 0, err
	}
	if _, err := m.Run(); err != nil {
		return 0, fmt.Errorf("fig6: %s on %s: %w", toolName, progName, err)
	}
	return float64(m.Icount) / float64(base), nil
}
