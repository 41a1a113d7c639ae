package core_test

import (
	"testing"

	"atom/internal/core"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// TestInlinePreservesBehavior runs EVERY example tool over a suite
// program with inlining on (the default) and off: program and analysis
// output must be bit-identical, the dynamic instruction count must not
// increase, and the verifier must pass on the spliced bodies. Tools
// whose analysis routines all fail classification (oversize, non-leaf)
// simply degenerate to the called case — still compared, still equal.
func TestInlinePreservesBehavior(t *testing.T) {
	const prog = "queens"
	exe, err := spec.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := spec.ByName(prog)

	totalInlined := 0
	for _, tname := range tools.Names() {
		tname := tname
		t.Run(tname, func(t *testing.T) {
			tool, _ := tools.ByName(tname)
			var outs [2]string
			var icounts [2]uint64
			var inlined int
			for i, on := range []bool{false, true} {
				res, err := core.Instrument(exe, tool, core.Options{NoInline: !on, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				if on {
					inlined = res.Stats.InlinedSites
				} else if res.Stats.InlinedSites != 0 {
					t.Fatalf("NoInline run still inlined %d sites", res.Stats.InlinedSites)
				}
				m, err := vm.New(res.Exe, vm.Config{Stdin: p.Stdin, FS: p.FS, MaxInstr: 2_000_000_000})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatalf("inline=%v: %v", on, err)
				}
				outs[i] = string(m.Stdout) + "|" + string(m.FSOut[tname+".out"])
				icounts[i] = m.Icount
			}
			if outs[0] != outs[1] {
				t.Errorf("inlining changed behavior:\n%s\nvs\n%s", outs[0], outs[1])
			}
			if icounts[1] > icounts[0] {
				t.Errorf("inlined run costs more: %d vs %d", icounts[1], icounts[0])
			}
			if inlined > 0 && icounts[1] < icounts[0] {
				t.Logf("%d sites inlined, saved %.1f%% of instructions (%d -> %d)",
					inlined, 100*(1-float64(icounts[1])/float64(icounts[0])), icounts[0], icounts[1])
			}
			totalInlined += inlined
		})
	}
	if totalInlined == 0 {
		t.Errorf("no tool inlined any site; the inliner is inert")
	}
}
