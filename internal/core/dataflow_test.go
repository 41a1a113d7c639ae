package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/rtl"
	"atom/internal/spec"
	"atom/internal/tools"
	"atom/internal/vm"
)

// TestLivenessPreservesBehavior is the global analysis's pristine-behavior
// regression: for every tool on the four shortest-running suite programs,
// plus gprof on spice, instrumenting with liveness on (the default) and
// off gives the same exit code, stdout and output files — the tool's
// report included — byte for byte, and the liveness run retires no more
// instructions. On the per-event tools, whose sites fire on every block,
// branch or memory reference, it retires strictly fewer: liveness drops
// saves of dead registers and lets sites skip wrappers that would save
// only those.
func TestLivenessPreservesBehavior(t *testing.T) {
	perEvent := map[string]bool{"branch": true, "cache": true, "dyninst": true, "gprof": true, "pipe": true, "prof": true, "unalign": true}
	pairs := [][2]string{{"gprof", "spice"}}
	for _, prog := range []string{"eqntott", "gcc", "tomcatv", "queens"} {
		for _, tname := range tools.Names() {
			pairs = append(pairs, [2]string{tname, prog})
		}
	}
	for _, pair := range pairs {
		tname, prog := pair[0], pair[1]
		exe, err := spec.BuildCtx(nil, prog)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := spec.ByName(prog)
		t.Run(tname+"/"+prog, func(t *testing.T) {
			tool, _ := tools.ByName(tname)
			var outs [2]string
			var icounts [2]uint64
			for i, noLive := range []bool{true, false} {
				res, err := core.InstrumentCtx(nil, exe, tool, core.Options{NoLiveness: noLive, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				m, err := vm.New(res.Exe, vm.Config{Stdin: p.Stdin, FS: p.FS, MaxInstr: 2_000_000_000})
				if err != nil {
					t.Fatal(err)
				}
				code, err := m.Run()
				if err != nil {
					t.Fatalf("noliveness=%v: %v", noLive, err)
				}
				outs[i] = runOutput(code, m)
				icounts[i] = m.Icount
			}
			if outs[0] != outs[1] {
				t.Errorf("liveness changed behavior:\n%s\nvs\n%s", outs[0], outs[1])
			}
			switch {
			case icounts[1] > icounts[0]:
				t.Errorf("liveness run retires more: %d vs %d", icounts[1], icounts[0])
			case perEvent[tname] && icounts[1] == icounts[0]:
				t.Errorf("liveness run not cheaper: %d vs %d", icounts[1], icounts[0])
			default:
				t.Logf("saved %.1f%% of instructions (%d -> %d)",
					100*(1-float64(icounts[1])/float64(icounts[0])), icounts[0], icounts[1])
			}
		})
	}
}

// runOutput renders everything a run leaves behind — exit code, stdout,
// stderr and every output file, in name order — as one string.
func runOutput(code int, m *vm.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exit %d\nstdout %q\nstderr %q\n", code, m.Stdout, m.Stderr)
	names := make([]string, 0, len(m.FSOut))
	for n := range m.FSOut {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "file %s %q\n", n, m.FSOut[n])
	}
	return b.String()
}

// TestLivenessSavesFewerRegs checks the acceptance bar directly: with
// liveness on, the summed register-save count across sites is strictly
// smaller on the built-in tools, with the same sites instrumented.
func TestLivenessSavesFewerRegs(t *testing.T) {
	exe, err := spec.BuildCtx(nil, "queens")
	if err != nil {
		t.Fatal(err)
	}
	fewer := 0
	for _, tname := range []string{"branch", "cache", "prof"} {
		tool, _ := tools.ByName(tname)
		off, err := core.InstrumentCtx(nil, exe, tool, core.Options{NoLiveness: true})
		if err != nil {
			t.Fatal(err)
		}
		on, err := core.InstrumentCtx(nil, exe, tool, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if on.Stats.Calls != off.Stats.Calls {
			t.Errorf("%s: site count changed with liveness: %d vs %d", tname, on.Stats.Calls, off.Stats.Calls)
		}
		switch {
		case on.Stats.SavedRegs < off.Stats.SavedRegs:
			fewer++
			t.Logf("%s: %d -> %d registers saved across %d sites",
				tname, off.Stats.SavedRegs, on.Stats.SavedRegs, on.Stats.Calls)
		case on.Stats.SavedRegs > off.Stats.SavedRegs:
			t.Errorf("%s: liveness INCREASED saves: %d -> %d", tname, off.Stats.SavedRegs, on.Stats.SavedRegs)
		}
	}
	if fewer < 2 {
		t.Errorf("liveness saved strictly fewer registers on %d tools, want >= 2", fewer)
	}
}

// TestSiteRegisterHistograms: under a stage context, every call site of
// every tool observes its caller-save live-set size and its save-set
// size, the two distributions the liveness analysis acts on.
func TestSiteRegisterHistograms(t *testing.T) {
	exe, err := spec.BuildCtx(nil, "queens")
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.New()
	var sites uint64
	for _, tname := range tools.Names() {
		tool, _ := tools.ByName(tname)
		res, err := core.InstrumentCtx(ctx, exe, tool, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tname, err)
		}
		sites += uint64(res.Stats.Calls)
	}
	counts := map[string]uint64{}
	for _, h := range ctx.Histograms() {
		counts[h.Name] = h.Count
	}
	for _, name := range []string{"atom.site_live_regs", "atom.site_saved_regs"} {
		if counts[name] == 0 || counts[name] != sites {
			t.Errorf("%s observed %d times, want one per site (%d)", name, counts[name], sites)
		}
	}
}

// TestDirectSites: liveness lets the per-event tools' wrapper-mode sites
// call their analysis routines directly wherever the wrapper would save
// only dead registers. Without liveness nothing is known dead, so only
// wrappers that save nothing can be skipped; in the in-analysis save
// mode every called site is direct, as it always was.
func TestDirectSites(t *testing.T) {
	exe, err := spec.BuildCtx(nil, "queens")
	if err != nil {
		t.Fatal(err)
	}
	for _, tname := range []string{"branch", "cache", "dyninst", "unalign"} {
		tool, _ := tools.ByName(tname)
		on, err := core.InstrumentCtx(nil, exe, tool, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		off, err := core.InstrumentCtx(nil, exe, tool, core.Options{NoLiveness: true})
		if err != nil {
			t.Fatal(err)
		}
		in, err := core.InstrumentCtx(nil, exe, tool, core.Options{Mode: core.SaveInAnalysis})
		if err != nil {
			t.Fatal(err)
		}
		if on.Stats.DirectSites == 0 || on.Stats.DirectSites < off.Stats.DirectSites {
			t.Errorf("%s: %d direct sites with liveness, %d without", tname, on.Stats.DirectSites, off.Stats.DirectSites)
		}
		// Each save dropped takes its stq and ldq with it, and each frame
		// emptied its two sp adjusts.
		dsaves := off.Stats.SavedRegs - on.Stats.SavedRegs
		dframes := off.Stats.FramedSites - on.Stats.FramedSites
		if on.Stats.InsertedInsts != off.Stats.InsertedInsts-2*dsaves-2*dframes {
			t.Errorf("%s: inserted %d instructions with liveness, %d without, %d fewer saves, %d fewer frames: a direct site changed length",
				tname, on.Stats.InsertedInsts, off.Stats.InsertedInsts, dsaves, dframes)
		}
		if s := in.Stats; s.DirectSites != s.Calls-s.InlinedSites {
			t.Errorf("%s in-analysis: %d direct of %d called sites", tname, s.DirectSites, s.Calls-s.InlinedSites)
		}
	}
}

// TestVerifySweep instruments a couple of programs with every built-in
// tool under -vet semantics: the IR verifier must pass on the input
// program, the layout PC maps, and the rewritten text, for every tool.
func TestVerifySweep(t *testing.T) {
	for _, prog := range []string{"queens", "ora"} {
		exe, err := spec.BuildCtx(nil, prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, tname := range tools.Names() {
			tool, _ := tools.ByName(tname)
			if _, err := core.InstrumentCtx(nil, exe, tool, core.Options{Verify: true}); err != nil {
				t.Errorf("%s on %s: %v", tname, prog, err)
			}
		}
	}
}

// TestDirectCallKeepsLiveRegisters: a site may skip its routine's
// wrapper only where everything the wrapper saves is dead. keep holds
// its argument in t9 across two blocks, and Count's renamed scratch
// registers are t11..t8, so the sites inside keep must go through the
// wrapper; a site that called Count directly there would return a
// clobbered value.
func TestDirectCallKeepsLiveRegisters(t *testing.T) {
	app, err := rtl.BuildProgramMultiCtx(nil, map[string]string{
		"main.c": `
#include <stdio.h>
long keep(long x);
int main() { printf("%d %d\n", keep(41), keep(0)); return 0; }
`,
		"keep.s": `
	.text
	.globl keep
	.ent keep
keep:
	addq a0, 0, t9
	beq a0, .Lz
	addq a0, 1, a0
.Lz:
	addq t9, 1, v0
	ret (ra)
	.end keep
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	tool := core.Tool{
		Name: "keepcount",
		Analysis: map[string]string{
			"count.c": `
#include <stdio.h>
long counter;
void Report(void) {
	FILE *f = fopen("count.out", "w");
	fprintf(f, "%d\n", counter);
	fclose(f);
}
`,
			"count.s": `
	.text
	.globl Count
	.ent Count
Count:
	la t0, counter
	ldq t1, 0(t0)
	addq t1, a0, t2
	addq t2, 0, t3
	stq t3, 0(t0)
	ret (ra)
	.end Count
`,
		},
		Instrument: func(q *core.Instrumentation) error {
			for _, p := range []string{"Count(long)", "Report()"} {
				if err := q.AddCallProto(p); err != nil {
					return err
				}
			}
			for p := q.GetFirstProc(); p != nil; p = q.GetNextProc(p) {
				for b := q.GetFirstBlock(p); b != nil; b = q.GetNextBlock(b) {
					if err := q.AddCallBlock(b, core.BlockBefore, "Count", 1); err != nil {
						return err
					}
				}
			}
			return q.AddCallProgram(core.ProgramAfter, "Report")
		},
	}
	bare := runExe(t, app, vm.Config{})
	if string(bare.Stdout) != "42 1\n" {
		t.Fatalf("bare run printed %q", bare.Stdout)
	}
	res, err := core.InstrumentCtx(nil, app, tool, core.Options{NoInline: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DirectSites == 0 || res.Stats.DirectSites == res.Stats.Calls {
		t.Errorf("%d of %d sites direct: want some through the wrapper and some direct", res.Stats.DirectSites, res.Stats.Calls)
	}
	if m := runExe(t, res.Exe, vm.Config{}); string(m.Stdout) != string(bare.Stdout) {
		t.Errorf("instrumented run printed %q, want %q", m.Stdout, bare.Stdout)
	}
}
