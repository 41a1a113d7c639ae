package atom_test

// Differential tests for the VM's two run loops: the superblock loop
// every run uses must retire bit-identical architectural state to the
// per-instruction Step loop a tracer selects, for every tool's
// instrumented output and for the deterministic profiler's reports.

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"atom"
	"atom/internal/obs"
	"atom/internal/prof"
	"atom/internal/spec"
	"atom/internal/vm"
)

// vmModeWorkload is a small but branchy program: nested loops, calls,
// loads/stores through a global array, and conditional paths, so every
// superblock shape (guard exits, fall-through links, call terminators)
// is exercised under instrumentation.
const vmModeWorkload = `
#include <stdio.h>

long acc[32];

long mix(long x, long y) {
	if (x & 1) return x * 3 + y;
	return x - y;
}

int main() {
	long i;
	long j;
	long s = 0;
	for (i = 0; i < 64; i++) {
		for (j = 0; j < 8; j++) {
			acc[(i + j) & 31] += mix(i, j);
		}
		if (acc[i & 31] > 100) s += 1;
		else s -= 1;
	}
	for (i = 0; i < 32; i++) s += acc[i];
	printf("s=%d\n", s);
	return 0;
}
`

// runVM runs exe on the VM under cfg. A cfg with a Trace writer selects
// the per-instruction Step loop, the reference the superblock loop every
// other run uses must match.
func runVM(t *testing.T, exe *atom.Executable, cfg vm.Config) *atom.RunResult {
	t.Helper()
	m, err := vm.New(exe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return &atom.RunResult{
		ExitCode:  code,
		Stdout:    m.Stdout,
		Stderr:    m.Stderr,
		Files:     m.FSOut,
		Icount:    m.Icount,
		Loads:     m.Loads,
		Stores:    m.Stores,
		Unaligned: m.Unaligned,
		Syscalls:  m.Syscalls,
	}
}

// TestVMModeDifferentialAllTools instruments the workload with every
// built-in tool and runs each output on the superblock loop: exit code,
// stdout, every report file, and every machine counter must match the
// plain Step loop exactly, and the run must drop no superblock. Each
// run counts its invalidations in its own obs.Ctx, not in the
// process-wide vm.Totals that parallel tests share.
func TestVMModeDifferentialAllTools(t *testing.T) {
	app, err := atom.BuildProgram(map[string]string{"app.c": vmModeWorkload})
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, exe *atom.Executable) {
		t.Helper()
		want := runVM(t, exe, vm.Config{Trace: io.Discard})
		ctx := obs.New()
		got := runVM(t, exe, vm.Config{Obs: ctx})
		// No tool modifies code: an invalidation means analysis data in
		// the text segment was mistaken for code.
		if d := ctx.Metrics().Counter("vm.sb.invalidations"); d != 0 {
			t.Errorf("run dropped %d superblocks; analysis data stores must not invalidate code", d)
		}
		if got.ExitCode != want.ExitCode {
			t.Errorf("exit code %d, plain %d", got.ExitCode, want.ExitCode)
		}
		if !bytes.Equal(got.Stdout, want.Stdout) {
			t.Errorf("stdout diverges:\n%s\n-- plain --\n%s", got.Stdout, want.Stdout)
		}
		if !reflect.DeepEqual(got.Files, want.Files) {
			t.Error("report files diverge")
		}
		if got.Icount != want.Icount || got.Loads != want.Loads ||
			got.Stores != want.Stores || got.Unaligned != want.Unaligned ||
			got.Syscalls != want.Syscalls {
			t.Errorf("counters {icount %d loads %d stores %d unaligned %d syscalls %d}, plain {%d %d %d %d %d}",
				got.Icount, got.Loads, got.Stores, got.Unaligned, got.Syscalls,
				want.Icount, want.Loads, want.Stores, want.Unaligned, want.Syscalls)
		}
	}

	t.Run("uninstrumented", func(t *testing.T) { check(t, app) })
	for _, tool := range atom.Tools() {
		tool := tool
		t.Run(tool.Name, func(t *testing.T) {
			res, err := atom.Instrument(app, tool, atom.Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, res.Exe)
		})
	}
}

// TestVMModeProfilerFoldedIdentical attaches the deterministic sampling
// profiler and compares its folded report byte-for-byte between the
// superblock loop and the plain Step loop — on the application and on
// its branch- and cache-instrumented executables, whose samples map
// back through the PC map to the original procedures. The profiler
// runs on superblocks, so the sampling fence and the Call/Return
// terminators must reproduce the Step loop's event stream exactly.
func TestVMModeProfilerFoldedIdentical(t *testing.T) {
	app, err := atom.BuildProgram(map[string]string{"app.c": vmModeWorkload})
	if err != nil {
		t.Fatal(err)
	}

	folded := func(exe *atom.Executable, opts prof.Options, trace io.Writer) []byte {
		t.Helper()
		cfg := vm.Config{FS: map[string][]byte{}, Trace: trace}
		opts.Period = 97 // prime, so samples land mid-block at varied offsets
		p := prof.New(opts)
		p.Attach(&cfg)
		m, err := vm.New(exe, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		p.Flush()
		var buf bytes.Buffer
		if err := p.WriteFolded(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(t *testing.T, exe *atom.Executable, opts prof.Options) {
		t.Helper()
		want := folded(exe, opts, io.Discard)
		if len(want) == 0 {
			t.Fatal("plain profile is empty; workload too small for the sampling period")
		}
		if got := folded(exe, opts, nil); !bytes.Equal(got, want) {
			t.Errorf("superblock folded profile diverges from plain:\n%s\n-- plain --\n%s", got, want)
		}
	}

	t.Run("uninstrumented", func(t *testing.T) {
		check(t, app, prof.Options{Procs: prof.ProcsFromSymbols(app.Symbols)})
	})
	for _, name := range []string{"branch", "cache"} {
		t.Run(name, func(t *testing.T) {
			tool, err := atom.ToolByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := atom.Instrument(app, tool, atom.Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, res.Exe, prof.Options{
				Procs: res.PCMap.OrigProcs(),
				MapPC: res.PCMap.OldAddr,
			})
		})
	}
}

// TestVMModeProfiledBuildsNoExtraBlocks: at the profiler's default
// period a profiled run harvests about the bare run's superblocks, for
// every suite program. The dispatcher steps through each sampling point
// to the next block entry or control transfer instead of harvesting a
// block at every mid-block PC up to it, which built 2.6-9.7x the bare
// run's blocks. Each run reads its own obs.Ctx, not the process-wide
// vm.Totals that parallel tests share.
func TestVMModeProfiledBuildsNoExtraBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite twice")
	}
	built := func(t *testing.T, p spec.Program, exe *atom.Executable, profiled bool) int64 {
		t.Helper()
		ctx := obs.New()
		cfg := vm.Config{Stdin: p.Stdin, FS: p.FS, Obs: ctx}
		if profiled {
			pr := prof.New(prof.Options{Procs: prof.ProcsFromSymbols(exe.Symbols)})
			pr.Attach(&cfg)
			if cfg.SamplePeriod != 10000 {
				t.Fatalf("profiler period %d, want the default 10000", cfg.SamplePeriod)
			}
		}
		m, err := vm.New(exe, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return ctx.Metrics().Counter("vm.sb.built")
	}
	for _, p := range spec.Suite() {
		t.Run(p.Name, func(t *testing.T) {
			exe, err := spec.Build(p.Name)
			if err != nil {
				t.Fatal(err)
			}
			bare, profiled := built(t, p, exe, false), built(t, p, exe, true)
			if bare == 0 {
				t.Fatal("bare run built no superblocks")
			}
			t.Logf("superblocks built: bare %d, profiled %d (%.2fx)", bare, profiled, float64(profiled)/float64(bare))
			if 5*profiled > 6*bare {
				t.Errorf("profiled run built %d superblocks, bare run %d: more than 1.2x", profiled, bare)
			}
		})
	}
}
