package spec_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atom/internal/spec"
	"atom/internal/vm"
)

// runProgram executes one suite member and returns the machine.
func runProgram(t *testing.T, name string) *vm.Machine {
	t.Helper()
	exe, err := spec.BuildCtx(nil, name)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	p, _ := spec.ByName(name)
	m, err := vm.New(exe, vm.Config{Stdin: p.Stdin, FS: p.FS})
	if err != nil {
		t.Fatal(err)
	}
	code, err := m.Run()
	if err != nil {
		t.Fatalf("%s: %v (stdout=%q stderr=%q)", name, err, m.Stdout, m.Stderr)
	}
	if code != 0 {
		t.Fatalf("%s: exit %d", name, code)
	}
	return m
}

func TestSuiteSize(t *testing.T) {
	if n := len(spec.Suite()); n != 20 {
		t.Errorf("suite has %d programs, want 20 (as in the paper)", n)
	}
	seen := map[string]bool{}
	for _, p := range spec.Suite() {
		if seen[p.Name] {
			t.Errorf("duplicate program %q", p.Name)
		}
		seen[p.Name] = true
	}
}

// TestGoldenOutputs runs every program and compares its output against
// the committed golden file (generated on first run).
func TestGoldenOutputs(t *testing.T) {
	for _, p := range spec.Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := runProgram(t, p.Name)
			out := string(m.Stdout)
			if !strings.HasPrefix(out, p.Name+":") {
				t.Errorf("output does not start with program name: %q", out)
			}
			golden := filepath.Join("testdata", p.Name+".golden")
			want, err := os.ReadFile(golden)
			if os.IsNotExist(err) {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, m.Stdout, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("generated %s (icount %d)", golden, m.Icount)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("output changed:\n got %q\nwant %q", out, want)
			}
		})
	}
}

// TestWorkloadScale checks every program runs long enough to amortize
// tool startup/report costs (the role SPEC's scale plays in Figure 6)
// yet stays laptop-fast.
func TestWorkloadScale(t *testing.T) {
	var total uint64
	for _, p := range spec.Suite() {
		m := runProgram(t, p.Name)
		total += m.Icount
		if m.Icount < 100_000 {
			t.Errorf("%s: only %d instructions; too small to amortize tool fixed costs", p.Name, m.Icount)
		}
		if m.Icount > 60_000_000 {
			t.Errorf("%s: %d instructions; too slow for the benchmark harness", p.Name, m.Icount)
		}
	}
	t.Logf("suite total: %d instructions", total)
}

// TestSiteProfile verifies the suite exercises every kind of
// instrumentation site the tools hook: conditional branches, loads,
// stores, calls, mallocs, and system calls.
func TestSiteProfile(t *testing.T) {
	var loads, stores uint64
	for _, p := range spec.Suite() {
		m := runProgram(t, p.Name)
		loads += m.Loads
		stores += m.Stores
	}
	if loads == 0 || stores == 0 {
		t.Error("suite performs no memory traffic")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := spec.ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
	if _, err := spec.BuildCtx(nil, "nope"); err == nil {
		t.Error("Build(nope) succeeded")
	}
}
