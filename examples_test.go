package atom

// End-to-end smoke tests for the example programs: each builds, runs,
// and produces its documented output, the same with and without
// -noinline. They exec `go run`, so they are skipped under -short and
// when no go binary is on PATH.

import (
	"os/exec"
	"strings"
	"testing"
	"time"
)

func runExample(t *testing.T, dir string, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("examples smoke skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, append([]string{"run", "./" + dir}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./%s %s: %v\n%s", dir, strings.Join(args, " "), err, out)
	}
	return string(out)
}

// checkNoinline runs the example again with -noinline: program and
// analysis output must not change, apart from the "instrumented:" size
// line, which legitimately differs between the two modes.
func checkNoinline(t *testing.T, dir, out string) {
	t.Helper()
	dropSize := func(s string) string {
		var keep []string
		for _, line := range strings.SplitAfter(s, "\n") {
			if !strings.HasPrefix(line, "instrumented:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "")
	}
	if off := runExample(t, dir, "-noinline"); dropSize(off) != dropSize(out) {
		t.Errorf("%s output differs under -noinline:\n%s\n--- -noinline\n%s", dir, out, off)
	}
}

func TestExampleQuickstart(t *testing.T) {
	start := time.Now()
	out := runExample(t, "examples/quickstart")
	if !strings.Contains(out, "longest collatz chain under 60:") {
		t.Errorf("quickstart output missing collatz result:\n%s", out)
	}
	if !strings.Contains(out, "call sites") {
		t.Errorf("quickstart output missing instrumentation summary:\n%s", out)
	}
	if !strings.Contains(out, "Taken\tNot Taken") {
		t.Errorf("quickstart output missing branch-count table:\n%s", out)
	}
	t.Logf("quickstart ran in %v", time.Since(start))
	checkNoinline(t, "examples/quickstart", out)
}

func TestExampleCachesim(t *testing.T) {
	out := runExample(t, "examples/cachesim")
	if !strings.Contains(out, "missrate") {
		t.Errorf("cachesim output missing miss-rate table:\n%s", out)
	}
	// The direct-mapped cache must report a sane miss rate: some misses
	// (cold start), not all misses.
	if !strings.Contains(out, "%") {
		t.Errorf("cachesim output has no percentage column:\n%s", out)
	}
	checkNoinline(t, "examples/cachesim", out)
}
