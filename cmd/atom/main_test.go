package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"atom/internal/obs"
	"atom/internal/spec"
)

// captureFD swaps one of the process's standard streams for a pipe
// around fn and returns what fn wrote to it.
func captureFD(t *testing.T, std **os.File, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := *std
	*std = w
	defer func() { *std = orig }()
	fn()
	w.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWriteTraceDash: -trace - streams the trace JSON to stdout instead
// of creating a file literally named "-" (the pre-v5 behavior).
func TestWriteTraceDash(t *testing.T) {
	sink := &obs.TraceSink{}
	ctx := obs.New(sink)
	_, sp := ctx.Start("atom.apply")
	sp.End()

	dir := t.TempDir()
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	out := captureFD(t, &os.Stdout, func() {
		if err := writeTrace(sink, "-"); err != nil {
			t.Errorf("writeTrace(-): %v", err)
		}
	})
	if !strings.Contains(out, "traceEvents") || !strings.Contains(out, "atom.apply") {
		t.Fatalf("stdout trace = %q, want trace JSON", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "-")); !os.IsNotExist(err) {
		t.Fatal("a literal file named \"-\" was created")
	}

	// A real path still writes a file.
	path := filepath.Join(dir, "t.json")
	if err := writeTrace(sink, path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), "traceEvents") {
		t.Fatalf("file trace = %q, %v", data, err)
	}
}

// TestWriteMetricsDash: -metrics - prints the snapshot to stderr and
// creates no "-" file; a real path writes a file.
func TestWriteMetricsDash(t *testing.T) {
	ctx := obs.New()
	ctx.Count("store.image.hit", 4)

	dir := t.TempDir()
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	out := captureFD(t, &os.Stderr, func() {
		if err := writeMetricsSnapshot(ctx, "-"); err != nil {
			t.Errorf("writeMetricsSnapshot(-): %v", err)
		}
	})
	if !strings.Contains(out, "store.image.hit") {
		t.Fatalf("stderr metrics = %q, want counter snapshot", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "-")); !os.IsNotExist(err) {
		t.Fatal("a literal file named \"-\" was created")
	}

	path := filepath.Join(dir, "m.txt")
	if err := writeMetricsSnapshot(ctx, path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), "store.image.hit") {
		t.Fatalf("file metrics = %q, %v", data, err)
	}
}

// TestOutputName pins the output-naming rule the batch loop relies on.
func TestOutputName(t *testing.T) {
	for _, tc := range []struct{ in, explicit, want string }{
		{"prog.x", "", "prog.atom"},
		{"dir.v2/prog.x", "", "dir.v2/prog.atom"},
		{"prog", "", "prog.atom"},
		{"prog.x", "out.bin", "out.bin"},
	} {
		if got := outputName(tc.in, tc.explicit); got != tc.want {
			t.Errorf("outputName(%q, %q) = %q, want %q", tc.in, tc.explicit, got, tc.want)
		}
	}
}

// TestRunQueensMetrics drives `atom -run -stats -metrics` on the queens
// suite program: the run prints the known answer and the -stats counter
// line, and the -metrics snapshot carries the run's machine-readable
// report — a vm.run span, a non-zero vm.icount counter (together the
// VM's realized retirement rate) and a histograms section.
func TestRunQueensMetrics(t *testing.T) {
	exe, err := spec.Build("queens")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	input := filepath.Join(dir, "queens.x")
	if err := exe.WriteFile(input); err != nil {
		t.Fatal(err)
	}
	ctx := obs.New()
	var status int
	var stderr string
	stdout := captureFD(t, &os.Stdout, func() {
		stderr = captureFD(t, &os.Stderr, func() {
			status = runUnderVM(ctx, runConfig{input: input, stats: true})
		})
	})
	if status != 0 {
		t.Fatalf("status %d, stderr %q", status, stderr)
	}
	if !strings.Contains(stdout, "queens: n=8 solutions=92") {
		t.Errorf("stdout = %q, want the 92 solutions", stdout)
	}
	if !strings.HasPrefix(stderr, "icount=") {
		t.Errorf("stderr = %q, want the -stats counter line", stderr)
	}

	snapPath := filepath.Join(dir, "metrics.txt")
	if err := writeMetricsSnapshot(ctx, snapPath); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(snap)
	if !regexp.MustCompile(`(?m)^vm\.run +[1-9][0-9]* +[0-9.]+$`).MatchString(text) {
		t.Errorf("metrics snapshot has no vm.run span:\n%s", text)
	}
	if !regexp.MustCompile(`(?m)^vm\.icount +[1-9][0-9]*$`).MatchString(text) {
		t.Errorf("metrics snapshot has no non-zero vm.icount counter:\n%s", text)
	}
	if !strings.Contains(text, "\n# histograms:") {
		t.Errorf("metrics snapshot has no histograms section:\n%s", text)
	}
}
