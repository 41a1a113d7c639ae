package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"atom/internal/aout"
	"atom/internal/obs"
	"atom/internal/rtl"
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
	for _, tc := range []struct{ in, explicit, ext, want string }{
		{"prog.x", "", ".atom", "prog.atom"},
		{"dir.v2/prog.x", "", ".atom", "dir.v2/prog.atom"},
		{"prog", "", ".atom", "prog.atom"},
		{"prog.x", "out.bin", ".atom", "out.bin"},
		{"src/hello.c", "", ".o", "src/hello.o"},
	} {
		if got := outputName(tc.in, tc.explicit, tc.ext); got != tc.want {
			t.Errorf("outputName(%q, %q, %q) = %q, want %q", tc.in, tc.explicit, tc.ext, got, tc.want)
		}
	}
}

// TestRunQueensMetrics drives `atom run -stats -metrics` on the queens
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
			status = runUnderVM(ctx, runConfig{input: input, fsDir: dir, stats: true})
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

// buildProgram compiles MiniC source to dir/name.x and returns its path.
func buildProgram(t *testing.T, dir, name, src string) string {
	t.Helper()
	exe, err := rtl.BuildProgram(name+".c", src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".x")
	if err := exe.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// atomIn runs the command in-process in dir, with stdin as what atom run
// serves on fd 0, and returns its exit status and output.
func atomIn(t *testing.T, dir string, stdin []byte, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	t.Setenv("ATOM_CACHE_DIR", "")
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	stdout = captureFD(t, &os.Stdout, func() {
		stderr = captureFD(t, &os.Stderr, func() { status = run(args, stdin) })
	})
	return status, stdout, stderr
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestModeFlagsRejected: each subcommand registers only its own flags,
// so a flag of another mode is an error instead of being ignored, and
// the old mode flags are gone.
func TestModeFlagsRejected(t *testing.T) {
	dir := t.TempDir()
	exe, err := spec.Build("queens")
	if err != nil {
		t.Fatal(err)
	}
	if err := exe.WriteFile(filepath.Join(dir, "queens.x")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"run", "-o", "foo.atom", "queens.x"}, 1}, // -o writes the instrumented program
		{[]string{"analyze", "-o", "zz", "queens.x"}, 2},
		{[]string{"analyze", "-j", "3", "queens.x"}, 2},
		{[]string{"-t", "branch", "-profile", "p.txt", "queens.x"}, 2},
		{[]string{"-run", "queens.x"}, 2},
		{[]string{"-t", "branch", "-analyze", "queens.x"}, 2},
		{[]string{"-list"}, 2},
	} {
		status, stdout, stderr := atomIn(t, dir, nil, tc.args...)
		if status != tc.want {
			t.Errorf("atom %s: exit %d, want %d\n%s%s", strings.Join(tc.args, " "), status, tc.want, stdout, stderr)
		}
		for _, out := range []string{"foo.atom", "zz", "p.txt", "queens.atom"} {
			if exists(filepath.Join(dir, out)) {
				t.Errorf("atom %s wrote %s", strings.Join(tc.args, " "), out)
			}
		}
	}
}

// escapeC writes three files: one that climbs out of the run directory,
// one at an absolute path (%s) and one inside it.
const escapeC = `#include <stdio.h>
int put(char *path) { FILE *f; f = fopen(path, "w"); if (!f) return 1; fputs("x\n", f); fclose(f); return 0; }
int main() { put("../escape.txt"); put("%s"); put("ok.txt"); printf("done\n"); return 0; }
`

// TestGuestWritesConfined: atom run writes a guest file only inside the
// -fs directory. Paths that are absolute or climb out of it are refused
// and named, the exit status is non-zero, and the run's other files are
// still written.
func TestGuestWritesConfined(t *testing.T) {
	root := t.TempDir()
	fsDir := filepath.Join(root, "run")
	if err := os.Mkdir(fsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	abs := filepath.Join(t.TempDir(), "abs.txt")
	prog := buildProgram(t, root, "escape", fmt.Sprintf(escapeC, abs))
	status, stdout, stderr := atomIn(t, root, nil, "run", "-fs", fsDir, prog)
	if status == 0 {
		t.Error("escaping writes exited 0")
	}
	if stdout != "done\n" {
		t.Errorf("stdout = %q", stdout)
	}
	for _, p := range []string{filepath.Join(root, "escape.txt"), abs} {
		if exists(p) {
			t.Errorf("the guest wrote %s", p)
		}
	}
	for _, p := range []string{"../escape.txt", abs} {
		if !strings.Contains(stderr, p) {
			t.Errorf("stderr does not name %s:\n%s", p, stderr)
		}
	}
	if data, err := os.ReadFile(filepath.Join(fsDir, "ok.txt")); err != nil || string(data) != "x\n" {
		t.Errorf("ok.txt = %q, %v", data, err)
	}
}

// TestReadStdin: a pipe is read to EOF; a terminal or other character
// device (here /dev/null) is not read at all.
func TestReadStdin(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteString("line\n")
	w.Close()
	if got, err := readStdin(r); err != nil || string(got) != "line\n" {
		t.Errorf("pipe: %q, %v", got, err)
	}
	r.Close()
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	if got, err := readStdin(null); err != nil || got != nil {
		t.Errorf("character device read: %q, %v", got, err)
	}
}

// TestDis: atom dis prints a header per procedure, annotates a branch
// with the symbol it enters, and prints a word that does not decode as
// .word.
func TestDis(t *testing.T) {
	dir := t.TempDir()
	prog := buildProgram(t, dir, "smoke", smokeC)
	status, out, stderr := atomIn(t, dir, nil, "dis", prog)
	if status != 0 {
		t.Fatalf("exit %d\n%s", status, stderr)
	}
	if !strings.Contains(out, "\nmain:\n") {
		t.Error("no main: header")
	}
	if !regexp.MustCompile(`(?m)^ *0x[0-9a-f]+:  \w+ \S+, 0x[0-9a-f]+ <\w+>$`).MatchString(out) {
		t.Errorf("no branch annotated with its target symbol:\n%s", out)
	}

	exe, err := aout.ReadFile(prog)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(exe.Text, 0x20<<26) // LDF: not in the subset
	bad := filepath.Join(dir, "bad.x")
	if err := exe.WriteFile(bad); err != nil {
		t.Fatal(err)
	}
	if _, out, _ := atomIn(t, dir, nil, "dis", bad); !strings.Contains(out, ":  .word 0x80000000\n") {
		t.Errorf("undecodable word not printed as .word:\n%s", out)
	}
}
