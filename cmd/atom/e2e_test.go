package main

// End-to-end gates of the command line: the built atom command driven
// as separate processes, the way a user runs it — trace, profile, vet,
// inline, persistence, telemetry, analyze and the heap scheme, plus the
// batch output-collision check, both argument orders of the default
// form and a real process's stdin. TestMain builds the command once;
// the gates skip under -short and when no go binary is on PATH.

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"atom/internal/obs"
	"atom/internal/prof"
)

// binDir holds the built command; it stays empty when the gates skip.
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(runTests(m))
}

func runTests(m *testing.M) int {
	if goBin, err := exec.LookPath("go"); err == nil && !testing.Short() {
		dir, err := os.MkdirTemp("", "atom-e2e-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		build := exec.Command(goBin, "build", "-o", dir+string(os.PathSeparator), "atom/cmd/atom")
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
			return 1
		}
		binDir = dir
	}
	return m.Run()
}

const (
	smokeC = `#include <stdio.h>
int main() { printf("ok\n"); return 0; }
`
	// longC runs long enough under the branch tool for the telemetry
	// gate to scrape the debug server mid-run.
	longC = `#include <stdio.h>
int main() { long i, s = 0; for (i = 0; i < 5000000; i++) s += i; printf("%ld\n", s); return 0; }
`
	// heapC prints the address of its one heap block: the linked sbrks
	// move it, the partitioned heap must not.
	heapC = `#include <stdio.h>
#include <stdlib.h>
int main() { char *p = malloc(64); printf("%lx\n", (long)p); return 0; }
`
	// readerC prints its input file and its first stdin line.
	readerC = `#include <stdio.h>
int main() {
    FILE *f; char buf[64]; long n; int c;
    f = fopen("in.txt", "r");
    if (!f) { printf("no in.txt\n"); return 1; }
    n = fread(buf, 1, 63, f);
    buf[n] = 0;
    fclose(f);
    printf("file: %s", buf);
    n = 0;
    c = getchar();
    while (c != -1 && c != '\n') { buf[n] = c; n = n + 1; c = getchar(); }
    buf[n] = 0;
    printf("stdin: %s\n", buf);
    return 0;
}
`
	// defectS is an analysis image with a seeded save-discipline defect:
	// Clobber overwrites the callee-save register s0.
	defectS = `	.text
	.globl main
	.ent main
main:
	clr v0
	ret (ra)
	.end main

	.globl Clobber
	.ent Clobber
Clobber:
	addq s0, 1, s0
	ret (ra)
	.end Clobber
`
)

// fixture is what every gate shares: the compiled programs and the
// built-in tool names.
type fixture struct {
	dir   string   // smoke.x, long.x, heap.x, reader.x, defect.x
	tools []string // first column of atom list
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
)

// programs skips the calling gate when the command was not built and
// otherwise returns the fixture, compiling it on first use.
func programs(t *testing.T) fixture {
	t.Helper()
	if testing.Short() {
		t.Skip("end-to-end gates skipped in -short mode")
	}
	if binDir == "" {
		t.Skip("no go binary on PATH")
	}
	fixOnce.Do(func() { fix, fixErr = buildFixture(filepath.Join(binDir, "progs")) })
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

func buildFixture(dir string) (fixture, error) {
	f := fixture{dir: dir}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return f, err
	}
	for name, src := range map[string]string{"smoke.c": smokeC, "long.c": longC, "heap.c": heapC, "reader.c": readerC, "defect.s": defectS} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			return f, err
		}
	}
	for _, step := range [][]string{
		{"cc", "smoke.c"},
		{"ld", "-o", "smoke.x", "smoke.o"},
		{"cc", "-o", "long.o", "long.c"},
		{"ld", "-o", "long.x", "long.o"},
		{"cc", "heap.c"},
		{"ld", "-o", "heap.x", "heap.o"},
		{"cc", "reader.c"},
		{"ld", "-o", "reader.x", "reader.o"},
		{"as", "defect.s"},
		{"ld", "-o", "defect.x", "defect.o"},
		{"list"},
	} {
		stdout, stderr, code, err := execBin(dir, "atom", step...)
		if err == nil && code != 0 {
			err = fmt.Errorf("exit %d\n%s", code, stderr)
		}
		if err != nil {
			return f, fmt.Errorf("atom %s: %w", strings.Join(step, " "), err)
		}
		if step[0] == "list" {
			for _, line := range lines(stdout) {
				f.tools = append(f.tools, strings.Fields(line)[0])
			}
		}
	}
	return f, nil
}

// stage copies the named fixture files into a fresh directory for one
// gate, so every gate's outputs land beside its own inputs.
func (f fixture) stage(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		copyFile(t, filepath.Join(f.dir, name), filepath.Join(dir, name))
	}
	return dir
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// binCmd prepares a built command run in dir. ATOM_CACHE_DIR is cleared
// so only an explicit -cache-dir gives a gate a persistent store.
func binCmd(dir, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "ATOM_CACHE_DIR=")
	return cmd
}

// execBin runs a built command in dir and returns its output and exit
// status; err is set only when the command could not run at all.
func execBin(dir, name string, args ...string) (stdout, stderr string, code int, err error) {
	cmd := binCmd(dir, name, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code, err = exit.ExitCode(), nil
	}
	return out.String(), errOut.String(), code, err
}

// command runs a built command in dir and returns its output and exit
// status.
func command(t *testing.T, dir, name string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	stdout, stderr, code, err := execBin(dir, name, args...)
	if err != nil {
		t.Fatalf("%s %s: %v", name, strings.Join(args, " "), err)
	}
	return stdout, stderr, code
}

// mustRun runs a built command in dir that must exit 0.
func mustRun(t *testing.T, dir, name string, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, code := command(t, dir, name, args...)
	if code != 0 {
		t.Fatalf("%s %s: exit %d\n%s", name, strings.Join(args, " "), code, stderr)
	}
	return stdout, stderr
}

// lines splits text into its newline-terminated lines.
func lines(text string) []string {
	if text == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(text, "\n"), "\n")
}

// TestTraceGate: instrumenting with tracing on writes a non-empty,
// well-formed Chrome trace covering compile, link, lift, plan, image
// build and apply, with cache lookups attributed by outcome.
func TestTraceGate(t *testing.T) {
	dir := programs(t).stage(t, "smoke.x")
	mustRun(t, dir, "atom", "-t", "branch", "-trace", "smoke.trace.json", "-o", "smoke.atom", "smoke.x")
	events, err := obs.ParseTrace(readFile(t, filepath.Join(dir, "smoke.trace.json")))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
	seen := map[string]bool{}
	attributed := false
	for _, e := range events {
		seen[e.Name] = true
		if e.Args["outcome"] != "" {
			attributed = true
		}
	}
	for _, want := range []string{"cc.compile", "link.link", "om.lift", "atom.plan", "atom.image.build", "atom.apply"} {
		if !seen[want] {
			t.Errorf("no %q span in trace", want)
		}
	}
	if !attributed {
		t.Error("no cache lookup with an outcome attribute in trace")
	}
}

// TestProfileGate: two profiled runs write syntactically valid,
// byte-identical folded profiles (sampling is deterministic), and the
// flat report names its period.
func TestProfileGate(t *testing.T) {
	dir := programs(t).stage(t, "smoke.x")
	for _, p := range []string{"p1.folded", "p2.folded"} {
		mustRun(t, dir, "atom", "run", "-t", "branch", "-profile", p, "-profile-format=folded", "-profile-period", "500", "smoke.x")
	}
	p1, p2 := readFile(t, filepath.Join(dir, "p1.folded")), readFile(t, filepath.Join(dir, "p2.folded"))
	if _, err := prof.ValidateFolded(p1); err != nil {
		t.Error(err)
	}
	if !bytes.Equal(p1, p2) {
		t.Errorf("folded profiles of two identical runs differ:\n%s\n---\n%s", p1, p2)
	}
	mustRun(t, dir, "atom", "run", "-t", "branch", "-profile", "p.flat", "-profile-period", "500", "smoke.x")
	if flat := readFile(t, filepath.Join(dir, "p.flat")); !bytes.Contains(flat, []byte("# atom prof: period=500")) {
		t.Errorf("flat profile lacks its period header:\n%s", flat)
	}
}

// TestToolGates instruments the smoke program with every built-in tool
// in two separate processes: under -vet with the inliner on (the vet
// gate) and off (the inline gate), each verifying the input IR, the PC
// maps and the rewritten text.
func TestToolGates(t *testing.T) {
	f := programs(t)
	dir := f.stage(t, "smoke.x")
	for _, tool := range f.tools {
		t.Run(tool, func(t *testing.T) {
			t.Parallel()
			mustRun(t, dir, "atom", "-vet", "-t", tool, "-o", "smoke."+tool+".atom", "smoke.x")
			mustRun(t, dir, "atom", "-vet", "-noinline", "-t", tool, "-o", "smoke."+tool+".noinline.atom", "smoke.x")
		})
	}
}

// TestPersistenceGate: two processes sharing one -cache-dir. The second
// instruments with zero builds in every cache, the tool image served
// from disk, and byte-identical output. Then every blob
// is truncated in place: a third run deletes what it reads, rebuilds
// silently (exit 0) and still writes identical output.
func TestPersistenceGate(t *testing.T) {
	dir := programs(t).stage(t, "smoke.x")
	instrument := func(out string, stats bool) string {
		args := []string{"-t", "branch", "-cache-dir", "cache", "-o", out}
		if stats {
			args = append(args, "-stats")
		}
		stdout, _ := mustRun(t, dir, "atom", append(args, "smoke.x")...)
		return stdout
	}
	instrument("smoke.cold.atom", false)
	warm := instrument("smoke.warm.atom", true)
	cold := readFile(t, filepath.Join(dir, "smoke.cold.atom"))
	if !bytes.Equal(cold, readFile(t, filepath.Join(dir, "smoke.warm.atom"))) {
		t.Error("warm output differs from the cold output")
	}
	for _, re := range []string{
		`image cache:.*, 0 builds`,
		`object cache:.*, 0 builds`,
		`image cache:.* [1-9][0-9]* disk hits`,
	} {
		if !regexp.MustCompile("(?m)" + re).MatchString(warm) {
			t.Errorf("warm -stats lacks %q:\n%s", re, warm)
		}
	}

	err := filepath.WalkDir(filepath.Join(dir, "cache", "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data[:min(len(data), 20)], 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	rebuild := instrument("smoke.rebuilt.atom", true)
	if !bytes.Equal(cold, readFile(t, filepath.Join(dir, "smoke.rebuilt.atom"))) {
		t.Error("output rebuilt over a corrupted store differs from the cold output")
	}
	if !regexp.MustCompile(`(?m)disk store:.* [1-9][0-9]* corrupt`).MatchString(rebuild) {
		t.Errorf("-stats over a corrupted store reports no corrupt blobs:\n%s", rebuild)
	}
}

// TestTelemetryGate: the embedded debug server, live. A multi-program
// batch brings the server up and down cleanly and counts its programs
// in the metrics snapshot. Then a long VM run is scraped mid-flight:
// /healthz and /metrics twice (the second >= the first on every _total
// series, with identical series ordering); the run still exits 0.
func TestTelemetryGate(t *testing.T) {
	dir := programs(t).stage(t, "smoke.x", "long.x")
	copyFile(t, filepath.Join(dir, "smoke.x"), filepath.Join(dir, "smoke2.x"))
	copyFile(t, filepath.Join(dir, "smoke.x"), filepath.Join(dir, "smoke3.x"))
	_, batchErr := mustRun(t, dir, "atom", "-t", "branch", "-j", "2", "-debug-addr", "127.0.0.1:0",
		"-metrics", "batch.metrics", "smoke.x", "smoke2.x", "smoke3.x")
	if !strings.Contains(batchErr, "telemetry listening on http://") {
		t.Errorf("batch stderr lacks the listening line:\n%s", batchErr)
	}
	if m := readFile(t, filepath.Join(dir, "batch.metrics")); !regexp.MustCompile(`atom\.batch\.done +3`).Match(m) {
		t.Errorf("batch metrics do not count 3 programs done:\n%s", m)
	}

	cmd := binCmd(dir, "atom", "run", "-t", "branch", "-debug-addr", "127.0.0.1:0", "long.x")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	addrc := make(chan string, 1)
	var rest strings.Builder // stderr after the listening line
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		const marker = "telemetry listening on http://"
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			if i := strings.Index(sc.Text(), marker); i >= 0 && !found {
				found = true
				addrc <- sc.Text()[i+len(marker):]
				continue
			}
			rest.WriteString(sc.Text() + "\n")
		}
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(20 * time.Second):
		t.Fatal("the run never printed its telemetry address")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", path, resp.Status)
		}
		return string(body)
	}
	healthOK := false
	for _, line := range lines(get("/healthz")) {
		healthOK = healthOK || line == "ok"
	}
	// The server comes up before the instrumentation: scrape until the
	// tool image's cache miss shows, then go on while the VM runs.
	var m1 string
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		m1 = get("/metrics")
		if imageMiss.MatchString(m1) || time.Now().After(deadline) {
			break
		}
	}
	m2 := get("/metrics")

	if !healthOK {
		t.Error("/healthz did not answer ok")
	}
	if !imageMiss.MatchString(m1) {
		t.Errorf("/metrics lacks atom_store_image_miss_total:\n%s", m1)
	}
	checkScrapes(t, m1, m2)

	<-drained
	if err := cmd.Wait(); err != nil {
		t.Errorf("scraped run: %v\n%s", err, rest.String())
	}
}

var imageMiss = regexp.MustCompile(`(?m)^atom_store_image_miss_total`)

// checkScrapes requires a later /metrics scrape to keep every series of
// an earlier one in the same order and never to lower a _total series.
func checkScrapes(t *testing.T, m1, m2 string) {
	t.Helper()
	type sample struct{ name, value string }
	parse := func(text string) []sample {
		var out []sample
		for _, line := range lines(text) {
			if strings.HasPrefix(line, "#") {
				continue
			}
			var s sample
			if f := strings.Fields(line); len(f) > 1 {
				s = sample{f[0], f[1]}
			} else if len(f) == 1 {
				s.name = f[0]
			}
			out = append(out, s)
		}
		return out
	}
	s1, s2 := parse(m1), parse(m2)
	in1 := map[string]bool{}
	totals := map[string]float64{}
	for _, s := range s1 {
		in1[s.name] = true
		if strings.Contains(s.name, "_total") {
			v, err := strconv.ParseFloat(s.value, 64)
			if err != nil {
				t.Fatalf("first scrape: %s: %v", s.name, err)
			}
			totals[s.name] = v
		}
	}
	var common []string
	for _, s := range s2 {
		if in1[s.name] {
			common = append(common, s.name)
		}
		if before, ok := totals[s.name]; ok {
			v, err := strconv.ParseFloat(s.value, 64)
			if err != nil {
				t.Fatalf("second scrape: %s: %v", s.name, err)
			}
			if v < before {
				t.Errorf("regressed: %s %v -> %v", s.name, before, v)
			}
		}
	}
	var names1 []string
	for _, s := range s1 {
		names1 = append(names1, s.name)
	}
	if strings.Join(common, "\n") != strings.Join(names1, "\n") {
		t.Errorf("series of the first scrape are missing or reordered in the second:\n%s\n---\n%s", m1, m2)
	}
}

// TestAnalyzeGate: the pass manager reports every built-in tool image
// clean, byte-identically in text and JSON across two runs, and the
// smoke programs clean as applications; an image whose routine clobbers
// a callee-save register fails atom analyze with the toollint
// diagnostic.
func TestAnalyzeGate(t *testing.T) {
	f := programs(t)
	dir := f.stage(t, "smoke.x", "long.x", "defect.x")
	t.Run("tools", func(t *testing.T) {
		for _, tool := range f.tools {
			t.Run(tool, func(t *testing.T) {
				t.Parallel()
				var text, js [2][]byte
				for i := range text {
					jsonPath := fmt.Sprintf("an%d.%s.json", i+1, tool)
					stdout, _ := mustRun(t, dir, "atom", "analyze", "-t", tool, "-json", jsonPath)
					text[i], js[i] = []byte(stdout), readFile(t, filepath.Join(dir, jsonPath))
				}
				if !bytes.Equal(text[0], text[1]) || !bytes.Equal(js[0], js[1]) {
					t.Errorf("%s: two atom analyze runs differ", tool)
				}
				if !bytes.Contains(text[0], []byte("tool:"+tool+": clean")) {
					t.Errorf("%s: image not clean:\n%s", tool, text[0])
				}
			})
		}
	})
	apps, _ := mustRun(t, dir, "atom", "analyze", "smoke.x", "long.x")
	for _, want := range []string{"smoke.x: clean", "long.x: clean"} {
		if !strings.Contains(apps, want) {
			t.Errorf("atom analyze of the applications lacks %q:\n%s", want, apps)
		}
	}
	defect, _, code := command(t, dir, "atom", "analyze", "-as", "tool", "defect.x")
	if code == 0 {
		t.Error("seeded save-discipline defect not caught")
	}
	if !strings.Contains(defect, "clobbers callee-save register s0") {
		t.Errorf("defect report lacks the toollint diagnostic:\n%s", defect)
	}
}

// TestBatchOutputCollision: within one invocation, an input whose output
// path an earlier input already claimed fails soft with an error naming
// both, and the earlier input's output survives intact.
func TestBatchOutputCollision(t *testing.T) {
	dir := programs(t).stage(t, "smoke.x", "long.x")
	if err := os.Mkdir(filepath.Join(dir, "a"), 0o755); err != nil {
		t.Fatal(err)
	}
	copyFile(t, filepath.Join(dir, "smoke.x"), filepath.Join(dir, "a", "p.x"))
	copyFile(t, filepath.Join(dir, "long.x"), filepath.Join(dir, "a", "p.y"))

	_, stderr, code := command(t, dir, "atom", "-t", "branch", "-v", "a/p.x", "a/p.y")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if want := "atom: a/p.y: output a/p.atom is already claimed by a/p.x"; !strings.Contains(stderr, want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr)
	}
	mustRun(t, dir, "atom", "-t", "branch", "-o", "solo.atom", "a/p.x")
	if !bytes.Equal(readFile(t, filepath.Join(dir, "a", "p.atom")), readFile(t, filepath.Join(dir, "solo.atom"))) {
		t.Error("a/p.atom is not a/p.x's output")
	}
}

// TestHeapSchemeGate: -heap is recorded in the written executable, so
// running the file prints the heap address the in-process atom run -t
// and the bare program print, while the linked sbrks move it.
func TestHeapSchemeGate(t *testing.T) {
	dir := programs(t).stage(t, "heap.x")
	bare, _ := mustRun(t, dir, "atom", "run", "heap.x")
	inProcess, _ := mustRun(t, dir, "atom", "run", "-t", "cache", "-heap", "1048576", "heap.x")
	mustRun(t, dir, "atom", "-t", "cache", "-heap", "1048576", "-o", "heap.atom", "heap.x")
	fromFile, _ := mustRun(t, dir, "atom", "run", "heap.atom")
	if fromFile != inProcess || fromFile != bare {
		t.Errorf("partitioned heap: file run prints %q, in-process run %q, bare %q", fromFile, inProcess, bare)
	}
	mustRun(t, dir, "atom", "-t", "cache", "-o", "linked.atom", "heap.x")
	if linked, _ := mustRun(t, dir, "atom", "run", "linked.atom"); linked == bare {
		t.Errorf("linked sbrks print the bare address %q; the fixture no longer tells the schemes apart", bare)
	}
}

// TestArgumentOrderGate: the paper's `atom prog.x -t tool -o out` and the
// flags-first form write byte-identical executables.
func TestArgumentOrderGate(t *testing.T) {
	dir := programs(t).stage(t, "smoke.x")
	mustRun(t, dir, "atom", "smoke.x", "-t", "branch", "-o", "a.atom")
	mustRun(t, dir, "atom", "-t", "branch", "-o", "b.atom", "smoke.x")
	if !bytes.Equal(readFile(t, filepath.Join(dir, "a.atom")), readFile(t, filepath.Join(dir, "b.atom"))) {
		t.Error("the two argument orders write different executables")
	}
}

// TestRunStdinGate: atom run serves the process's own stdin and the -fs
// directory's files to the program, bare and instrumented alike, and the
// tool's report lands in that directory.
func TestRunStdinGate(t *testing.T) {
	dir := programs(t).stage(t, "reader.x")
	data := filepath.Join(dir, "data")
	if err := os.Mkdir(data, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(data, "in.txt"), []byte("from file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "file: from file\nstdin: from stdin\n"
	for _, args := range [][]string{{"run", "-fs", "data", "reader.x"}, {"run", "-t", "branch", "-fs", "data", "reader.x"}} {
		cmd := binCmd(dir, "atom", args...)
		cmd.Stdin = strings.NewReader("from stdin\nignored\n")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil || string(out) != want {
			t.Errorf("atom %s: %v, stdout %q, want %q\n%s", strings.Join(args, " "), err, out, want, stderr.String())
		}
	}
	if _, err := os.Stat(filepath.Join(data, "branch.out")); err != nil {
		t.Errorf("the branch report is not in the -fs directory: %v", err)
	}
}
