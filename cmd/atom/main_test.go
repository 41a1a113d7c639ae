package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atom/internal/figures"
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

// TestRunQueensBenchJSON drives `atom -run -stats -bench-json` on the
// queens suite program: the run prints the known answer, the -stats
// counter line, and an atom-run/v7 document carrying the VM's
// retirement rate. The -metrics snapshot of the same context must carry
// exactly the document's counters and histograms, row for row: both
// render the context's one obs.Metrics aggregate.
func TestRunQueensBenchJSON(t *testing.T) {
	exe, err := spec.Build("queens")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	input, doc := filepath.Join(dir, "queens.x"), filepath.Join(dir, "run.json")
	if err := exe.WriteFile(input); err != nil {
		t.Fatal(err)
	}
	ctx := obs.New()
	var status int
	var stderr string
	stdout := captureFD(t, &os.Stdout, func() {
		stderr = captureFD(t, &os.Stderr, func() {
			status = runUnderVM(ctx, runConfig{input: input, benchJSON: doc, stats: true})
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
	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	var rd figures.RunDoc
	if err := json.Unmarshal(data, &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Schema != "atom-run/v7" || rd.VMMinstS <= 0 {
		t.Errorf("bench JSON schema %q vm_minst_s %v, want atom-run/v7 with a positive rate", rd.Schema, rd.VMMinstS)
	}

	snapPath := filepath.Join(dir, "metrics.txt")
	if err := writeMetricsSnapshot(ctx, snapPath); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var counters []obs.Counter
	for _, c := range rd.Counters {
		counters = append(counters, obs.Counter{Name: c.Name, Value: c.Value})
	}
	var hists []obs.Hist
	for _, h := range rd.Hists {
		oh := obs.Hist{Name: h.Name, Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
		for _, b := range h.Buckets {
			oh.Buckets = append(oh.Buckets, obs.HistBucket{Lo: b.Lo, Hi: b.Hi, Count: b.Count})
		}
		hists = append(hists, oh)
	}
	if len(counters) == 0 || len(hists) == 0 {
		t.Fatalf("bench JSON has %d counters and %d histograms, want both non-empty", len(counters), len(hists))
	}
	text := string(snap)
	ci, hi := strings.Index(text, "# counters:"), strings.Index(text, "# histograms:")
	if ci < 0 || hi < ci {
		t.Fatalf("metrics snapshot lacks its counters/histograms sections:\n%s", text)
	}
	if got, want := text[ci:hi], obs.FormatCounters(counters); got != want {
		t.Errorf("snapshot counters differ from bench JSON:\n--- snapshot\n%s--- bench JSON\n%s", got, want)
	}
	if got, want := text[hi:], obs.FormatHistograms(hists); got != want {
		t.Errorf("snapshot histograms differ from bench JSON:\n--- snapshot\n%s--- bench JSON\n%s", got, want)
	}
}
