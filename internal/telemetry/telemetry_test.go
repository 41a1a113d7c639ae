package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"atom/internal/obs"
)

func TestMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"store.image.hit":   "atom_store_image_hit",
		"atom.sites":        "atom_sites",
		"vm.icount":         "atom_vm_icount",
		"weird-name.x":      "atom_weird_name_x",
		"already_clean":     "atom_already_clean",
		"atom.batch.failed": "atom_batch_failed",
	} {
		if got := MetricName(in); got != want {
			t.Errorf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusDeterministic: two renders of the same state are
// byte-identical, and renders across growing state keep the same
// ordering discipline (sections in fixed order, names sorted within).
func TestWritePrometheusDeterministic(t *testing.T) {
	reg := NewRegistry()
	ctx := obs.New(reg.Sink())
	ctx.Count("store.image.hit", 3)
	ctx.Count("atom.sites", 7)
	ctx.Observe("site_regs", 4)
	ctx.Observe("site_regs", 100)
	_, sp := ctx.Start("atom.apply")
	sp.End()
	reg.SetGauge("vm.total.runs", func() int64 { return 42 })

	var a, b bytes.Buffer
	if err := reg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two renders differ:\n--- a\n%s--- b\n%s", a.String(), b.String())
	}

	out := a.String()
	for _, want := range []string{
		"atom_sites_total 7",
		"atom_store_image_hit_total 3",
		"# TYPE atom_site_regs histogram",
		`atom_site_regs_bucket{le="+Inf"} 2`,
		"atom_site_regs_sum 104",
		"atom_site_regs_count 2",
		`atom_span_count_total{span="atom.apply"} 1`,
		"# TYPE atom_vm_total_runs gauge",
		"atom_vm_total_runs 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Counters sort by metric name: atom_sites_total before
	// atom_store_image_hit_total.
	if strings.Index(out, "atom_sites_total") > strings.Index(out, "atom_store_image_hit_total") {
		t.Error("counters not sorted by name")
	}
	// Histogram buckets are cumulative and le-labelled at power-of-two
	// bounds: 4 falls in [4,8) so le="8" covers it.
	if !strings.Contains(out, `atom_site_regs_bucket{le="8"} 1`) {
		t.Errorf("expected cumulative le=\"8\" bucket with count 1:\n%s", out)
	}
}

// TestRegistryReconciles: the registry's event-fed aggregate matches the
// obs context's own aggregate exactly — counters, histogram snapshots,
// and span counts per name — the invariant that makes a mid-run scrape
// agree with end-of-run -stats and -metrics numbers.
func TestRegistryReconciles(t *testing.T) {
	reg := NewRegistry()
	ctx := obs.New(reg.Sink())
	ctx.Count("a.one", 5)
	ctx.Count("b.two", 7)
	ctx.Observe("lat", 3)
	ctx.Observe("lat", 900)
	child, sp := ctx.Start("phase")
	child.Count("a.one", 2)
	child.Observe("lat", -1)
	child.Observe("depth", 12)
	_, inner := child.Start("inner")
	inner.End()
	sp.End()
	_, sp = ctx.Start("phase")
	sp.End()

	for _, c := range ctx.Counters() {
		if got := reg.Sink().Counter(c.Name); got != c.Value {
			t.Errorf("registry %s = %d, ctx = %d", c.Name, got, c.Value)
		}
	}
	if got := reg.Sink().Counter("a.one"); got != 7 {
		t.Errorf("a.one = %d, want 7 (parent+child)", got)
	}
	if got, want := reg.Sink().Histograms(), ctx.Histograms(); !reflect.DeepEqual(got, want) || len(want) != 2 {
		t.Errorf("registry histograms = %+v, ctx = %+v", got, want)
	}
	spanCounts := func(stats []obs.SpanStat) map[string]int64 {
		m := map[string]int64{}
		for _, s := range stats {
			m[s.Name] = s.Count
		}
		return m
	}
	got, want := spanCounts(reg.Sink().Spans()), spanCounts(ctx.Metrics().Spans())
	if !reflect.DeepEqual(got, want) || want["phase"] != 2 || want["inner"] != 1 {
		t.Errorf("registry span counts = %v, ctx = %v, want phase=2 inner=1", got, want)
	}
}

// TestServerEndpoints drives a live server end to end: /metrics twice
// (second monotonically >= first, identical ordering), /healthz,
// /debug/events with a limit, and /debug/pprof/; then a clean Close.
func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	stream := obs.NewStreamSink()
	ctx := obs.New(reg.Sink(), stream)
	srv := NewServer(reg, stream)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (string, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, _ := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %q", body)
	}

	ctx.Count("test.hits", 3)
	m1, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type = %q, want exposition 0.0.4", ctype)
	}
	ctx.Count("test.hits", 2)
	m2, _ := get("/metrics")
	if !strings.Contains(m1, "atom_test_hits_total 3") || !strings.Contains(m2, "atom_test_hits_total 5") {
		t.Fatalf("scrapes not monotone:\n--- 1\n%s--- 2\n%s", m1, m2)
	}
	names := func(s string) []string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				out = append(out, f[0])
			}
		}
		return out
	}
	n1, n2 := names(m1), names(m2)
	if fmt.Sprint(n1) != fmt.Sprint(n2) {
		t.Fatalf("scrape shapes differ:\n%v\n%v", n1, n2)
	}

	// The events endpoint with ?n= delivers exactly that many NDJSON
	// records (the backlog replays, so the earlier counts are visible)
	// and then the server closes the response.
	resp, err := http.Get(base + "/debug/events?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var events []obs.Event
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want exactly 2", len(events))
	}
	if events[0].Name != "test.hits" || events[0].Value != 3 {
		t.Fatalf("first replayed event = %+v", events[0])
	}

	if body, _ := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("/debug/pprof/cmdline returned nothing")
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestServerCloseTerminatesStream: an open unlimited /debug/events
// request ends when the server closes, instead of hanging.
func TestServerCloseTerminatesStream(t *testing.T) {
	reg := NewRegistry()
	stream := obs.NewStreamSink()
	srv := NewServer(reg, stream)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(resp.Body)
		done <- err
	}()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-done // reader must return promptly; the test hangs otherwise
}

// TestDefaultServerLifecycle: the process-wide server starts once,
// rejects a second start, stops cleanly, and can start again.
func TestDefaultServerLifecycle(t *testing.T) {
	srv, err := StartDefaultServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartDefaultServer("127.0.0.1:0"); err == nil {
		t.Error("second StartDefaultServer did not error")
	}
	// The default registry carries the process gauges; the rendered
	// exposition includes them even with no obs activity at all.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"atom_vm_total_runs", "atom_prof_total_samples"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("default /metrics missing gauge %s", want)
		}
	}
	if err := StopDefaultServer(); err != nil {
		t.Fatal(err)
	}
	if err := StopDefaultServer(); err != nil {
		t.Fatalf("second StopDefaultServer: %v", err)
	}
	srv2, err := StartDefaultServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := StopDefaultServer(); err != nil {
		t.Fatal(err)
	}
	_ = srv2
}

// TestLogSinkLevels: span outcomes map to the documented levels and
// messages.
func TestLogSinkLevels(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	sink := &LogSink{L: logger}
	end := func(name, outcome string) {
		sd := obs.SpanData{Name: name}
		if outcome != "" {
			sd.Attrs = []obs.Attr{obs.String("outcome", outcome)}
		}
		sink.SpanEnd(sd)
	}
	end("cache.get", "miss")
	end("cache.get", "disk")
	end("cache.get", "error")
	end("store.get", "corrupt")
	end("atom.apply", "")

	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		recs = append(recs, m)
	}
	want := []struct{ level, msg string }{
		{"INFO", "cache miss"},
		{"INFO", "cache disk hit"},
		{"ERROR", "cache build failed"},
		{"WARN", "corrupt blob deleted"},
		{"DEBUG", "span end"},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if recs[i]["level"] != w.level || recs[i]["msg"] != w.msg {
			t.Errorf("record %d = %v/%v, want %s/%s", i, recs[i]["level"], recs[i]["msg"], w.level, w.msg)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) did not error")
	}
	if _, err := NewLogger(io.Discard, "xml", slog.LevelInfo); err == nil {
		t.Error("NewLogger(xml) did not error")
	}
}

// TestGaugeRemoval: SetGauge(nil) removes; renders stay deterministic.
func TestGaugeRemoval(t *testing.T) {
	reg := NewRegistry()
	v := int64(1)
	reg.SetGauge("g.x", func() int64 { return v })
	var a bytes.Buffer
	reg.WritePrometheus(&a)
	if !strings.Contains(a.String(), "atom_g_x 1") {
		t.Fatalf("gauge missing:\n%s", a.String())
	}
	reg.SetGauge("g.x", nil)
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	if strings.Contains(b.String(), "atom_g_x") {
		t.Fatalf("removed gauge still rendered:\n%s", b.String())
	}
}
