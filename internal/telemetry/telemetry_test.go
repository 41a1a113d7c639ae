package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
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
	ctx := obs.New()
	ctx.Count("store.image.hit", 3)
	ctx.Count("atom.sites", 7)
	ctx.Observe("site_regs", 4)
	ctx.Observe("site_regs", 100)
	_, sp := ctx.Start("atom.apply")
	sp.End()

	var a, b bytes.Buffer
	if err := WritePrometheus(&a, ctx.Metrics()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, ctx.Metrics()); err != nil {
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

// TestServerEndpoints drives a live server end to end: /metrics twice
// (second monotonically >= first, identical ordering), /healthz and
// /debug/pprof/; then a clean Close.
func TestServerEndpoints(t *testing.T) {
	ctx := obs.New()
	srv := NewServer(ctx.Metrics())
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
