package telemetry_test

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"atom/internal/core"
	"atom/internal/obs"
	"atom/internal/prof"
	"atom/internal/spec"
	"atom/internal/telemetry"
	"atom/internal/tools"
	"atom/internal/vm"
)

// TestOneAggregateReconciles: a program compiled, instrumented and run
// (profiled) through one obs.Ctx, whose Metrics a telemetry.Server
// serves. The -metrics snapshot (Metrics.WriteTo) and the /metrics
// scrape render the same object, so every counter, every histogram's
// count and sum and every span count read the same in both; and the
// exposition carries no gauge.
func TestOneAggregateReconciles(t *testing.T) {
	ctx := obs.New()
	app, err := spec.BuildCtx(ctx, "queens")
	if err != nil {
		t.Fatal(err)
	}
	tool, _ := tools.ByName("branch")
	res, err := core.InstrumentCtx(ctx, app, tool, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.Config{Obs: ctx}
	pr := prof.New(prof.Options{Procs: res.PCMap.OrigProcs(), MapPC: res.PCMap.OldAddr, Obs: ctx})
	pr.Attach(&cfg)
	m, err := vm.New(res.Exe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	pr.Flush()

	srv := telemetry.NewServer(ctx.Metrics())
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scrape := map[string]string{} // series -> value
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") && strings.HasSuffix(line, " gauge") {
			t.Errorf("exposition has a gauge: %s", line)
		}
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			scrape[f[0]] = f[1]
		}
	}
	want := func(series, value string) {
		t.Helper()
		if got, ok := scrape[series]; !ok {
			t.Errorf("/metrics lacks %s (snapshot says %s)", series, value)
		} else if got != value {
			t.Errorf("/metrics %s = %s, snapshot says %s", series, got, value)
		}
	}

	var snap bytes.Buffer
	if _, err := ctx.Metrics().WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	section := ""
	var counters, hists, spans int
	for _, line := range strings.Split(snap.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# "):
			section = strings.TrimSuffix(f[1], ":")
		case len(f) == 0 || strings.HasPrefix(line, "  "): // histogram bucket rows
		case section == "spans":
			want(`atom_span_count_total{span=`+strconv.Quote(f[0])+`}`, f[1])
			spans++
		case section == "counters":
			want(telemetry.MetricName(f[0])+"_total", f[1])
			counters++
		case section == "histograms":
			name := telemetry.MetricName(f[0])
			want(name+"_count", f[1])
			want(name+"_sum", f[2])
			hists++
		}
	}
	// The run exercised every section: compile and apply spans, cache
	// and VM counters, the VM's and the profiler's histograms.
	if spans == 0 || counters == 0 || hists == 0 {
		t.Fatalf("snapshot has %d spans, %d counters, %d histograms; want some of each:\n%s", spans, counters, hists, snap.String())
	}
	for _, name := range []string{"vm.icount", "prof.samples"} {
		if ctx.Metrics().Counter(name) == 0 {
			t.Errorf("counter %s is zero", name)
		}
	}
}
