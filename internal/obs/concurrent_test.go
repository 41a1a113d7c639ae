package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentFanOut hammers one Ctx from many goroutines — counters,
// histogram observations, and nested spans — with a TraceSink attached
// beside the context's own Metrics, while a reader snapshots that
// Metrics concurrently (as a /metrics scrape does mid-run). Run under
// -race this is the data-race gate for the whole delivery path; the
// assertions check that nothing is lost: the aggregate's totals and the
// trace's span count are exact, and every span nests under its parent.
func TestConcurrentFanOut(t *testing.T) {
	trace := &TraceSink{}
	ctx := New(trace)
	m := ctx.Metrics()

	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sctx, sp := ctx.Start(fmt.Sprintf("work.%d", w))
				sctx.Count("shared.ticks", 1)
				sctx.Count(fmt.Sprintf("worker.%d.ops", w), 2)
				sctx.Observe("latency", int64(i))
				_, inner := sctx.Start("inner")
				inner.End()
				sp.End()
			}
		}(w)
	}

	// A snapshot loop reading the aggregate while the writers run: the
	// mid-flight values are unasserted (they race by design), the point
	// is that -race sees concurrent snapshot+update.
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Counters()
				m.Histograms()
				m.Spans()
				trace.Spans()
			}
		}
	}()

	wg.Wait()
	close(stop)
	snaps.Wait()

	if got := m.Counter("shared.ticks"); got != workers*rounds {
		t.Errorf("shared.ticks = %d, want %d", got, workers*rounds)
	}
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("worker.%d.ops", w)
		if got := m.Counter(name); got != 2*rounds {
			t.Errorf("%s = %d, want %d", name, got, 2*rounds)
		}
	}
	hists := m.Histograms()
	if len(hists) != 1 || hists[0].Name != "latency" || hists[0].Count != workers*rounds {
		t.Fatalf("histograms = %+v, want latency with count %d", hists, workers*rounds)
	}
	spanCounts := map[string]int64{}
	for _, s := range m.Spans() {
		spanCounts[s.Name] = s.Count
	}
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("work.%d", w)
		if got := spanCounts[name]; got != rounds {
			t.Errorf("span count %s = %d, want %d", name, got, rounds)
		}
	}
	if got := spanCounts["inner"]; got != workers*rounds {
		t.Errorf("span count inner = %d, want %d", got, workers*rounds)
	}

	// The trace saw every span the aggregate counted, and each inner
	// span's parent is a work span that contains it.
	spans := trace.Spans()
	if len(spans) != 2*workers*rounds {
		t.Fatalf("trace recorded %d spans, want %d", len(spans), 2*workers*rounds)
	}
	byID := map[uint64]SpanData{}
	for _, sd := range spans {
		byID[sd.ID] = sd
	}
	for _, sd := range spans {
		if sd.Name != "inner" {
			continue
		}
		p, ok := byID[sd.Parent]
		if !ok || p.Name == "inner" || sd.Track != p.ID {
			t.Fatalf("inner span %d has parent %+v", sd.ID, p)
		}
		if sd.Start < p.Start || sd.Start+sd.Dur > p.Start+p.Dur {
			t.Fatalf("inner span %d [%v,+%v) escapes its parent [%v,+%v)", sd.ID, sd.Start, sd.Dur, p.Start, p.Dur)
		}
	}
}
