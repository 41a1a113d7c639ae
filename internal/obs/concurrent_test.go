package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentFanOut hammers one Ctx from many goroutines — counters,
// histogram observations, and nested spans — while a second Metrics is
// attached as a sink (aggregating every event, as the telemetry
// registry's does) and a StreamSink subscriber drains
// concurrently. Run under -race this is the data-race gate for the
// whole fan-out path; the assertions check that nothing is lost: the
// registry's totals match the context's own deterministic snapshot
// exactly, and within every span the begin event precedes the end.
func TestConcurrentFanOut(t *testing.T) {
	reg := NewMetrics()
	stream := NewStreamSink()
	ctx := New(reg, stream)

	// A subscriber wide enough to hold everything: drops would make the
	// ordering check vacuous. 4 goroutines * 200 rounds * (2 counters +
	// 1 hist + 2 span events) = 4000 events, plus slack.
	const workers, rounds = 4, 200
	sub := stream.Subscribe(workers*rounds*8, false)
	var events []Event
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		for ev := range sub.Events() {
			events = append(events, ev)
		}
	}()

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
				sp.End()
			}
		}(w)
	}

	// A snapshot loop reading the registry while the writers run: the
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
				reg.Counters()
				reg.Histograms()
				reg.Spans()
			}
		}
	}()

	wg.Wait()
	close(stop)
	snaps.Wait()
	stream.Unsubscribe(sub)
	drained.Wait()

	// The registry must reconcile exactly with the context's own
	// counters — this is what makes a mid-run /metrics scrape agree
	// with the end-of-run -stats numbers.
	for _, c := range ctx.Counters() {
		if got := reg.Counter(c.Name); got != c.Value {
			t.Errorf("registry counter %s = %d, ctx says %d", c.Name, got, c.Value)
		}
	}
	if got := reg.Counter("shared.ticks"); got != workers*rounds {
		t.Errorf("shared.ticks = %d, want %d", got, workers*rounds)
	}
	hists := reg.Histograms()
	var lat *Hist
	for i := range hists {
		if hists[i].Name == "latency" {
			lat = &hists[i]
		}
	}
	if lat == nil || lat.Count != workers*rounds {
		t.Fatalf("latency histogram = %+v, want count %d", lat, workers*rounds)
	}
	spanCounts := map[string]int64{}
	for _, s := range reg.Spans() {
		spanCounts[s.Name] = s.Count
	}
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("work.%d", w)
		if got := spanCounts[name]; got != rounds {
			t.Errorf("span count %s = %d, want %d", name, got, rounds)
		}
	}

	// No drops (the buffer was sized for the full load), one strictly
	// increasing Seq, and per span ID the begin precedes the end.
	if d := stream.Dropped(); d != 0 {
		t.Fatalf("stream dropped %d events with an oversized subscriber", d)
	}
	begun := map[uint64]bool{}
	var lastSeq uint64
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("event seq %d after %d: stream not totally ordered", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case "span.begin":
			begun[ev.Span] = true
		case "span.end":
			if !begun[ev.Span] {
				t.Fatalf("span %d (%s) ended before it began", ev.Span, ev.Name)
			}
		}
	}
	wantEvents := workers * rounds * 5 // begin, end, 2 counters, 1 hist
	if len(events) != wantEvents {
		t.Errorf("subscriber saw %d events, want %d", len(events), wantEvents)
	}
}

// TestStreamSinkDrops: a subscriber with a tiny queue that never reads
// loses events — counted, not blocking. The emitting side must complete
// immediately regardless of the stalled reader.
func TestStreamSinkDrops(t *testing.T) {
	stream := NewStreamSink()
	ctx := New(stream)
	sub := stream.Subscribe(1, false)

	const n = 50
	for i := 0; i < n; i++ {
		ctx.Count("tick", 1) // never read: all but one must drop
	}
	if got := stream.Dropped(); got != n-1 {
		t.Fatalf("Dropped() = %d, want %d", got, n-1)
	}
	// The one delivered event is the first; its Dropped snapshot was 0.
	ev := <-sub.Events()
	if ev.Name != "tick" || ev.Dropped != 0 {
		t.Fatalf("delivered event = %+v, want first tick with Dropped 0", ev)
	}
	// The next event delivered after the stall carries the loss count.
	ctx.Count("after", 1)
	ev = <-sub.Events()
	if ev.Name != "after" || ev.Dropped != n-1 {
		t.Fatalf("post-stall event = %+v, want after with Dropped %d", ev, n-1)
	}
	stream.Unsubscribe(sub)
	if _, ok := <-sub.Events(); ok {
		t.Fatal("channel still open after Unsubscribe")
	}
	stream.Unsubscribe(sub) // idempotent
}

// TestStreamSinkReplay: a late subscriber is seeded with the ring-buffer
// backlog, oldest first, before any live events.
func TestStreamSinkReplay(t *testing.T) {
	stream := NewStreamSink()
	ctx := New(stream)
	for i := 0; i < 10; i++ {
		ctx.Count(fmt.Sprintf("c%d", i), 1)
	}
	sub := stream.Subscribe(64, true)
	defer stream.Unsubscribe(sub)
	for i := 0; i < 10; i++ {
		ev := <-sub.Events()
		if want := fmt.Sprintf("c%d", i); ev.Name != want || ev.Seq != uint64(i+1) {
			t.Fatalf("replay event %d = %+v, want name %s seq %d", i, ev, want, i+1)
		}
	}
	// Replay wider than the buffer: the oldest overflow is counted as
	// dropped, the newest buf events delivered.
	small := stream.Subscribe(4, true)
	defer stream.Unsubscribe(small)
	ev := <-small.Events()
	if ev.Name != "c6" || ev.Dropped != 6 {
		t.Fatalf("truncated replay starts at %+v, want c6 with Dropped 6", ev)
	}
}

// TestStreamSinkShutdown closes current subscribers but leaves the sink
// usable for later ones — the debug server restarts against the same
// process-wide stream.
func TestStreamSinkShutdown(t *testing.T) {
	stream := NewStreamSink()
	sub := stream.Subscribe(4, false)
	stream.Shutdown()
	if _, ok := <-sub.Events(); ok {
		t.Fatal("subscriber channel open after Shutdown")
	}
	ctx := New(stream)
	ctx.Count("later", 1)
	sub2 := stream.Subscribe(4, true)
	defer stream.Unsubscribe(sub2)
	found := false
	for ev := range sub2.Events() {
		if ev.Name == "later" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("post-Shutdown event not delivered to a new subscriber")
	}
}

// BenchmarkInstrumentStalledSubscriber measures the per-event cost of
// the fan-out with a stalled subscriber attached: the acceptance bar is
// that a reader that never drains slows nothing down — every send is a
// non-blocking miss that bumps a drop counter.
func BenchmarkInstrumentStalledSubscriber(b *testing.B) {
	stream := NewStreamSink()
	ctx := New(stream)
	sub := stream.Subscribe(1, false)
	defer stream.Unsubscribe(sub)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Count("bench.tick", 1)
	}
	b.StopTimer()
	if stream.Dropped() == 0 && b.N > 1 {
		b.Fatal("expected drops with a stalled subscriber")
	}
}
