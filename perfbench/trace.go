package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"atom/internal/obs"
)

// span is one recorded interval, in milliseconds since the tracer
// started. The benchmark opens Bench spans around its calls into the
// program; the program's own obs spans from such a call are adopted under
// the Bench span of that call. All spans of one operation share Op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Bench  bool    `json:"bench,omitempty"`
	Start  float64 `json:"start_ms"`
	Dur    float64 `json:"dur_ms"`
	Self   float64 `json:"self_ms"`
}

// tracer keeps spans and program counters in memory while on. Off, every
// method is a no-op and calls into the program get a nil *obs.Ctx, which
// the program treats as observability disabled.
type tracer struct {
	on       bool
	epoch    time.Time
	spans    []span // spans[i].ID == i+1
	ops      int
	counters map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: map[string]int64{}}
}

func (t *tracer) now() float64 { return ms(time.Since(t.epoch)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// begin opens a benchmark span under parent, or a new operation when
// parent is 0, and returns its id (0 while off).
func (t *tracer) begin(parent int, name string) int {
	if !t.on {
		return 0
	}
	op := 0
	if parent == 0 {
		t.ops++
		op = t.ops
	} else {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Bench: true, Start: t.now()})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id != 0 {
		t.spans[id-1].Dur = t.now() - t.spans[id-1].Start
	}
}

// programCtx is the obs context handed to one call into the program.
type programCtx struct {
	ctx  *obs.Ctx
	rec  *recorder
	base float64 // tracer time at the context's epoch
}

// program returns a fresh obs context for one call into the program, or
// a nil one while off.
func (t *tracer) program() programCtx {
	if !t.on {
		return programCtx{}
	}
	rec := &recorder{}
	return programCtx{ctx: obs.New(rec), rec: rec, base: t.now()}
}

// adopt moves the spans and counters the program emitted into pc under
// the benchmark span parent.
func (t *tracer) adopt(parent int, pc programCtx) {
	if pc.rec == nil || parent == 0 {
		return
	}
	op := t.spans[parent-1].Op
	ids := make(map[uint64]int, len(pc.rec.spans))
	for i, sd := range pc.rec.spans {
		ids[sd.ID] = len(t.spans) + i + 1
	}
	for _, sd := range pc.rec.spans {
		p, ok := ids[sd.Parent]
		if !ok {
			p = parent
		}
		t.spans = append(t.spans, span{ID: ids[sd.ID], Parent: p, Op: op, Name: sd.Name,
			Start: pc.base + ms(sd.Start), Dur: ms(sd.Dur)})
	}
	for _, c := range pc.ctx.Counters() {
		t.counters[c.Name] += c.Value
	}
}

// call runs f, one call into the program, under a benchmark span named
// name and adopts what the program emitted during it.
func (t *tracer) call(parent int, name string, f func(*obs.Ctx)) {
	id := t.begin(parent, name)
	pc := t.program()
	f(pc.ctx)
	t.adopt(id, pc)
	t.end(id)
}

// recorder is an obs.Sink keeping every completed span.
type recorder struct {
	mu    sync.Mutex
	spans []obs.SpanData
}

func (r *recorder) SpanEnd(sd obs.SpanData) {
	r.mu.Lock()
	r.spans = append(r.spans, sd)
	r.mu.Unlock()
}

// computeSelf sets every span's self time: its duration minus the part
// of it its children cover.
func computeSelf(spans []span) {
	kids := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], interval{s.Start, s.Start + s.Dur})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = selfTime(interval{s.Start, s.Start + s.Dur}, kids[i])
	}
}

// layer returns how many operations had a root span named root, and the
// self time of the program's spans inside them, summed by span name.
func (t *tracer) layer(root string) (int, map[string]float64) {
	rootOf := map[int]string{}
	n := 0
	for _, s := range t.spans {
		if s.Parent == 0 {
			rootOf[s.Op] = s.Name
			if s.Name == root {
				n++
			}
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if !s.Bench && rootOf[s.Op] == root {
			self[s.Name] += s.Self
		}
	}
	return n, self
}

// writeSpans writes every span and the summed program counters to path.
func (t *tracer) writeSpans(path string) error {
	data, err := json.Marshal(struct {
		Spans    []span           `json:"spans"`
		Counters map[string]int64 `json:"counters"`
	}{t.spans, t.counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
