package core

import (
	"runtime"
	"sync"

	"atom/internal/aout"
	"atom/internal/obs"
)

// InstrumentMany applies one tool to many applications concurrently — the
// paper's workflow for Figures 5 and 6, where each tool is run over the
// complete SPEC92 suite. The tool's analysis image is compiled and linked
// once (the first worker to need it builds it; the rest share it via the
// content-addressed cache) and only the per-application rewrite fans out
// across workers.
//
// workers bounds the number of applications instrumented at once; zero or
// negative means GOMAXPROCS. The run fails soft: results and errs are
// parallel to apps, results[i] is nil exactly when errs[i] is non-nil,
// and one application's failure never prevents the others from being
// instrumented. errs[i] is InstrumentCtx's error, which the caller
// reports against its own name for apps[i]. Each worker runs under its
// own child of ctx, so spans from concurrent applications land on
// separate trace tracks.
//
// names, if non-nil, gives per-application display names (typically
// input file paths), parallel to apps: each named application's
// "atom.instrument" span carries its name as the "program" attribute,
// so traces attribute work to a file rather than a bare batch index.
//
// onDone, if non-nil, is invoked as onDone(i, err) once per application
// as it finishes, from the worker goroutine that instrumented it, so it
// must be safe for concurrent use.
func InstrumentMany(ctx *obs.Ctx, apps []*aout.File, names []string, tool Tool, opts Options, workers int, onDone func(i int, err error)) (results []*Result, errs []error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(apps) {
		workers = len(apps)
	}
	results = make([]*Result, len(apps))
	errs = make([]error, len(apps))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				attrs := []obs.Attr{
					obs.String("tool", tool.Name),
					obs.Int("app", int64(i)),
				}
				if i < len(names) && names[i] != "" {
					attrs = append(attrs, obs.String("program", names[i]))
				}
				ictx, sp := ctx.Start("atom.instrument", attrs...)
				results[i], errs[i] = InstrumentCtx(ictx, apps[i], tool, opts)
				sp.End()
				if onDone != nil {
					onDone(i, errs[i])
				}
			}
		}()
	}
	for i := range apps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errs
}
