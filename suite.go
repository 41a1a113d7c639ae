package atom

import (
	"errors"
	"fmt"

	"atom/internal/core"
)

// InstrumentSuite applies one tool to many applications concurrently —
// the paper's workflow for Figures 5 and 6, where each tool is run over
// the complete SPEC92 suite. The tool's analysis image is compiled and
// linked once (first worker to need it builds it; the rest share it via
// the content-addressed cache) and only the per-application rewrite fans
// out across workers.
//
// workers bounds the number of applications instrumented at once; zero
// or negative means GOMAXPROCS. Results are returned in input order:
// results[i] corresponds to apps[i] regardless of completion order, so
// parallel and serial runs are interchangeable. If some applications
// fail, their slots are nil and the returned error joins every failure
// (tagged with the application's index); the rest are still
// instrumented.
func InstrumentSuite(apps []*Executable, tool Tool, opts Options, workers int) ([]*Result, error) {
	results, errs := core.InstrumentMany(nil, apps, nil, tool, opts, workers, nil)
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("app %d: %w", i, err)
		}
	}
	return results, errors.Join(errs...)
}
