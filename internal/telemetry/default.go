package telemetry

import (
	"fmt"
	"sync"

	"atom/internal/obs"
	"atom/internal/prof"
	"atom/internal/vm"
)

// The process-wide telemetry instances. cmd/atom and atom.WithDebugAddr
// share them, so the CLI and the library expose identical endpoints and
// a future `atom serve` daemon mounts the very same registry.
var (
	defaultOnce   sync.Once
	defaultReg    *Registry
	defaultStream *obs.StreamSink

	serverMu      sync.Mutex
	defaultServer *Server
)

// Default returns the process-wide registry, creating it (and
// registering the standard gauges) on first use.
func Default() *Registry {
	initDefault()
	return defaultReg
}

// DefaultStream returns the process-wide event stream, creating it on
// first use.
func DefaultStream() *obs.StreamSink {
	initDefault()
	return defaultStream
}

func initDefault() {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		defaultStream = obs.NewStreamSink()
		RegisterProcessGauges(defaultReg)
	})
}

// RegisterProcessGauges installs the standard lazily-polled gauges on a
// registry: the process-wide VM and profiler totals. Every gauge reads a
// live source at scrape time, so mid-run scrapes see current values
// without any event plumbing. (The persistent store has no gauges: its
// store.disk.{hit,miss,put,corrupt} counters reach /metrics through the
// registry sink.)
func RegisterProcessGauges(r *Registry) {
	r.SetGauge("vm.total.runs", func() int64 { return int64(vm.Totals().Runs) })
	r.SetGauge("vm.total.icount", func() int64 { return int64(vm.Totals().Icount) })
	r.SetGauge("vm.total.loads", func() int64 { return int64(vm.Totals().Loads) })
	r.SetGauge("vm.total.stores", func() int64 { return int64(vm.Totals().Stores) })
	r.SetGauge("vm.total.syscalls", func() int64 { return int64(vm.Totals().Syscalls) })
	r.SetGauge("vm.total.sb.built", func() int64 { return int64(vm.Totals().SBBuilt) })
	r.SetGauge("vm.total.sb.hits", func() int64 { return int64(vm.Totals().SBHits) })
	r.SetGauge("vm.total.sb.links", func() int64 { return int64(vm.Totals().SBLinks) })
	r.SetGauge("vm.total.sb.invalidations", func() int64 { return int64(vm.Totals().SBInval) })
	r.SetGauge("prof.total.samples", func() int64 { return int64(prof.TotalSamplesAll()) })
}

// StartDefaultServer starts the process-wide debug server on addr over
// the Default registry and stream. It errors if one is already running.
// The resolved address (useful with port 0) is srv.Addr().
func StartDefaultServer(addr string) (*Server, error) {
	serverMu.Lock()
	defer serverMu.Unlock()
	if defaultServer != nil {
		return nil, fmt.Errorf("telemetry: debug server already running on %s", defaultServer.Addr())
	}
	srv := NewServer(Default(), DefaultStream())
	if err := srv.Start(addr); err != nil {
		return nil, err
	}
	defaultServer = srv
	return srv, nil
}

// StopDefaultServer shuts down the process-wide debug server, if any.
func StopDefaultServer() error {
	serverMu.Lock()
	srv := defaultServer
	defaultServer = nil
	serverMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}
