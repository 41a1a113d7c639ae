package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"atom/internal/obs"
)

// Server is the embedded debug server behind `atom -debug-addr`. It
// serves one *obs.Metrics:
//
//	GET /metrics        Prometheus text exposition of the Metrics
//	GET /debug/pprof/   the standard Go profiling endpoints
//	GET /healthz        liveness probe ("ok")
type Server struct {
	m    *obs.Metrics
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// NewServer builds a server over m, typically the invocation's
// ctx.Metrics(). Call Start to listen.
func NewServer(m *obs.Metrics) *Server {
	s := &Server{m: m, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	return s
}

// Start listens on addr (host:port; port 0 picks a free one — read the
// resolved address back with Addr) and serves in a background goroutine.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	s.ln = ln
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns on Close; error is expected then
	}()
	return nil
}

// Addr returns the resolved listen address ("127.0.0.1:41231"), or ""
// before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down, giving the listener and in-flight
// requests a short grace period.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = s.srv.Close()
	}
	<-s.done
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.m)
}
