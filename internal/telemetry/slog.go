package telemetry

import (
	"fmt"
	"io"
	"log/slog"

	"atom/internal/obs"
)

// NewLogger builds a structured logger in the given format ("text" or
// "json") at the given minimum level. It backs `atom -log`/-log-level`.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("telemetry: bad log format %q (text or json)", format)
	}
}

// ParseLevel maps a -log-level flag value onto a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: bad log level %q (debug, info, warn, or error)", s)
}

// LogSink adapts an obs context to structured logging: one record per
// span end (debug level — the full firehose), promoted to info for
// cache misses and disk hits and to warn for corrupt blobs the store
// deleted, which used to be silent. Attach it to obs.New beside the other sinks; the
// handler's level filtering keeps the disabled records cheap.
type LogSink struct {
	L *slog.Logger
}

// SpanEnd logs the completed span. Cache/store lookups log at a level
// reflecting their outcome; everything else is debug detail.
func (s *LogSink) SpanEnd(sd obs.SpanData) {
	attrs := make([]any, 0, 2+2*len(sd.Attrs))
	attrs = append(attrs, slog.String("span", sd.Name), slog.Duration("dur", sd.Dur))
	outcome := ""
	for _, a := range sd.Attrs {
		attrs = append(attrs, slog.String(a.Key, a.Val))
		if a.Key == "outcome" {
			outcome = a.Val
		}
	}
	switch {
	case sd.Name == "store.get" && outcome == "corrupt":
		s.L.Warn("corrupt blob deleted", attrs...)
	case sd.Name == "cache.get" && outcome == "miss":
		s.L.Info("cache miss", attrs...)
	case sd.Name == "cache.get" && outcome == "disk":
		s.L.Info("cache disk hit", attrs...)
	case sd.Name == "cache.get" && outcome == "error":
		s.L.Error("cache build failed", attrs...)
	default:
		s.L.Debug("span end", attrs...)
	}
}

var _ obs.Sink = (*LogSink)(nil)
