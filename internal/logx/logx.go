// Package logx is the shared logging setup of the cncount commands: one
// constructor that turns a `-logfmt text|json` flag value into a
// *slog.Logger, so lifecycle events and watchdog stall reports come out
// as structured events instead of ad-hoc stderr prints. Text mode keeps
// the human-at-a-terminal shape the commands always had; json mode makes
// a long experiment run or a daemon's log machine-tailable
// (`experiments -logfmt json 2>run.jsonl`).
package logx

import (
	"fmt"
	"io"
	"log/slog"
)

// Formats lists the accepted -logfmt values, for flag usage strings.
const Formats = "text, json"

// New builds a logger writing to w in the given format ("text", "json",
// or "" meaning text). component names the emitting command and is
// attached to every record, so interleaved streams from a driver script
// stay attributable. An unknown format is a flag error, returned rather
// than logged.
func New(w io.Writer, format, component string) (*slog.Logger, error) {
	var h slog.Handler
	opts := &slog.HandlerOptions{Level: slog.LevelInfo}
	switch format {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("unknown log format %q (want %s)", format, Formats)
	}
	return slog.New(h).With(slog.String("component", component)), nil
}

// Printf adapts a logger to the `func(format, args...)` callback shape
// the observability plane and watchdog take for their incidental
// messages (serve errors, drain notices). Each call becomes one
// info-level record whose message is the formatted string.
func Printf(l *slog.Logger) func(format string, args ...any) {
	return func(format string, args ...any) {
		l.Info(fmt.Sprintf(format, args...))
	}
}
