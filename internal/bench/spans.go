package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"hermes/internal/tracing"
)

// SpanRecorder arms the flight recorder (docs/TRACING.md) for exactly one
// designated experiment cell. Every cell asks for its tracer through
// Options.Spans; only the designated cell gets a non-nil one, so recording
// stays single-cell and dumps are deterministic at any -parallel setting
// (the designated cell runs entirely inside one goroutine). A nil recorder
// hands out nil tracers, which disables recording end to end.
type SpanRecorder struct {
	cell string
	cfg  tracing.Config

	mu    sync.Mutex
	tr    *tracing.Tracer
	asked []string // the other cells that asked, for WriteDump's error
}

// NewSpanRecorder designates a cell; its tracer uses cfg.
func NewSpanRecorder(cell string, cfg tracing.Config) *SpanRecorder {
	return &SpanRecorder{cell: cell, cfg: cfg}
}

// Tracer returns the flight recorder for the named cell: non-nil only for
// the designated cell (created on first use), nil — recording disabled —
// for every other cell and on a nil receiver.
func (sr *SpanRecorder) Tracer(cell string) *tracing.Tracer {
	if sr == nil {
		return nil
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if cell != sr.cell {
		sr.asked = append(sr.asked, cell)
		return nil
	}
	if sr.tr == nil {
		sr.tr = tracing.New(sr.cfg)
	}
	return sr.tr
}

// Recorded reports whether the designated cell actually ran (asked for its
// tracer).
func (sr *SpanRecorder) Recorded() bool {
	if sr == nil {
		return false
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.tr != nil
}

// WriteDump flushes still-open connections and writes the JSONL span dump
// (tracing.WriteJSONL). Call after the experiment has fully run. If the designated cell never ran, the error lists
// the cells that did ask for a tracer — what the designation could have been
// (an experiment that builds several devices in one cell names each device).
func (sr *SpanRecorder) WriteDump(w io.Writer) error {
	if sr == nil {
		return fmt.Errorf("bench: no span recorder")
	}
	if !sr.Recorded() {
		sort.Strings(sr.asked)
		return fmt.Errorf("bench: span cell %q never ran; cells that did: %s", sr.cell, strings.Join(sr.asked, ", "))
	}
	sr.tr.Flush()
	return tracing.WriteJSONL(w, sr.tr.Spans(), tracing.MetaFor(sr.cell, sr.tr.Stats()))
}
