package bench

import (
	"bytes"
	"strings"
	"testing"

	"hermes/internal/tracing"
)

// recordDump runs one experiment with the flight recorder armed on cell and
// returns the rendered experiment output plus the dump and its Chrome rendering.
func recordDump(t *testing.T, name, cell string, parallel int) (out string, jsonl, chrome []byte) {
	t.Helper()
	o := parallelTestOptions(parallel)
	o.Spans = NewSpanRecorder(cell, tracing.DefaultConfig())
	out = render(RunExperiment(Experiments()[name], o))
	if !o.Spans.Recorded() {
		t.Fatalf("%s: cell %q never asked for its tracer", name, cell)
	}
	var jb, cb bytes.Buffer
	if err := o.Spans.WriteTo(&jb, true); err != nil {
		t.Fatalf("write jsonl: %v", err)
	}
	if err := o.Spans.WriteTo(&cb, false); err != nil {
		t.Fatalf("write chrome: %v", err)
	}
	return out, jb.Bytes(), cb.Bytes()
}

// The span dump must be byte-identical at every -parallel setting: the
// designated cell runs entirely inside one goroutine, and export happens
// after the run on sorted spans.
func TestSpanDumpParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison is expensive")
	}
	const name = "fig11"
	cell := Experiments()[name].Cells(parallelTestOptions(1))[0].Name
	_, seqJSONL, seqChrome := recordDump(t, name, cell, 1)
	_, parJSONL, parChrome := recordDump(t, name, cell, 8)
	if !bytes.Equal(seqJSONL, parJSONL) {
		t.Error("JSONL span dump differs between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(seqChrome, parChrome) {
		t.Error("Chrome span dump differs between -parallel 1 and -parallel 8")
	}
	if len(seqJSONL) == 0 || len(seqChrome) == 0 {
		t.Fatal("empty span dump")
	}
}

// Arming the flight recorder must not perturb the simulation: rendered
// experiment output is byte-identical with tracing on and off, and the
// recorded dump round-trips through the reader.
func TestSpanRecordingDoesNotPerturbOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison is expensive")
	}
	const name = "fig11"
	o := parallelTestOptions(1)
	cell := Experiments()[name].Cells(o)[0].Name
	plain := render(RunExperiment(Experiments()[name], o))
	traced, jsonl, _ := recordDump(t, name, cell, 1)
	if plain != traced {
		t.Errorf("tracing changed rendered output\n--- off ---\n%s\n--- on ---\n%s", plain, traced)
	}
	spans, meta, err := tracing.ReadSpans(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatalf("read recorded dump: %v", err)
	}
	if meta.Cell != cell {
		t.Errorf("meta cell = %q, want %q", meta.Cell, cell)
	}
	if len(spans) == 0 || meta.ConnsKept == 0 {
		t.Fatalf("dump recorded nothing: %d spans, meta %+v", len(spans), meta)
	}
}

// Only the designated cell gets a tracer; everything else records nothing.
func TestSpanRecorderDesignatesOneCell(t *testing.T) {
	sr := NewSpanRecorder("the-cell", tracing.DefaultConfig())
	if sr.Tracer("other") != nil {
		t.Fatal("non-designated cell got a tracer")
	}
	if sr.Recorded() {
		t.Fatal("recorded before the designated cell ran")
	}
	sr.Tracer("another")
	err := sr.WriteTo(&bytes.Buffer{}, true)
	if err == nil {
		t.Fatal("WriteTo must fail when nothing was recorded")
	}
	if want := `"the-cell" never ran; cells that did: another, other`; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not say %q", err, want)
	}
	if tr := sr.Tracer("the-cell"); tr == nil {
		t.Fatal("designated cell got no tracer")
	} else if tr != sr.Tracer("the-cell") {
		t.Fatal("designated cell must reuse one tracer")
	}
	var nilSR *SpanRecorder
	if nilSR.Tracer("the-cell") != nil || nilSR.Recorded() || nilSR.WriteTo(&bytes.Buffer{}, true) == nil {
		t.Fatal("nil recorder must disable recording")
	}
}
