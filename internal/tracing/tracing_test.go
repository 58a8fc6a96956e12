package tracing

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// recordConn plays one connection's full lifecycle through the handles.
func recordConn(k *KernelTrace, w *WorkerTrace, conn uint64, base, latency int64) {
	k.ConnEstablished(conn, base, 0, ViaProg)
	w.Accept(conn, base, base+100)
	w.Serve(conn, base+200, base+300, base+200+latency, false)
	w.Close(conn, base+200+latency+50, false)
}

func TestLifecycleSpans(t *testing.T) {
	tr := New(DefaultConfig())
	k, w := tr.KernelTrace(), tr.WorkerTrace(0)
	recordConn(k, w, 1, 1000, 500)
	tr.Flush()
	spans := tr.Spans()
	wantKinds := []Kind{KindSYN, KindAcceptQueue, KindAccept, KindNotifyWait, KindServe, KindClose}
	if len(spans) != len(wantKinds) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(wantKinds), spans)
	}
	for i, s := range spans {
		if s.Kind != wantKinds[i] {
			t.Errorf("span %d kind = %s, want %s", i, s.Kind, wantKinds[i])
		}
		if s.Conn != 1 {
			t.Errorf("span %d conn = %d, want 1", i, s.Conn)
		}
	}
	if got := spans[1].DurNS(); got != 100 {
		t.Errorf("accept_queue residency = %d, want 100", got)
	}
	if got := spans[4].Arg2; got != 500 {
		t.Errorf("serve latency = %d, want 500", got)
	}
	if spans[5].Worker != 0 {
		t.Errorf("close track = %d, want worker 0", spans[5].Worker)
	}
	st := tr.Stats()
	if st.ConnsSeen != 1 || st.ConnsKept != 1 || st.SpansDropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 3, MaxSpans: 1 << 12})
	k, w := tr.KernelTrace(), tr.WorkerTrace(0)
	for c := uint64(1); c <= 9; c++ {
		recordConn(k, w, c, int64(c)*10000, 100)
	}
	tr.Flush()
	st := tr.Stats()
	if st.ConnsSeen != 9 || st.ConnsKept != 3 {
		t.Fatalf("seen=%d kept=%d, want 9/3", st.ConnsSeen, st.ConnsKept)
	}
	// Connections 1, 4, 7 (1st, 4th, 7th seen) are the sampled ones.
	want := map[uint64]bool{1: true, 4: true, 7: true}
	for _, s := range tr.Spans() {
		if !want[s.Conn] {
			t.Fatalf("unsampled conn %d leaked into the ring", s.Conn)
		}
	}
}

func TestTailCapture(t *testing.T) {
	tr := New(Config{SampleEvery: 1000, TailLatencyNS: 400, MaxSpans: 1 << 12})
	k, w := tr.KernelTrace(), tr.WorkerTrace(0)
	recordConn(k, w, 1, 10000, 100) // head-sampled (first conn)
	recordConn(k, w, 2, 20000, 100) // fast, skipped
	recordConn(k, w, 3, 30000, 900) // slow: tail-captured
	tr.Flush()
	st := tr.Stats()
	if st.ConnsKept != 2 {
		t.Fatalf("kept = %d, want 2 (head conn 1 + tail conn 3)", st.ConnsKept)
	}
	seen := map[uint64]bool{}
	for _, s := range tr.Spans() {
		seen[s.Conn] = true
	}
	if !seen[1] || seen[2] || !seen[3] {
		t.Fatalf("kept conns = %v, want {1,3}", seen)
	}
}

func TestSamplingSkipsBuffering(t *testing.T) {
	// With tail capture off, skipped connections must not be buffered.
	tr := New(Config{SampleEvery: 2, MaxSpans: 1 << 12})
	k := tr.KernelTrace()
	k.ConnEstablished(1, 100, 0, ViaHash) // sampled
	k.ConnEstablished(2, 200, 0, ViaHash) // skipped
	if len(tr.conns) != 1 {
		t.Fatalf("buffered conns = %d, want 1", len(tr.conns))
	}
}

func TestRingOverwrite(t *testing.T) {
	tr := New(Config{SampleEvery: 1, MaxSpans: 4})
	w := tr.WorkerTrace(0)
	for i := int64(0); i < 10; i++ {
		w.Wakeup(i*100, i*100+10, 1, false)
	}
	st := tr.Stats()
	if st.SpansCommitted != 10 || st.SpansDropped != 6 {
		t.Fatalf("committed=%d dropped=%d, want 10/6", st.SpansCommitted, st.SpansDropped)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	if spans[0].StartNS != 600 || spans[3].StartNS != 900 {
		t.Fatalf("ring kept %v, want the newest four (600..900)", spans)
	}
}

func TestDroppedSYNGoesStraightToRing(t *testing.T) {
	tr := New(DefaultConfig())
	k := tr.KernelTrace()
	k.ConnDropped(500, ViaHash, true)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Kind != KindDrop || spans[0].Arg2 != 1 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestWakeupSkipsTimeouts(t *testing.T) {
	tr := New(DefaultConfig())
	w := tr.WorkerTrace(2)
	w.Wakeup(0, 100, 0, true)  // timeout, skipped
	w.Wakeup(0, 100, 0, false) // spurious
	w.Wakeup(0, 100, 3, false) // real
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d wakeup spans, want 2", len(spans))
	}
	if spans[0].Arg2 != 1 || spans[1].Arg2 != 0 {
		t.Fatalf("spurious flags wrong: %+v", spans)
	}
}

func TestNilTracerAndHandles(t *testing.T) {
	var tr *Tracer
	tr.Flush()
	if tr.Spans() != nil || tr.Stats() != (Stats{}) {
		t.Fatal("nil tracer must report empty")
	}
	k, w, s, m := tr.KernelTrace(), tr.WorkerTrace(0), tr.ScheduleTrace(), tr.MapTrace(func() int64 { return 0 })
	if k != nil || w != nil || s != nil || m != nil {
		t.Fatal("nil tracer must hand out nil handles")
	}
	// Every hook must no-op on a nil handle.
	k.ConnEstablished(1, 0, 0, ViaProg)
	k.ConnDropped(0, ViaHash, false)
	w.Wakeup(0, 1, 1, false)
	w.Accept(1, 0, 1)
	w.Serve(1, 0, 1, 2, false)
	w.Close(1, 2, false)
	s.Pass(0, 0, 1, 2)
	m.Sync(3)
}

func TestDisabledHooksZeroAlloc(t *testing.T) {
	var k *KernelTrace
	var w *WorkerTrace
	allocs := testing.AllocsPerRun(1000, func() {
		k.ConnEstablished(1, 0, 0, ViaProg)
		w.Accept(1, 0, 1)
		w.Serve(1, 0, 1, 2, false)
		w.Close(1, 2, false)
	})
	if allocs != 0 {
		t.Fatalf("disabled hooks allocate %v/op, want 0", allocs)
	}
}

// mixedSpans records one span of most kinds: a drop, a full connection, a
// schedule pass, a selmap sync and a wakeup.
func mixedSpans() ([]Span, Meta) {
	tr := New(DefaultConfig())
	k, w := tr.KernelTrace(), tr.WorkerTrace(1)
	k.ConnDropped(50, ViaHash, false)
	recordConn(k, w, 7, 1000, 300)
	tr.ScheduleTrace().Pass(1, 2500, 3, 4)
	tr.MapTrace(func() int64 { return 2600 }).Sync(5)
	w2 := tr.WorkerTrace(0)
	w2.Wakeup(2700, 2800, 0, false)
	tr.Flush()
	return tr.Spans(), MetaFor("cellA", tr.Stats())
}

func TestJSONLRoundTrip(t *testing.T) {
	want, meta := mixedSpans()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, want, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Errorf("meta = %+v, want %+v", gotMeta, meta)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// A Chrome trace is a rendering, not a dump: handed one, the reader says so
// and names the fix instead of guessing at spans.
func TestReadSpansRefusesChrome(t *testing.T) {
	spans, meta := mixedSpans()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans, meta); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadSpans(&buf)
	if err == nil || got != nil {
		t.Fatalf("ReadSpans(chrome) = %d spans, err %v; want an error", len(got), err)
	}
	for _, want := range []string{"Chrome trace", "span dump"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// The per-kind table is the only per-kind knowledge in the tree: every Kind
// has a complete descriptor, and docs/TRACING.md's kind table lists exactly
// the table's names.
func TestKindTableCompleteAndDocumented(t *testing.T) {
	names := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		d := k.Desc()
		if d.Name == "" || d.Name == "unknown" || d.Track == 0 || d.Phase == 0 {
			t.Errorf("kind %d has an incomplete descriptor: %+v", k, d)
		}
		for _, a := range []ArgDesc{d.Arg, d.Arg2} {
			if (a.Name == "") != (a.Type == ArgNone) {
				t.Errorf("%s: argument %+v is half described", d.Name, a)
			}
		}
		if d.ConnScoped && d.Track == OnEither {
			t.Errorf("%s: a connection-scoped kind sits on one kind of track", d.Name)
		}
		var back Kind
		if err := back.UnmarshalText([]byte(d.Name)); err != nil || back != k || names[d.Name] {
			t.Errorf("%s: name does not invert to kind %d (%v)", d.Name, k, err)
		}
		names[d.Name] = true
	}
	if d := NumKinds.Desc(); d != (KindDesc{Name: "unknown"}) {
		t.Errorf("kind past the table = %+v", d)
	}

	doc, err := os.ReadFile("../../docs/TRACING.md")
	if err != nil {
		t.Fatal(err)
	}
	_, schema, ok := strings.Cut(string(doc), "\n## Span schema\n")
	if !ok {
		t.Fatal("docs/TRACING.md has no \"## Span schema\" section")
	}
	schema, _, _ = strings.Cut(schema, "\n## ")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\|").FindAllStringSubmatch(schema, -1) {
		if documented[m[1]] {
			t.Errorf("docs/TRACING.md lists %s twice", m[1])
		}
		documented[m[1]] = true
		if !names[m[1]] {
			t.Errorf("docs/TRACING.md lists %s, which is not a span kind", m[1])
		}
	}
	for name := range names {
		if !documented[name] {
			t.Errorf("span kind %s has no row in docs/TRACING.md", name)
		}
	}
}

func TestChromeIsValidJSON(t *testing.T) {
	tr := New(DefaultConfig())
	recordConn(tr.KernelTrace(), tr.WorkerTrace(0), 1, 1000, 200)
	tr.Flush()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Spans(), MetaFor("", tr.Stats())); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	evs, ok := doc["traceEvents"].([]any)
	if !ok || len(evs) == 0 {
		t.Fatal("traceEvents missing or empty")
	}
}

func TestExportDeterministic(t *testing.T) {
	build := func() (*bytes.Buffer, *bytes.Buffer) {
		tr := New(DefaultConfig())
		k := tr.KernelTrace()
		ws := []*WorkerTrace{tr.WorkerTrace(0), tr.WorkerTrace(1)}
		for c := uint64(1); c <= 20; c++ {
			recordConn(k, ws[c%2], c, int64(c)*1000, int64(c)*7)
		}
		tr.Flush()
		var j, ch bytes.Buffer
		meta := MetaFor("x", tr.Stats())
		if err := WriteJSONL(&j, tr.Spans(), meta); err != nil {
			t.Fatal(err)
		}
		if err := WriteChrome(&ch, tr.Spans(), meta); err != nil {
			t.Fatal(err)
		}
		return &j, &ch
	}
	j1, c1 := build()
	j2, c2 := build()
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("JSONL export not byte-deterministic")
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Error("Chrome export not byte-deterministic")
	}
}

func TestConcurrentMode(t *testing.T) {
	tr := New(Config{SampleEvery: 1, MaxSpans: 1 << 16, Concurrent: true})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k, w := tr.KernelTrace(), tr.WorkerTrace(g)
			for c := uint64(0); c < 100; c++ {
				id := uint64(g)*1000 + c + 1
				recordConn(k, w, id, int64(id), 10)
			}
		}(g)
	}
	wg.Wait()
	tr.Flush()
	if st := tr.Stats(); st.ConnsKept != 400 {
		t.Fatalf("kept = %d, want 400", st.ConnsKept)
	}
}

// BenchmarkTracerDisabled proves the disabled hot path (nil handles) costs
// one nil check and zero allocations per hook.
func BenchmarkTracerDisabled(b *testing.B) {
	var k *KernelTrace
	var w *WorkerTrace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.ConnEstablished(uint64(i), int64(i), 0, ViaProg)
		w.Accept(uint64(i), int64(i), int64(i)+1)
		w.Serve(uint64(i), int64(i), int64(i)+1, int64(i)+2, false)
		w.Close(uint64(i), int64(i)+3, false)
	}
}

// BenchmarkTracerSampled measures the recording path with buffer reuse:
// steady-state connections should not allocate (free-listed buffers).
func BenchmarkTracerSampled(b *testing.B) {
	tr := New(Config{SampleEvery: 1, MaxSpans: 1 << 10})
	k, w := tr.KernelTrace(), tr.WorkerTrace(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recordConn(k, w, uint64(i)+1, int64(i)*1000, 100)
	}
}
