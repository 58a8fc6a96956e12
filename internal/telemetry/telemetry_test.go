package telemetry

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Every handle type must be safe to use through a nil pointer — that is the
// whole "telemetry off" mechanism.
func TestNilHandlesNoOp(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil counter Load != 0")
	}

	var g *Gauge
	g.Set(3)
	g.Add(-1)
	g.SetMax(9)
	if g.Load() != 0 {
		t.Error("nil gauge Load != 0")
	}

	var h *Histogram
	h.Observe(123)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram not empty")
	}

	var cv *CounterVec
	cv.At(0).Inc()
	cv.At(-1).Inc()
	if cv.Len() != 0 {
		t.Error("nil counter vec Len != 0")
	}

	var gv *GaugeVec
	gv.At(2).Set(7)
	if gv.Len() != 0 {
		t.Error("nil gauge vec Len != 0")
	}

	// A nil registry is the disabled sink: it hands out the nil handles above.
	var r *Registry
	m := Metric{Name: "x"}
	if r.Counter(m) != nil || r.Gauge(m) != nil || r.Histogram(m, []int64{1}) != nil ||
		r.CounterVec(m, 2) != nil || r.GaugeVec(m, 2) != nil {
		t.Error("nil registry handed out a live handle")
	}
	if n := len(r.Snapshot().Metrics); n != 0 {
		t.Errorf("nil registry snapshot has %d metrics", n)
	}
}

// Out-of-range vec indices return nil no-op handles rather than panicking.
func TestVecOutOfRange(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec(Metric{Name: "cv"}, 2)
	for _, i := range []int{-1, 2, 100} {
		if h := cv.At(i); h != nil {
			t.Errorf("At(%d) = %v, want nil", i, h)
		}
	}
	cv.At(5).Inc() // must not panic
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Metric{Name: "c"})
	c.Inc()
	c.Add(9)
	if c.Load() != 10 {
		t.Errorf("counter = %d, want 10", c.Load())
	}

	g := r.Gauge(Metric{Name: "g"})
	g.Set(5)
	g.Add(-2)
	if g.Load() != 3 {
		t.Errorf("gauge = %d, want 3", g.Load())
	}
	g.SetMax(10)
	g.SetMax(7) // lower: must not regress the high-water mark
	if g.Load() != 10 {
		t.Errorf("gauge after SetMax = %d, want 10", g.Load())
	}
}

// Observations land in the first bucket whose bound is ≥ v; everything past
// the last bound lands in the implicit +Inf bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Metric{Name: "h"}, []int64{10, 20, 40})
	for _, v := range []int64{-5, 0, 10, 11, 20, 21, 40, 41, 1000} {
		h.Observe(v)
	}
	want := []uint64{3, 2, 2, 2} // ≤10: {-5,0,10}; ≤20: {11,20}; ≤40: {21,40}; +Inf: {41,1000}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 9 {
		t.Errorf("count = %d, want 9", h.Count())
	}
	if h.Sum() != -5+0+10+11+20+21+40+41+1000 {
		t.Errorf("sum = %d", h.Sum())
	}
}

func TestBucketLayouts(t *testing.T) {
	db := DurationBuckets()
	cb := CountBuckets(64)
	for name, bounds := range map[string][]int64{"duration": db, "count": cb} {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Errorf("%s buckets not strictly increasing at %d: %v", name, i, bounds)
			}
		}
	}
	if cb[len(cb)-1] != 64 {
		t.Errorf("CountBuckets(64) last bound = %d", cb[len(cb)-1])
	}
}

// Requesting the same name twice returns the same handle; requesting it as
// a different kind panics.
func TestRegistryDedupAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	m := Metric{Name: "shared.counter", Layer: "kernel"}
	a, b := r.Counter(m), r.Counter(m)
	if a != b {
		t.Error("same metric name returned distinct handles")
	}
	a.Add(2)
	b.Inc()
	if snap := r.Snapshot(); snap.Get("shared.counter").Value != 3 {
		t.Errorf("shared counter = %d, want 3", snap.Get("shared.counter").Value)
	}

	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge(m)
}

func TestSnapshotOrderedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.Counter(Metric{Name: "z.counter", Layer: "l7lb", Unit: "reqs"}).Add(4)
	r.Gauge(Metric{Name: "a.gauge", Layer: "core", Unit: "workers"}).Set(-2)
	r.Histogram(Metric{Name: "m.hist", Unit: "ns"}, []int64{100}).Observe(50)
	cv := r.CounterVec(Metric{Name: "k.vec"}, 3)
	cv.At(0).Add(1)
	cv.At(2).Add(5)

	snap := r.Snapshot()
	names := make([]string, len(snap.Metrics))
	for i, ms := range snap.Metrics {
		names[i] = ms.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("snapshot not name-ordered: %v", names)
	}
	if got := snap.Get("a.gauge"); got == nil || got.Value != -2 || got.Kind != "gauge" {
		t.Errorf("a.gauge = %+v", got)
	}
	if got := snap.Get("k.vec"); got == nil || got.Total() != 6 || len(got.Values) != 3 {
		t.Errorf("k.vec = %+v", got)
	}
	if got := snap.Get("m.hist"); got == nil || got.Count != 1 || got.Sum != 50 {
		t.Errorf("m.hist = %+v", got)
	}
	if snap.Get("nope") != nil {
		t.Error("Get on unknown name != nil")
	}

	// Renders must include every metric and be valid JSON.
	text := snap.Text()
	for _, n := range names {
		if !strings.Contains(text, n) {
			t.Errorf("Text() missing %s", n)
		}
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v", err)
	}
	if len(round.Metrics) != len(snap.Metrics) {
		t.Errorf("JSON round-trip lost metrics: %d vs %d", len(round.Metrics), len(snap.Metrics))
	}
}

func TestSnapshotQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Metric{Name: "q"}, []int64{10, 20})
	for i := 0; i < 10; i++ {
		h.Observe(5)  // ≤10
		h.Observe(15) // ≤20
	}
	ms := r.Snapshot().Get("q")
	if p50 := ms.Quantile(0.5); p50 != 10 {
		t.Errorf("p50 = %v, want 10 (upper edge of first bucket)", p50)
	}
	if p99 := ms.Quantile(0.99); p99 <= 10 || p99 > 20 {
		t.Errorf("p99 = %v, want in (10, 20]", p99)
	}
	var empty MetricSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Error("quantile of a non-histogram != 0")
	}
}

// An empty histogram's exported quantiles must be JSON null, not 0: a
// consumer reading p99=0 would mistake "never recorded" for "instant".
func TestSnapshotEmptyHistogramQuantilesNull(t *testing.T) {
	r := NewRegistry()
	r.Histogram(Metric{Name: "never", Unit: "ns"}, []int64{10, 20}) // registered, no observations
	r.Histogram(Metric{Name: "once", Unit: "ns"}, []int64{10, 20}).Observe(5)
	snap := r.Snapshot()

	for _, want := range []struct {
		name string
		null bool
	}{{"never", true}, {"once", false}} {
		ms := snap.Get(want.name)
		if ms == nil || len(ms.Quantiles) != 2 {
			t.Fatalf("%s: quantiles = %v, want p50+p99", want.name, ms)
		}
		for _, q := range []string{"p50", "p99"} {
			v, ok := ms.Quantiles[q]
			if !ok {
				t.Fatalf("%s: missing %s", want.name, q)
			}
			if want.null != (v == nil) {
				t.Errorf("%s: %s = %v, want null=%v", want.name, q, v, want.null)
			}
		}
	}

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"p50": null`) || !strings.Contains(out, `"p99": null`) {
		t.Errorf("WriteJSON of empty histogram lacks null quantiles:\n%s", out)
	}
	// The recorded histogram's quantiles must come through as numbers.
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatal(err)
	}
	if v := round.Get("once").Quantiles["p50"]; v == nil || *v <= 0 {
		t.Errorf("recorded histogram p50 did not round-trip: %v", v)
	}
}

// Snapshots taken while writers hammer every instrument kind must be
// race-free (run with -race) and, once the writers finish, exact.
func TestRegistryConcurrentWriters(t *testing.T) {
	// Modest volumes: this test exists to give -race interleavings to chew
	// on, and it must stay fast on single-core CI runners.
	const (
		writers = 4
		perW    = 2_000
	)
	r := NewRegistry()
	m := func(n string) Metric { return Metric{Name: n, Layer: "test"} }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader: exercises snapshot-vs-write races
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				snap := r.Snapshot()
				for _, ms := range snap.Metrics {
					_ = ms.Total()
				}
				runtime.Gosched() // don't starve writers on single-core runners
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer re-requests its handles: registration must also
			// be concurrency-safe, not just recording.
			c := r.Counter(m("conc.counter"))
			g := r.Gauge(m("conc.gauge"))
			h := r.Histogram(m("conc.hist"), []int64{8, 64, 512})
			cv := r.CounterVec(m("conc.vec"), writers)
			gv := r.GaugeVec(m("conc.gvec"), writers)
			for i := 0; i < perW; i++ {
				c.Inc()
				g.SetMax(int64(w*perW + i))
				h.Observe(int64(i % 1000))
				cv.At(w).Inc()
				gv.At(w).Set(int64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	snap := r.Snapshot()
	if got := snap.Get("conc.counter").Value; got != writers*perW {
		t.Errorf("counter = %d, want %d", got, writers*perW)
	}
	if got := snap.Get("conc.gauge").Value; got != (writers-1)*perW+perW-1 {
		t.Errorf("gauge high-water = %d, want %d", got, (writers-1)*perW+perW-1)
	}
	if got := snap.Get("conc.hist").Count; got != writers*perW {
		t.Errorf("hist count = %d, want %d", got, writers*perW)
	}
	for i, v := range snap.Get("conc.vec").Values {
		if v != perW {
			t.Errorf("vec slot %d = %d, want %d", i, v, perW)
		}
	}
	for i, v := range snap.Get("conc.gvec").Values {
		if v != perW-1 {
			t.Errorf("gauge vec slot %d = %d, want the last write %d", i, v, perW-1)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter(Metric{Name: "b"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram(Metric{Name: "b"}, DurationBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) % 1_000_000)
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
