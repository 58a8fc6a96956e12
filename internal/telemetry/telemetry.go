// Package telemetry is the runtime observability layer shared by every
// stage of the Hermes stack: the simulated kernel (accept queues, epoll
// wakeups), the eBPF dispatch path (map operations, program outcomes), the
// core control loop (Algorithm 1 decisions), and the L7 LB application
// (per-worker service metrics). The same instrumentation points drive both
// the simulated stack and the real-TCP cmd/hermes-lb proxy.
//
// Design constraints, in order:
//
//  1. Zero allocation and near-zero cost on the hot path. Instruments are
//     small handles obtained once at wiring time; recording is one or two
//     atomic operations. A nil handle is a valid no-op instrument, so
//     disabling telemetry is "don't wire a Registry" — the instrumented
//     code runs identically either way (a single nil check per record).
//  2. Stable identity. Every instrument is keyed by a Metric descriptor
//     (name, layer, unit); the catalog lives in docs/TELEMETRY.md.
//  3. Consistent snapshots. A Registry snapshot reads each value with the
//     same atomics the writers use, so it is safe under concurrent writers
//     (per-value atomicity; cross-value tearing is tolerated by design,
//     exactly like the paper's Worker Status Table reads).
package telemetry

import "sync/atomic"

// Kind classifies an instrument.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindCounterVec
	KindGaugeVec
)

var kindNames = [...]string{"counter", "gauge", "histogram", "counter_vec", "gauge_vec"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Metric is the stable identity of one instrument. Handles are obtained
// once, keyed by Metric; the hot path touches only the handle.
type Metric struct {
	// Name is the dotted metric path, e.g. "layer.object.metric".
	Name string
	// Layer is the subsystem that records it: kernel, ebpf, core, l7lb.
	Layer string
	// Unit is the value unit: "conns", "events", "ns", "workers", ...
	Unit string
	// Help is a one-line description for the catalog.
	Help string
}

// --- Counter ---

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --- Gauge ---

// Gauge is a last-write-wins instantaneous value with optional running-max
// semantics. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Swap stores v and returns the value it replaced (0 on nil): a gauge that
// holds a state lets exactly one of several writers see each change.
func (g *Gauge) Swap(v int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Swap(v)
}

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v exceeds the current value (CAS loop;
// lock-free high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// --- Histogram ---

// Histogram counts observations into fixed buckets chosen at registration,
// so recording is a binary search plus two atomic adds — no allocation, no
// locks. Bucket i counts observations v ≤ bounds[i]; a final implicit
// +Inf bucket catches the rest. A nil *Histogram is a no-op.
type Histogram struct {
	bounds []int64 // inclusive upper bounds, strictly increasing
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound ≥ v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// DurationBuckets is the default latency bucket layout in nanoseconds:
// 1µs to ~16s in powers of two. Suits accept-queue wait, epoll residency,
// and request service time at the cost model's microsecond scale.
func DurationBuckets() []int64 {
	bounds := make([]int64, 0, 25)
	for v := int64(1000); v <= 16_000_000_000; v *= 2 {
		bounds = append(bounds, v)
	}
	return bounds
}

// CountBuckets returns small-integer buckets 1,2,4,...,2^k for count-like
// distributions (events per wait, workers passing a filter).
func CountBuckets(max int64) []int64 {
	bounds := []int64{0}
	for v := int64(1); v <= max; v *= 2 {
		bounds = append(bounds, v)
	}
	return bounds
}

// --- Vectors ---

// CounterVec is a fixed-size family of counters indexed by a small dense
// id (worker id, group id). A nil *CounterVec is a no-op family.
type CounterVec struct {
	cs []Counter
}

// At returns element i's counter (nil — a no-op — when the vec is nil or
// i is out of range).
func (v *CounterVec) At(i int) *Counter {
	if v == nil || i < 0 || i >= len(v.cs) {
		return nil
	}
	return &v.cs[i]
}

// Len returns the family size (0 on nil).
func (v *CounterVec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.cs)
}

// GaugeVec is a fixed-size family of gauges.
type GaugeVec struct {
	gs []Gauge
}

// At returns element i's gauge (nil no-op when out of range or vec is nil).
func (v *GaugeVec) At(i int) *Gauge {
	if v == nil || i < 0 || i >= len(v.gs) {
		return nil
	}
	return &v.gs[i]
}

// Len returns the family size (0 on nil).
func (v *GaugeVec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.gs)
}
