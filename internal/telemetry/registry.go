package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// Registry hands out instrument handles: it owns every registered instrument
// and can snapshot them all atomically-per-value at any time. Registration
// takes a lock (it happens once, at wiring time); recording through the
// returned handles is lock-free. A nil *Registry disables everything: its
// registration methods return nil handles, whose methods no-op.
//
// Requesting the same metric name twice returns the same handle, so
// several components may share an instrument (e.g. the per-worker wakeup
// vec wired to each epoll instance).
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
}

type entry struct {
	m    Metric
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
	cv   *CounterVec
	gv   *GaugeVec
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// register finds the entry for m or creates it, running build on the fresh
// entry under the lock, so that every entry visible to Snapshot is fully
// built. A nil registry registers nothing and returns an entry with no
// instruments: the nil handles the layers then hold are the no-op ones.
func (r *Registry) register(m Metric, kind Kind, build func(*entry)) *entry {
	if r == nil {
		return &entry{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[m.Name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", m.Name, kind, e.kind))
		}
		return e
	}
	e := &entry{m: m, kind: kind}
	build(e)
	r.byName[m.Name] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter returns the counter registered under m.
func (r *Registry) Counter(m Metric) *Counter {
	return r.register(m, KindCounter, func(e *entry) { e.c = &Counter{} }).c
}

// Gauge returns the gauge registered under m.
func (r *Registry) Gauge(m Metric) *Gauge {
	return r.register(m, KindGauge, func(e *entry) { e.g = &Gauge{} }).g
}

// Histogram returns the histogram registered under m. bounds are the
// inclusive bucket upper bounds, strictly increasing; the first registration
// wins.
func (r *Registry) Histogram(m Metric, bounds []int64) *Histogram {
	return r.register(m, KindHistogram, func(e *entry) { e.h = newHistogram(bounds) }).h
}

// CounterVec returns the counter family registered under m; n is the family
// size (first registration wins).
func (r *Registry) CounterVec(m Metric, n int) *CounterVec {
	return r.register(m, KindCounterVec, func(e *entry) { e.cv = &CounterVec{cs: make([]Counter, n)} }).cv
}

// GaugeVec returns the gauge family registered under m.
func (r *Registry) GaugeVec(m Metric, n int) *GaugeVec {
	return r.register(m, KindGaugeVec, func(e *entry) { e.gv = &GaugeVec{gs: make([]Gauge, n)} }).gv
}

// Snapshot captures every registered instrument. Each value is read with
// the same atomic the writers use; the snapshot is consistent per value
// and stable once taken. Metrics are ordered by name for deterministic
// rendering. A nil registry's snapshot is empty.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()

	snap := Snapshot{Metrics: make([]MetricSnapshot, 0, len(entries))}
	for _, e := range entries {
		ms := MetricSnapshot{
			Name:  e.m.Name,
			Layer: e.m.Layer,
			Unit:  e.m.Unit,
			Help:  e.m.Help,
			Kind:  e.kind.String(),
		}
		switch e.kind {
		case KindCounter:
			ms.Value = int64(e.c.Load())
		case KindGauge:
			ms.Value = e.g.Load()
		case KindHistogram:
			ms.Count = e.h.Count()
			ms.Sum = e.h.Sum()
			ms.Buckets = make([]Bucket, len(e.h.counts))
			for i := range e.h.counts {
				b := Bucket{Count: e.h.counts[i].Load()}
				if i < len(e.h.bounds) {
					b.LE = e.h.bounds[i]
				} else {
					b.Inf = true
				}
				ms.Buckets[i] = b
			}
			ms.Quantiles = histQuantiles(&ms)
		case KindCounterVec:
			ms.Values = make([]int64, e.cv.Len())
			for i := range ms.Values {
				ms.Values[i] = int64(e.cv.At(i).Load())
			}
		case KindGaugeVec:
			ms.Values = make([]int64, e.gv.Len())
			for i := range ms.Values {
				ms.Values[i] = e.gv.At(i).Load()
			}
		}
		snap.Metrics = append(snap.Metrics, ms)
	}
	sort.Slice(snap.Metrics, func(i, j int) bool { return snap.Metrics[i].Name < snap.Metrics[j].Name })
	return snap
}
