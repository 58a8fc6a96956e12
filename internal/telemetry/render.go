package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"hermes/internal/stats"
)

// Bucket is one histogram cell in a snapshot.
type Bucket struct {
	// LE is the inclusive upper bound (meaningless when Inf is set).
	LE int64 `json:"le"`
	// Inf marks the implicit +Inf overflow bucket.
	Inf   bool   `json:"inf,omitempty"`
	Count uint64 `json:"count"`
}

// MetricSnapshot is one instrument's captured state.
type MetricSnapshot struct {
	Name  string `json:"name"`
	Layer string `json:"layer"`
	Kind  string `json:"kind"`
	Unit  string `json:"unit,omitempty"`
	Help  string `json:"help,omitempty"`

	// Value carries counter/gauge readings.
	Value int64 `json:"value,omitempty"`
	// Values carries vec readings, indexed by family slot (worker id).
	Values []int64 `json:"values,omitempty"`
	// Count/Sum/Buckets carry histogram readings.
	Count   uint64   `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
	// Quantiles carries interpolated histogram quantiles (p50/p99) for
	// JSON consumers. Entries are null — not 0 — when the histogram never
	// recorded, so an empty histogram can't be mistaken for a fast one.
	Quantiles map[string]*float64 `json:"quantiles,omitempty"`
}

// Quantile estimates quantile p in (0,1) of a histogram snapshot by linear
// interpolation within the containing bucket. Returns 0 for non-histograms
// or empty histograms.
func (ms *MetricSnapshot) Quantile(p float64) float64 {
	if len(ms.Buckets) == 0 || ms.Count == 0 {
		return 0
	}
	bounds := make([]int64, 0, len(ms.Buckets)-1)
	counts := make([]uint64, 0, len(ms.Buckets))
	for _, b := range ms.Buckets {
		if !b.Inf {
			bounds = append(bounds, b.LE)
		}
		counts = append(counts, b.Count)
	}
	return stats.BucketQuantile(bounds, counts, p)
}

// Total sums Values (vec metrics) or returns Value.
func (ms *MetricSnapshot) Total() int64 {
	if len(ms.Values) == 0 {
		return ms.Value
	}
	var t int64
	for _, v := range ms.Values {
		t += v
	}
	return t
}

// Snapshot is a point-in-time capture of a whole registry, ordered by
// metric name.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Get returns the named metric's snapshot, or nil.
func (s Snapshot) Get(name string) *MetricSnapshot {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}

// histQuantiles builds a histogram snapshot's exported quantile set: real
// values when it recorded, null entries when it is empty.
func histQuantiles(ms *MetricSnapshot) map[string]*float64 {
	q := map[string]*float64{"p50": nil, "p99": nil}
	if ms.Count > 0 {
		p50, p99 := ms.Quantile(0.50), ms.Quantile(0.99)
		q["p50"], q["p99"] = &p50, &p99
	}
	return q
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Text renders a compact human-readable dump, one metric per line.
func (s Snapshot) Text() string {
	var b strings.Builder
	for i := range s.Metrics {
		ms := &s.Metrics[i]
		fmt.Fprintf(&b, "%-34s %-12s", ms.Name, ms.Kind)
		switch {
		case len(ms.Buckets) > 0:
			mean := 0.0
			if ms.Count > 0 {
				mean = float64(ms.Sum) / float64(ms.Count)
			}
			fmt.Fprintf(&b, "n=%d mean=%.0f p50=%.0f p99=%.0f %s",
				ms.Count, mean, ms.Quantile(0.50), ms.Quantile(0.99), ms.Unit)
		case len(ms.Values) > 0:
			fmt.Fprintf(&b, "total=%d per-slot=%v %s", ms.Total(), ms.Values, ms.Unit)
		default:
			fmt.Fprintf(&b, "%d %s", ms.Value, ms.Unit)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
