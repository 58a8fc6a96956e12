package telemetry

import (
	"sync"
	"time"

	"hermes/internal/stats"
)

// This file is the windowed time-series layer behind the SLO monitor: a
// fixed-size ring of whole registry snapshots sampled on a tick (wall clock
// in the live proxy, explicit SLO.Tick calls under a fake clock), from which
// windowed rates, deltas, and rolling histogram quantiles are derived by
// diffing two ring edges. Sampling runs entirely off the hot path — recording
// stays the same one-or-two-atomics it always was; the sampler goroutine pays
// the snapshot cost on its own time.

// tickPoint is one retained sample: the whole registry at one instant.
type tickPoint struct {
	tsNS int64
	snap Snapshot
}

// windows samples a Registry into a ring of snapshots and answers windowed
// queries by diffing ring edges. tick is the only writer; queries take a read
// lock and never block recording.
type windows struct {
	reg *Registry

	mu   sync.RWMutex
	ring []tickPoint
	n    uint64 // total ticks taken; next slot = n % depth
}

// newWindows builds a ring of depth (≥ 2) samples over reg; it answers no
// windows until two ticks have been taken.
func newWindows(reg *Registry, depth int) *windows {
	return &windows{reg: reg, ring: make([]tickPoint, depth)}
}

// tick samples the registry at nowNS.
func (w *windows) tick(nowNS int64) {
	snap := w.reg.Snapshot()
	w.mu.Lock()
	w.ring[w.n%uint64(len(w.ring))] = tickPoint{tsNS: nowNS, snap: snap}
	w.n++
	w.mu.Unlock()
}

// Window returns the delta view spanning approximately d: the newest tick
// is the end edge, and the start edge is the newest retained tick at least
// d older (falling back to the oldest retained tick when history is
// shorter). ok is false until two ticks with distinct timestamps exist.
func (w *windows) Window(d time.Duration) (WindowDelta, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	depth := uint64(len(w.ring))
	have := w.n
	if have > depth {
		have = depth
	}
	if have < 2 {
		return WindowDelta{}, false
	}
	at := func(i uint64) tickPoint { // i: 0 = oldest retained
		return w.ring[(w.n-have+i)%depth]
	}
	end := at(have - 1)
	cutoff := end.tsNS - int64(d)
	start := at(0)
	for i := have - 1; i > 0; i-- {
		if p := at(i - 1); p.tsNS <= cutoff {
			start = p
			break
		}
	}
	if start.tsNS >= end.tsNS {
		return WindowDelta{}, false
	}
	return NewWindowDelta(start.tsNS, end.tsNS, start.snap, end.snap), true
}

// WindowDelta is the difference between two registry snapshots — the unit
// every windowed query (rate, windowed quantile, SLI ratio) is answered
// from. Build one from the SLO monitor's ring or directly from two snapshots
// (hermesctl watch and top).
type WindowDelta struct {
	StartNS, EndNS int64
	start, end     Snapshot
}

// NewWindowDelta pairs two snapshots taken at the given instants.
func NewWindowDelta(startNS, endNS int64, start, end Snapshot) WindowDelta {
	return WindowDelta{StartNS: startNS, EndNS: endNS, start: start, end: end}
}

// Elapsed returns the window span.
func (d WindowDelta) Elapsed() time.Duration {
	return time.Duration(d.EndNS - d.StartNS)
}

// End returns the end-edge snapshot (current gauge values and so on).
func (d WindowDelta) End() Snapshot { return d.end }

// Delta returns how much the named counter (or counter-vec total) grew over
// the window. Metrics absent at the start edge count from zero; negative
// deltas (a restarted registry) clamp to zero.
func (d WindowDelta) Delta(name string) int64 {
	cur := d.end.Get(name)
	if cur == nil {
		return 0
	}
	v := cur.Total()
	if prev := d.start.Get(name); prev != nil {
		v -= prev.Total()
	}
	if v < 0 {
		return 0
	}
	return v
}

// SlotDelta returns one vec slot's growth over the window.
func (d WindowDelta) SlotDelta(name string, i int) int64 {
	cur := d.end.Get(name)
	if cur == nil || i < 0 || i >= len(cur.Values) {
		return 0
	}
	v := cur.Values[i]
	if prev := d.start.Get(name); prev != nil && i < len(prev.Values) {
		v -= prev.Values[i]
	}
	if v < 0 {
		return 0
	}
	return v
}

// Rate returns Delta per second over the window.
func (d WindowDelta) Rate(name string) float64 {
	sec := float64(d.EndNS-d.StartNS) / 1e9
	if sec <= 0 {
		return 0
	}
	return float64(d.Delta(name)) / sec
}

// histDelta returns the named histogram's per-bucket growth over the
// window: bounds plus one count per bucket (trailing +Inf included).
func (d WindowDelta) histDelta(name string) (bounds []int64, counts []uint64, ok bool) {
	cur := d.end.Get(name)
	if cur == nil || len(cur.Buckets) == 0 {
		return nil, nil, false
	}
	prev := d.start.Get(name)
	counts = make([]uint64, len(cur.Buckets))
	for i, b := range cur.Buckets {
		c := b.Count
		if prev != nil && i < len(prev.Buckets) {
			if p := prev.Buckets[i].Count; p <= c {
				c -= p
			} else {
				c = 0
			}
		}
		counts[i] = c
		if !b.Inf {
			bounds = append(bounds, b.LE)
		}
	}
	return bounds, counts, true
}

// Quantile estimates quantile p of the named histogram over the window
// alone (bucket-count deltas through stats.BucketQuantile). ok is false
// when the histogram is absent or recorded nothing inside the window.
func (d WindowDelta) Quantile(name string, p float64) (float64, bool) {
	bounds, counts, ok := d.histDelta(name)
	if !ok {
		return 0, false
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	return stats.BucketQuantile(bounds, counts, p), true
}

// FractionAtMost returns the fraction of the window's observations ≤ v,
// interpolating linearly inside the containing bucket (the latency-SLI
// "good events" ratio). ok is false with no observations in the window.
func (d WindowDelta) FractionAtMost(name string, v int64) (float64, bool) {
	bounds, counts, ok := d.histDelta(name)
	if !ok {
		return 0, false
	}
	var total, below uint64
	var frac float64
	for i, c := range counts {
		total += c
		if i >= len(bounds) {
			continue // +Inf bucket: never ≤ a finite v unless v ≥ last bound, handled below
		}
		lo := int64(0)
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		switch {
		case hi <= v:
			below += c
		case lo < v && v < hi:
			frac += float64(c) * float64(v-lo) / float64(hi-lo)
		}
	}
	if total == 0 {
		return 0, false
	}
	if len(bounds) > 0 && v >= bounds[len(bounds)-1] {
		// v at or beyond the last finite bound: everything finite is good;
		// the +Inf bucket stays bad (unknown magnitude).
		below = total - counts[len(counts)-1]
		frac = 0
	}
	return (float64(below) + frac) / float64(total), true
}
