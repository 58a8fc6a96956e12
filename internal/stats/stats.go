// Package stats provides the measurement machinery behind the evaluation:
// percentile samples (Tables 1, 3; Figs. 4, 5), online mean/stddev
// (Fig. 13's balance metric), log-bucketed histograms/CDFs, and the
// benchmark harness's result tables, which keep their numbers as values until
// they render as plain text.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Sample accumulates observations for percentile and moment queries.
// The zero value is ready to use. Observations are expected to be ordered
// (no NaN): an order statistic of a sample holding one is unspecified.
type Sample struct {
	vals []float64
	sum  float64 // of vals, added in the order Add saw them
}

// Add appends one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
}

// Reserve makes room for n more observations, so a caller that knows how many
// it will record pays for one allocation instead of append's doublings.
func (s *Sample) Reserve(n int) { s.vals = slices.Grow(s.vals, n) }

// AddDuration appends a duration observation in milliseconds, the unit the
// paper reports latency in.
func (s *Sample) AddDuration(ns int64) { s.Add(float64(ns) / 1e6) }

// N returns the observation count.
func (s *Sample) N() int { return len(s.vals) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
//
// A query reads at most two order statistics, so the sample is not sorted for
// it: the lower rank is put in place by selection (expected linear time,
// reordering vals) and the upper one is the minimum of what then lies to its
// right. An order statistic is the same number however it is found; the result
// is exact.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	rank := 0.0 // p ≤ 0: the minimum
	if p >= 100 {
		rank = float64(n - 1)
	} else if p > 0 {
		rank = p / 100 * float64(n-1)
	}
	lo := int(math.Floor(rank))
	selectKth(s.vals, lo)
	frac := rank - float64(lo)
	if frac == 0 {
		return s.vals[lo]
	}
	return s.vals[lo]*(1-frac) + slices.Min(s.vals[lo+1:])*frac
}

// selectKth reorders a so that a[k] holds the value a full sort would put
// there, nothing left of k is greater and nothing right of it is smaller:
// quickselect with a median-of-three pivot. Both scans stop on values equal
// to the pivot, so runs of duplicates (latencies are whole nanoseconds) split
// evenly. Ranges of a dozen or fewer are finished by sorting them, and so is
// whatever is still open after 4·log₂n partitions (a descent towards the
// median expects about 1.8·log₂n), which keeps the worst case at the full
// sort's O(n log n).
func selectKth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for budget := 4 * bits.Len(uint(len(a))); hi-lo >= 12 && budget > 0; budget-- {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		// a[lo] ≤ pivot ≤ a[hi] now bound the two scans; the pivot waits
		// at hi-1.
		pivot := a[mid]
		a[mid], a[hi-1] = a[hi-1], pivot
		i, j := lo, hi-1
		for {
			for i++; a[i] < pivot; i++ {
			}
			for j--; pivot < a[j]; j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		a[i], a[hi-1] = pivot, a[i]
		switch {
		case k < i:
			hi = i - 1
		case k > i:
			lo = i + 1
		default:
			return
		}
	}
	sort.Float64s(a[lo : hi+1])
}

// Mean returns the arithmetic mean (0 if empty). It is taken from a sum kept
// by Add, so it does not depend on how earlier queries reordered the sample.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return slices.Min(s.vals)
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return slices.Max(s.vals)
}

// CDF returns (value, cumulative fraction) pairs at the given resolution
// (number of points), suitable for plotting Figs. 4, 5, A5.
func (s *Sample) CDF(points int) [][2]float64 {
	if len(s.vals) == 0 || points < 2 {
		return nil
	}
	sort.Float64s(s.vals)
	out := make([][2]float64, 0, points)
	for i := 0; i < points; i++ {
		frac := float64(i) / float64(points-1)
		idx := int(frac * float64(len(s.vals)-1))
		out = append(out, [2]float64{s.vals[idx], float64(idx+1) / float64(len(s.vals))})
	}
	return out
}

// CountAbove returns how many observations exceed x (delayed-probe counting,
// Fig. 11).
func (s *Sample) CountAbove(x float64) int {
	n := 0
	for _, v := range s.vals {
		if v > x {
			n++
		}
	}
	return n
}

// Welford tracks running mean and variance without storing observations —
// used for long-running per-worker CPU utilization series (Fig. 13).
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds in one observation.
func (w *Welford) Add(v float64) {
	w.n++
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Stddev returns the running population standard deviation.
func (w *Welford) Stddev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n))
}

// MeanStddev computes mean and population stddev of a slice in one pass.
func MeanStddev(vals []float64) (mean, std float64) {
	var w Welford
	for _, v := range vals {
		w.Add(v)
	}
	return w.Mean(), w.Stddev()
}

// FormatMS renders a millisecond quantity the way the paper's tables do:
// three significant-ish decimals for small values, fewer for large.
func FormatMS(ms float64) string {
	switch {
	case ms >= 100:
		return fmt.Sprintf("%.0f", ms)
	case ms >= 10:
		return fmt.Sprintf("%.2f", ms)
	default:
		return fmt.Sprintf("%.3f", ms)
	}
}
