// Package stats provides the measurement machinery behind the evaluation:
// percentile samples (Tables 1, 3; Figs. 4, 5), online mean/stddev
// (Fig. 13's balance metric), log-bucketed histograms/CDFs, and plain-text
// table rendering for the benchmark harness.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Sample accumulates observations for percentile and moment queries.
// The zero value is ready to use.
type Sample struct {
	vals   []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Reserve makes room for n more observations, so a caller that knows how many
// it will record pays for one allocation instead of append's doublings.
func (s *Sample) Reserve(n int) { s.vals = slices.Grow(s.vals, n) }

// AddDuration appends a duration observation in milliseconds, the unit the
// paper reports latency in.
func (s *Sample) AddDuration(ns int64) { s.Add(float64(ns) / 1e6) }

// N returns the observation count.
func (s *Sample) N() int { return len(s.vals) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := p / 100 * float64(len(s.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Mean returns the arithmetic mean (0 if empty).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Stddev returns the population standard deviation (0 if fewer than 2).
func (s *Sample) Stddev() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.vals {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[0]
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[len(s.vals)-1]
}

// CDF returns (value, cumulative fraction) pairs at the given resolution
// (number of points), suitable for plotting Figs. 4, 5, A5.
func (s *Sample) CDF(points int) [][2]float64 {
	if len(s.vals) == 0 || points < 2 {
		return nil
	}
	s.ensureSorted()
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
	s.ensureSorted()
	lo, hi := 0, len(s.vals)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.vals[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return len(s.vals) - lo
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
