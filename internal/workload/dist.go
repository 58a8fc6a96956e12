// Package workload generates the multi-tenant traffic the evaluation runs
// against: the four CPS × processing-time case models of Table 3, regional
// mixes approximating Table 4, Zipf-skewed tenants, long-lived-connection
// surges (Fig. 3), and the forwarding-rules-per-port distribution (Fig. A5).
// All generation is driven by the simulation engine's seeded RNG, so every
// workload is reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is a one-dimensional sampling distribution.
type Dist interface {
	Sample(r *rand.Rand) float64
	// Skip advances r exactly as Sample would, without computing the value:
	// for a draw whose result nothing reads but whose place in a shared
	// random stream everything after it depends on.
	Skip(r *rand.Rand)
	// Mean returns the distribution's expectation (for load accounting).
	Mean() float64
}

// Const is a degenerate point distribution.
type Const float64

// Sample implements Dist.
func (c Const) Sample(*rand.Rand) float64 { return float64(c) }

// Skip implements Dist.
func (c Const) Skip(*rand.Rand) {}

// Mean implements Dist.
func (c Const) Mean() float64 { return float64(c) }

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) float64 { return u.Lo + r.Float64()*(u.Hi-u.Lo) }

// Skip implements Dist.
func (u Uniform) Skip(r *rand.Rand) { r.Float64() }

// Mean implements Dist.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Exp is an exponential distribution with the given mean.
type Exp struct{ MeanVal float64 }

// Sample implements Dist.
func (e Exp) Sample(r *rand.Rand) float64 { return r.ExpFloat64() * e.MeanVal }

// Skip implements Dist.
func (e Exp) Skip(r *rand.Rand) { r.ExpFloat64() }

// Mean implements Dist.
func (e Exp) Mean() float64 { return e.MeanVal }

// LogNormal has parameters of the underlying normal (heavy-tailed
// processing times, Table 1).
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Skip implements Dist.
func (l LogNormal) Skip(r *rand.Rand) { r.NormFloat64() }

// Mean implements Dist.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Pareto is a bounded-minimum power-law tail (request sizes).
type Pareto struct {
	XMin  float64
	Alpha float64
}

// Sample implements Dist.
func (p Pareto) Sample(r *rand.Rand) float64 {
	return p.XMin / math.Pow(1-r.Float64(), 1/p.Alpha)
}

// Skip implements Dist.
func (p Pareto) Skip(r *rand.Rand) { r.Float64() }

// Mean implements Dist.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.XMin / (p.Alpha - 1)
}

// Mixture samples from component i with probability Weights[i].
type Mixture struct {
	Components []Dist
	Weights    []float64
}

// Sample implements Dist.
func (m Mixture) Sample(r *rand.Rand) float64 { return m.pick(r).Sample(r) }

// Skip implements Dist.
func (m Mixture) Skip(r *rand.Rand) { m.pick(r).Skip(r) }

// pick draws the component one Sample or Skip goes to.
func (m Mixture) pick(r *rand.Rand) Dist { return m.Components[PickWeighted(r, m.Weights)] }

// Mean implements Dist.
func (m Mixture) Mean() float64 {
	total, acc := 0.0, 0.0
	for i, w := range m.Weights {
		total += w
		acc += w * m.Components[i].Mean()
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// Validate checks component/weight arity.
func (m Mixture) Validate() error {
	if len(m.Components) == 0 || len(m.Components) != len(m.Weights) {
		return fmt.Errorf("workload: mixture needs matching components (%d) and weights (%d)",
			len(m.Components), len(m.Weights))
	}
	return nil
}

// ZipfWeights returns n weights following a Zipf law with exponent s — the
// heavily skewed tenant shares of §7 (top tenants carrying 40/28/22% of
// traffic).
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// PickWeighted returns an index sampled according to weights (assumed
// normalized or not — handled either way).
func PickWeighted(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}
