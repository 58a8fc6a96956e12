package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The oracle is what Sample did before selection: sort everything, index.
type sortOracle []float64 // in insertion order

func (o sortOracle) sorted() []float64 {
	s := append([]float64(nil), o...)
	sort.Float64s(s)
	return s
}

func (o sortOracle) percentile(p float64) float64 {
	s := o.sorted()
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func (o sortOracle) countAbove(x float64) int {
	n := 0
	for _, v := range o {
		if v > x {
			n++
		}
	}
	return n
}

func (o sortOracle) mean() float64 {
	if len(o) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range o {
		sum += v
	}
	return sum / float64(len(o))
}

// same is ==, with the NaN that interpolating between -Inf and +Inf yields
// equal to itself.
func same(a, b float64) bool { return a == b || (a != a && b != b) }

func sampleOf(vals []float64) *Sample {
	s := &Sample{}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

func TestPercentileMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	gens := map[string]func(i, n int) float64{
		"ten values":  func(int, int) float64 { return float64(rng.Intn(10)) },
		"whole ns":    func(int, int) float64 { return float64(500+rng.Intn(1000)) / 1e6 },
		"continuous":  func(int, int) float64 { return rng.ExpFloat64() },
		"all equal":   func(int, int) float64 { return 7 },
		"ascending":   func(i, _ int) float64 { return float64(i / 3) },
		"descending":  func(i, n int) float64 { return float64((n - i) / 3) },
		"organ pipe":  func(i, n int) float64 { return float64(min(i, n-i)) },
		"two plateau": func(i, n int) float64 { return float64(2 * i / n) },
	}
	ps := []float64{0, 50, 90, 99, 99.9, 100}
	for _, n := range []int{1, 2, 3, 17, 100_000} {
		for name, gen := range gens {
			vals := make(sortOracle, n)
			for i := range vals {
				vals[i] = gen(i, n)
			}
			later := append(append(sortOracle(nil), vals...), gen(0, n), -1, gen(n/2, n), 1e9)
			// The oracle sorts a copy per call: ask it once per question.
			wantVals, wantLater := map[float64]float64{}, map[float64]float64{}
			for _, p := range ps {
				wantVals[p], wantLater[p] = vals.percentile(p), later.percentile(p)
			}
			laterMin, laterMedian := later.percentile(0), later.percentile(50)
			for _, p := range ps {
				// Each query selects in a sample nothing has
				// reordered yet, then in one the previous queries did.
				s := sampleOf(vals)
				if got, want := s.Percentile(p), wantVals[p]; !same(got, want) {
					t.Fatalf("%s n=%d: first P%v = %v, sort says %v", name, n, p, got, want)
				}
				if got, want := s.CountAbove(vals[n/2]), vals.countAbove(vals[n/2]); got != want {
					t.Fatalf("%s n=%d: CountAbove(%v) = %d, want %d", name, n, vals[n/2], got, want)
				}
				for _, q := range ps {
					if got, want := s.Percentile(q), wantVals[q]; !same(got, want) {
						t.Fatalf("%s n=%d: P%v after P%v = %v, sort says %v", name, n, q, p, got, want)
					}
				}
				// Adds between queries.
				for _, v := range later[n:] {
					s.Add(v)
				}
				if got, want := s.Percentile(p), wantLater[p]; !same(got, want) {
					t.Fatalf("%s n=%d: P%v after late Adds = %v, sort says %v", name, n, p, got, want)
				}
				// CDF sorts the array; the same answers must come back from it.
				if got, want := s.Min(), laterMin; got != want {
					t.Fatalf("%s n=%d: Min = %v, want %v", name, n, got, want)
				}
				s.CDF(2)
				if got, want := s.Percentile(p), wantLater[p]; !same(got, want) {
					t.Fatalf("%s n=%d: P%v after CDF = %v, sort says %v", name, n, p, got, want)
				}
				for _, x := range []float64{-2, vals[0], laterMedian, 2e9} {
					if got, want := s.CountAbove(x), later.countAbove(x); got != want {
						t.Fatalf("%s n=%d: CountAbove(%v) after CDF = %d, want %d", name, n, x, got, want)
					}
				}
				if got, want := s.Mean(), later.mean(); got != want {
					t.Fatalf("%s n=%d: Mean = %v after queries, %v in insertion order", name, n, got, want)
				}
			}
		}
	}
}

// A sample's mean is a fact about what was added, not about what was asked
// first: Percentile reorders the array, so a mean summed over the array read
// differently (in the last bits) before and after a query.
func TestMeanIndependentOfQueryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make(sortOracle, 10_000)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	fresh := sampleOf(vals)
	mean := fresh.Mean()
	if mean != vals.mean() {
		t.Fatalf("Mean = %v, the insertion-order sum gives %v", mean, vals.mean())
	}
	queries := map[string]func(*Sample){
		"Percentile(99)": func(s *Sample) { s.Percentile(99) },
		"Percentile(50)": func(s *Sample) { s.Percentile(50) },
		"Max":            func(s *Sample) { s.Max() },
		"CDF":            func(s *Sample) { s.CDF(10) },
	}
	for name, q := range queries {
		s := sampleOf(vals)
		q(s)
		if got := s.Mean(); got != mean {
			t.Errorf("Mean after %s = %v, before it %v", name, got, mean)
		}
	}
}

var fuzzPs = [16]float64{0, 50, 90, 99, 99.9, 100, 1, 25, 75, 33.3, -5, 150, 10, 66.6, 95, 99.99}

var fuzzSpecials = [8]float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e300, -1e300, 5e-324, math.NaN()}

// runSampleProgram drives one Sample and the sort oracle with the same
// operations, one per byte:
//
//	00vvvvvv  Add(v & 15)            heavy duplicates
//	01vvvvvv  Add(v - 32)
//	10xxxsss  Add(fuzzSpecials[s])   ±Inf, ±0, huge, denormal, NaN
//	1100pppp  Percentile(fuzzPs[p])
//	1101xxxx  CountAbove(x)
//	1110xxxx  Min, Max
//	1111xxxx  Mean, N
//
// Once a NaN is in, answers are unspecified and only "does not panic" is
// checked.
func runSampleProgram(t *testing.T, prog []byte) {
	var s Sample
	var o sortOracle
	nan := false
	for pc, b := range prog {
		switch {
		case b < 0x40:
			v := float64(b & 15)
			s.Add(v)
			o = append(o, v)
		case b < 0x80:
			v := float64(b&63) - 32
			s.Add(v)
			o = append(o, v)
		case b < 0xC0:
			v := fuzzSpecials[b&7]
			nan = nan || v != v
			s.Add(v)
			o = append(o, v)
		case b < 0xD0:
			p := fuzzPs[b&15]
			if got, want := s.Percentile(p), o.percentile(p); !nan && !same(got, want) {
				t.Fatalf("op %d: P%v of %v = %v, sort says %v", pc, p, []float64(o), got, want)
			}
		case b < 0xE0:
			x := float64(b & 15)
			if got, want := s.CountAbove(x), o.countAbove(x); !nan && got != want {
				t.Fatalf("op %d: CountAbove(%v) of %v = %d, want %d", pc, x, []float64(o), got, want)
			}
		case b < 0xF0:
			lo, hi := s.Min(), s.Max()
			if len(o) > 0 && !nan {
				if srt := o.sorted(); lo != srt[0] || hi != srt[len(srt)-1] {
					t.Fatalf("op %d: Min, Max of %v = %v, %v", pc, []float64(o), lo, hi)
				}
			}
		default:
			if got, want := s.Mean(), o.mean(); !same(got, want) || s.N() != len(o) {
				t.Fatalf("op %d: Mean, N of %v = %v, %d; want %v, %d", pc, []float64(o), got, s.N(), want, len(o))
			}
		}
	}
}

func TestSampleProgramsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 3000; i++ {
		prog := make([]byte, 1+rng.Intn(300))
		rng.Read(prog)
		if i%2 == 0 {
			// Mostly Adds, so the partition loop (ranges over 12 long)
			// is reached with queries in between.
			for j := range prog {
				if prog[j] >= 0x80 && rng.Intn(8) != 0 {
					prog[j] &= 0x7f
				}
			}
		}
		runSampleProgram(t, prog)
	}
}

// FuzzPercentile's seed corpus is checked in under
// testdata/fuzz/FuzzPercentile, so a plain `go test` replays it.
func FuzzPercentile(f *testing.F) {
	f.Fuzz(runSampleProgram)
}
