package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample must report zeros")
	}
	if s.CDF(10) != nil {
		t.Fatal("empty CDF must be nil")
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {99, 99.01},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 0.011 {
			t.Errorf("P%.0f = %v, want ≈%v", c.p, got, c.want)
		}
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.N() != 100 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestSamplePercentileSingle(t *testing.T) {
	var s Sample
	s.Add(7)
	for _, p := range []float64{0, 50, 99, 100} {
		if s.Percentile(p) != 7 {
			t.Fatalf("P%v of single sample = %v", p, s.Percentile(p))
		}
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(3)
	_ = s.Percentile(50)
	s.Add(2) // must invalidate the sort
	if got := s.Percentile(50); got != 2 {
		t.Fatalf("P50 after late add = %v, want 2", got)
	}
}

func TestSampleMeanStd(t *testing.T) {
	var s Sample
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		s.Add(v)
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if _, sd := MeanStddev(vals); math.Abs(sd-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", sd)
	}
}

func TestAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(2_500_000) // 2.5ms
	if s.Mean() != 2.5 {
		t.Fatalf("ms conversion = %v", s.Mean())
	}
}

// After Reserve(n) the next n Adds allocate nothing, and what was recorded
// before stays.
func TestSampleReserve(t *testing.T) {
	var s Sample
	s.Add(7)
	const n = 1000
	s.Reserve(2 * n) // AllocsPerRun calls the function twice: a warm-up and the measured run
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			s.Add(float64(i))
		}
	}); allocs != 0 {
		t.Fatalf("%d reserved Adds allocated %.0f times", n, allocs)
	}
	if s.N() != 2*n+1 || s.Percentile(100) != n-1 {
		t.Fatalf("N = %d, max = %v; want %d, %d", s.N(), s.Percentile(100), 2*n+1, n-1)
	}
}

func TestMeanStddevMatchesTwoPass(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Sample
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
			s.Add(vals[i])
		}
		// Two-pass variance around the sample's mean is the oracle.
		m2 := 0.0
		for _, v := range vals {
			d := v - s.Mean()
			m2 += d * d
		}
		mean, sd := MeanStddev(vals)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(math.Sqrt(m2/float64(len(raw)))-sd) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStddevHelper(t *testing.T) {
	m, sd := MeanStddev([]float64{1, 2, 3, 4})
	if m != 2.5 || math.Abs(sd-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("MeanStddev = %v, %v", m, sd)
	}
}

func TestCDFMonotonic(t *testing.T) {
	var s Sample
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		s.Add(rng.ExpFloat64() * 10)
	}
	cdf := s.CDF(50)
	if len(cdf) != 50 {
		t.Fatalf("CDF points = %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i][0] < cdf[i-1][0] || cdf[i][1] < cdf[i-1][1] {
			t.Fatalf("CDF not monotonic at %d: %v -> %v", i, cdf[i-1], cdf[i])
		}
	}
	last := cdf[len(cdf)-1]
	if last[1] != 1 {
		t.Fatalf("CDF must end at 1, got %v", last[1])
	}
}

func TestFormatMS(t *testing.T) {
	cases := map[float64]string{
		0.439:  "0.439",
		21.93:  "21.93",
		1480:   "1480",
		121.27: "121",
	}
	for in, want := range cases {
		if got := FormatMS(in); got != want {
			t.Errorf("FormatMS(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Case 1", Col("mode"), Col("avg (ms)"), Col("thr"))
	tb.AddRow("exclusive", 0.890, 76100)
	tb.AddRow("hermes", 0.5950, "78k")
	out := tb.Render()
	for _, frag := range []string{"== Case 1 ==", "mode", "exclusive", "0.89", "78k", "---"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Columns align: header and rows share the prefix width.
	if len(lines[1]) == 0 || lines[1][0] != 'm' {
		t.Fatal("header misplaced")
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", Col("a"), Col("b"))
	tb.AddRow(1, 2, 3) // extra cell widens the table
	tb.AddRow(4)
	out := tb.Render()
	if !strings.Contains(out, "3") || !strings.Contains(out, "4") {
		t.Fatalf("ragged rows mishandled:\n%s", out)
	}
}

// Each column prints its numbers in its own format; a Text prints itself, a
// Mark carries " (x)", and Lead/Note lines keep their numbers as arguments.
func TestTableColumnFormats(t *testing.T) {
	tb := NewTable("", Col("label"), Fixed("fixed", 2), Pct("pct", 1), MS("ms"), Col("raw"))
	tb.Title = Textf("T — %d rows", 2)
	tb.AddRow(Textf("w%02d", 3), 1.0/3, 0.1234, Mark{Value: 21.93, X: true}, []int{1, 2})
	tb.AddRow("plain", 2.0, 1.0, 0.439, uint64(7))
	tb.Lead("lead %.1f", 0.25)
	tb.Note("note 100%")
	want := "lead 0.2\n" +
		"== T — 2 rows ==\n" +
		"label  fixed  pct     ms         raw  \n" +
		"-----  -----  ------  ---------  -----\n" +
		"w03    0.33   12.3%   21.93 (x)  [1 2]\n" +
		"plain  2.00   100.0%  0.439      7    \n" +
		"note 100%\n"
	if got := tb.Render(); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
	if got := tb.Floats("ms"); len(got) != 2 || got[0] != 21.93 || got[1] != 0.439 {
		t.Fatalf("Floats(ms) = %v", got)
	}
	if got := tb.Floats("raw"); !math.IsNaN(got[0]) || got[1] != 7 {
		t.Fatalf("Floats(raw) = %v", got)
	}
	if tb.Floats("missing") != nil {
		t.Fatal("Floats of a missing header")
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTableCheck(t *testing.T) {
	for name, tb := range map[string]*Table{
		"no rows":     NewTable("t", Col("a")),
		"narrow row":  {Columns: []Column{Col("a"), Col("b")}, Rows: [][]any{{1}}},
		"NaN":         {Columns: []Column{Col("a")}, Rows: [][]any{{math.NaN()}}},
		"Inf in Mark": {Columns: []Column{Col("a")}, Rows: [][]any{{Mark{Value: math.Inf(1)}}}},
		"Inf in Text": {Columns: []Column{Col("a")}, Rows: [][]any{{Textf("%v", math.Inf(-1))}}},
		"NaN in Note": {Columns: []Column{Col("a")}, Rows: [][]any{{1}}, Notes: []Text{Textf("%v", math.NaN())}},
	} {
		if tb.Check() == nil {
			t.Errorf("%s: Check passed", name)
		}
	}
}
