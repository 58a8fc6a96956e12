package main

import (
	"math"
	"regexp"
	"testing"
)

// TestSpecAndWorkloads runs every workload once untraced and once traced (the
// traced run includes the rung ladder) at a hundredth of the real sizes, and
// checks that what they emit is exactly what BENCHMARK.json declares.
func TestSpecAndWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	specRoot = t.TempDir() // trace files go here, not into the tree
	sizeScale = 0.01
	defer func() { sizeScale, specRoot = 1, "." }()

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q breaks the naming rule", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check("metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		check("metric", m.Name)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}

	for _, w := range spec.Workloads {
		check("workload", w.Name)
		for _, trace := range []bool{false, true} {
			seconds := 0.15
			if trace {
				seconds = 0.3 // the profiled half must be long enough to catch samples
			}
			// runWorkload fails unless the emitted names equal the declared ones.
			r, err := runWorkload(spec, w.Name, runOpts{seed: 1, seconds: seconds, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d notes=%v", w.Name, trace, r.Correct, r.Failed, r.Attempted, r.notes)
			}
			if len(r.Metrics) != len(spec.metrics(trace)) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(r.Metrics), len(spec.metrics(trace)))
			}
			if trace {
				var sum float64
				for _, l := range foldLayers {
					sum += r.Metrics[l+".cpu_share"]
				}
				if math.Abs(sum-1) > 0.02 {
					t.Errorf("%s: cpu shares sum to %v", w.Name, sum)
				}
				continue
			}
			for _, m := range spec.EndToEnd {
				if r.Metrics[m.Name] <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, r.Metrics[m.Name])
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m         metricSpec
		base, cur []float64
		want      string
	}{
		{lower, []float64{100}, []float64{105}, "same"},
		{lower, []float64{100}, []float64{120}, "worse"},
		{lower, []float64{100}, []float64{80}, "better"},
		{higher, []float64{100}, []float64{80}, "worse"},
		{higher, []float64{100}, []float64{120}, "better"},
		{lower, []float64{80, 100, 120, 140}, []float64{150, 150, 150, 150}, "unresolved"},
		{metricSpec{Name: "x", Better: "lower"}, []float64{1}, []float64{9}, "-"},
	} {
		if _, got := verdict(c.m, c.base, c.cur); got != c.want {
			t.Errorf("%s %v→%v: %s, want %s", c.m.Name, c.base, c.cur, got, c.want)
		}
	}
}

// TestSeedShapesInputs pins that the proxy request schedule is a function of
// the seed alone, and that replies cut from the pattern verify.
func TestSeedShapesInputs(t *testing.T) {
	a, err := newLoadgen(7, true)
	if err != nil {
		t.Fatal(err)
	}
	defer a.stop()
	b, err := newLoadgen(7, true)
	if err != nil {
		t.Fatal(err)
	}
	defer b.stop()
	c, err := newLoadgen(8, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	same, differ := true, false
	for i := range a.sched {
		same = same && a.sched[i] == b.sched[i]
		differ = differ || a.sched[i] != c.sched[i]
	}
	if !same || !differ {
		t.Errorf("schedule: same seed equal=%v, other seed differs=%v", same, differ)
	}
	for _, id := range []uint64{1, 16, 1 << 40} {
		x, y := a.pat.segs(id, largeBody)
		got := append(append([]byte(nil), x...), y...)
		if !a.pat.matches(id, got) || a.pat.matches(id+1, got) {
			t.Errorf("pattern for op %d does not verify against itself only", id)
		}
	}
}
