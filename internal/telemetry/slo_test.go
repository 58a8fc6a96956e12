package telemetry

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// sloFixture wires a registry + monitor with tight fake-clock windows: page
// at 10x over 2s+4s, warn at 2x over 4s+8s.
func sloFixture(t *testing.T) (*Registry, *Counter, *Counter, *Histogram, *SLO) {
	t.Helper()
	reg := NewRegistry()
	total := reg.Counter(Metric{Name: "t.requests", Layer: "t", Unit: "reqs"})
	bad := reg.Counter(Metric{Name: "t.errors", Layer: "t", Unit: "errors"})
	lat := reg.Histogram(Metric{Name: "t.latency_ns", Layer: "t", Unit: "ns"}, DurationBuckets())
	cfg := SLOConfig{
		LatencyMetric:      "t.latency_ns",
		LatencyThresholdNS: int64(50 * time.Millisecond),
		LatencyGoal:        0.99,
		TotalMetrics:       []string{"t.requests"},
		BadMetrics:         []string{"t.errors"},
		ErrorGoal:          0.999,
		Page:               BurnRule{Burn: 10, Short: 2 * time.Second, Long: 4 * time.Second},
		Warn:               BurnRule{Burn: 2, Short: 4 * time.Second, Long: 8 * time.Second},
	}
	slo, err := NewSLO(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, total, bad, lat, slo
}

// TestSLOBurnStateTransitions walks the monitor through ok → page → warn →
// ok under a fake clock: a hard error burst pages, the recovery tail keeps
// the longer warn windows burning, and full recovery returns to ok.
func TestSLOBurnStateTransitions(t *testing.T) {
	reg, total, bad, lat, slo := sloFixture(t)

	now := int64(0)
	tick := func(requests, errors int) {
		for i := 0; i < requests; i++ {
			total.Inc()
			lat.Observe(int64(time.Millisecond))
		}
		for i := 0; i < errors; i++ {
			bad.Inc()
		}
		now += int64(time.Second)
		slo.Tick(now)
	}

	// Clean traffic: 100 req/s, no errors → ok.
	for i := 0; i < 6; i++ {
		tick(100, 0)
	}
	if got := slo.State(); got != SLOOK {
		t.Fatalf("clean traffic state = %v, want ok", got)
	}
	if g := reg.Snapshot().Get("slo.state"); g == nil || g.Value != 0 {
		t.Fatalf("slo.state gauge = %+v, want 0", g)
	}

	// Error budget is 0.1%: a 10% error ratio burns at 100x — page fires
	// once both page windows (2s+4s) see it.
	for i := 0; i < 4; i++ {
		tick(100, 10)
	}
	if got := slo.State(); got != SLOPage {
		t.Fatalf("error burst state = %v, want page (status %+v)", got, slo.Status())
	}
	st := slo.Status()
	if st.Errors.PageShort < 10 || st.Errors.PageLong < 10 {
		t.Errorf("page burns = %+v, want ≥ 10 on both windows", st.Errors)
	}
	if g := reg.Snapshot().Get("slo.state"); g == nil || g.Value != 2 {
		t.Fatalf("slo.state gauge = %+v, want 2", g)
	}

	// The hard burst ends but a low-grade 0.5% error tail remains: burn 5x
	// clears the 10x page rule yet keeps both warn windows above 2x.
	for i := 0; i < 4; i++ {
		tick(200, 1)
	}
	if got := slo.State(); got != SLOWarn {
		t.Fatalf("recovery tail state = %v, want warn (status %+v)", got, slo.Status())
	}

	// Clean long enough for every window → ok, with transitions counted.
	for i := 0; i < 10; i++ {
		tick(100, 0)
	}
	if got := slo.State(); got != SLOOK {
		t.Fatalf("recovered state = %v, want ok (status %+v)", got, slo.Status())
	}
	if c := reg.Snapshot().Get("slo.transitions"); c == nil || c.Value != 3 {
		t.Errorf("slo.transitions = %+v, want 3 (ok→page→warn→ok)", c)
	}
}

// TestSLOLatencyBurn pages on slow-but-successful traffic: the latency SLI
// burns even with a zero error rate.
func TestSLOLatencyBurn(t *testing.T) {
	_, total, _, lat, slo := sloFixture(t)
	now := int64(0)
	tick := func(slowShare float64) {
		for i := 0; i < 100; i++ {
			total.Inc()
			if float64(i) < slowShare*100 {
				lat.Observe(int64(400 * time.Millisecond)) // over the 50ms objective
			} else {
				lat.Observe(int64(time.Millisecond))
			}
		}
		now += int64(time.Second)
		slo.Tick(now)
	}
	for i := 0; i < 6; i++ {
		tick(0)
	}
	if got := slo.State(); got != SLOOK {
		t.Fatalf("fast traffic state = %v, want ok", got)
	}
	// 20% slow with a 1% budget burns at ~20x → page.
	for i := 0; i < 4; i++ {
		tick(0.20)
	}
	if got := slo.State(); got != SLOPage {
		t.Fatalf("slow traffic state = %v, want page (status %+v)", got, slo.Status())
	}
	st := slo.Status()
	if st.WindowP99MS == nil || *st.WindowP99MS <= 50 {
		t.Errorf("windowed p99 = %v, want > 50ms", st.WindowP99MS)
	}
	if st.WindowReqPerSec <= 0 {
		t.Errorf("windowed rate = %g, want > 0", st.WindowReqPerSec)
	}
}

// TestSLONoTrafficBurnsNothing: an idle proxy must not page (no requests →
// zero burn, not division blowups).
func TestSLONoTrafficBurnsNothing(t *testing.T) {
	_, _, _, _, slo := sloFixture(t)
	for i := int64(1); i <= 10; i++ {
		slo.Tick(i * int64(time.Second))
	}
	if got := slo.State(); got != SLOOK {
		t.Fatalf("idle state = %v, want ok", got)
	}
}

// TestParseSLOSpec covers the config grammar round trip and its errors.
func TestParseSLOSpec(t *testing.T) {
	base := DefaultSLOConfig()
	base.LatencyMetric = "t.latency_ns"
	base.TotalMetrics = []string{"t.requests"}

	c, err := ParseSLOSpec("latency<=50ms@99%;errors@99.9%;page=14.4x/10s+1m;warn=3x/1m+5m", base)
	if err != nil {
		t.Fatal(err)
	}
	if c.LatencyThresholdNS != int64(50*time.Millisecond) || c.LatencyGoal != 0.99 {
		t.Errorf("latency objective = %d@%g", c.LatencyThresholdNS, c.LatencyGoal)
	}
	if math.Abs(c.ErrorGoal-0.999) > 1e-9 {
		t.Errorf("error goal = %g", c.ErrorGoal)
	}
	if c.Page.Burn != 14.4 || c.Page.Short != 10*time.Second || c.Page.Long != time.Minute {
		t.Errorf("page rule = %+v", c.Page)
	}
	if c.Warn.Burn != 3 || c.Warn.Long != 5*time.Minute {
		t.Errorf("warn rule = %+v", c.Warn)
	}

	// Empty spec keeps the base untouched.
	if c2, err := ParseSLOSpec("", base); err != nil || c2.LatencyGoal != base.LatencyGoal {
		t.Errorf("empty spec: %+v, %v", c2, err)
	}

	for _, bad := range []string{
		"latency<=50ms",        // missing @PCT
		"latency<=nope@99%",    // bad duration
		"errors@200%",          // out of range
		"page=10x",             // missing windows
		"page=10x/1m+10s",      // long < short
		"warn=0x/1m+5m",        // zero burn
		"throughput>=100",      // unknown clause
		"latency<=50ms@99%%%%", // garbage pct
		"page=Infx/10s+1m",     // an infinite burn never fires
		"page=1e400x/10s+1m",   // overflows to +Inf
	} {
		if _, err := ParseSLOSpec(bad, base); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
}

// TestSLORingFromWindows pins the derived sampler: max(shortest ÷ 10,
// longest ÷ 600, minTick) per tick and ⌈longest ÷ tick⌉ + 2 samples; windows
// whose tick would exceed the shortest one are rejected.
func TestSLORingFromWindows(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		tick  time.Duration
		depth int
	}{
		{"", time.Second, 302}, // the defaults: 10s+1m page, 1m+5m warn
		{"page=10x/2s+4s;warn=2x/4s+8s", 200 * time.Millisecond, 42},
		{"page=10x/10s+1h;warn=2x/1m+100m", 10 * time.Second, 602}, // longest = 600 × shortest, the widest accepted
		{"page=10x/7s+7s;warn=2x/7s+7s", 700 * time.Millisecond, 12},
		{"page=10x/1ms+1ms;warn=2x/1ms+1ms", minTick, 3},
	} {
		c, err := ParseSLOSpec(tc.spec, DefaultSLOConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSLO(c, NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if s.tick != tc.tick || len(s.win.ring) != tc.depth {
			t.Errorf("spec %q: tick %v depth %d, want %v and %d", tc.spec, s.tick, len(s.win.ring), tc.tick, tc.depth)
		}
	}
	// A 36 s tick for a 10 s window, a 1 ms tick for a 1 ns one: each window
	// would be read over the whole tick, so neither spec is accepted.
	for _, spec := range []string{"page=10x/10s+1h;warn=2x/1m+6h", "page=10x/1ns+1ns;warn=2x/1ns+1ns"} {
		if _, err := ParseSLOSpec(spec, DefaultSLOConfig()); err == nil {
			t.Errorf("spec %q: windows the sampler cannot resolve were accepted", spec)
		}
	}
}

// FuzzParseSLOSpec throws arbitrary specs at the -slo / slo.objectives
// grammar: it must never panic, what it accepts must validate, and parsing an
// accepted spec again over its own result must change nothing. The seed
// corpus under testdata/fuzz/FuzzParseSLOSpec holds TestParseSLOSpec's cases.
func FuzzParseSLOSpec(f *testing.F) {
	base := DefaultSLOConfig()
	base.LatencyMetric = "t.latency_ns"
	base.TotalMetrics = []string{"t.requests"}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSLOSpec(spec, base)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted %q but the result fails Validate: %v", spec, err)
		}
		again, err := ParseSLOSpec(spec, c)
		if err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("re-parsing %q over its own result: %+v, %v; want %+v", spec, again, err, c)
		}
	})
}
