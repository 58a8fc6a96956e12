package telemetry

import (
	"reflect"
	"testing"
	"time"
)

// fixtureRegistry builds a small registry with one of each scalar kind.
func fixtureRegistry() (*Registry, *Counter, *Histogram, *Gauge, *CounterVec) {
	reg := NewRegistry()
	c := reg.Counter(Metric{Name: "t.requests", Layer: "t", Unit: "reqs"})
	h := reg.Histogram(Metric{Name: "t.latency_ns", Layer: "t", Unit: "ns"}, []int64{1000, 2000, 4000})
	g := reg.Gauge(Metric{Name: "t.open", Layer: "t", Unit: "conns"})
	cv := reg.CounterVec(Metric{Name: "t.worker.served", Layer: "t", Unit: "reqs"}, 3)
	return reg, c, h, g, cv
}

// TestWindowDeterministicUnderSimClock drives the sampler with explicit
// sim-clock ticks and checks every windowed read exactly — the layer has no
// wall-clock dependence when ticked manually.
func TestWindowDeterministicUnderSimClock(t *testing.T) {
	reg, c, h, g, cv := fixtureRegistry()
	win := newWindows(reg, 8)

	if _, ok := win.Window(time.Second); ok {
		t.Fatal("window answered before two ticks exist")
	}

	// t=0s: empty baseline. Then 10 requests/sec for 3 seconds, with
	// latencies filling the 0-1000 bucket, and one slow outlier at t=3s.
	win.tick(0)
	for sec := int64(1); sec <= 3; sec++ {
		for i := 0; i < 10; i++ {
			c.Inc()
			h.Observe(500)
			cv.At(int(sec) % 3).Inc()
		}
		if sec == 3 {
			h.Observe(3000) // outlier in the (2000,4000] bucket
		}
		g.Set(sec)
		win.tick(sec * int64(time.Second))
	}

	d, ok := win.Window(time.Second)
	if !ok {
		t.Fatal("1s window unavailable")
	}
	if got := d.Delta("t.requests"); got != 10 {
		t.Errorf("1s delta = %d, want 10", got)
	}
	if got := d.Rate("t.requests"); got != 10 {
		t.Errorf("1s rate = %g, want 10", got)
	}
	// The last second holds ten fast observations and the outlier.
	if frac, ok := d.FractionAtMost("t.latency_ns", 1000); !ok || frac != 10.0/11 {
		t.Errorf("1s FractionAtMost(1000) = %g (ok=%v), want 10/11", frac, ok)
	}
	if got := d.SlotDelta("t.worker.served", 0); got != 10 {
		t.Errorf("1s slot 0 delta = %d, want 10", got)
	}
	if got := d.SlotDelta("t.worker.served", 1); got != 0 {
		t.Errorf("1s slot 1 delta = %d, want 0", got)
	}

	// The 3s window spans the whole run: 30 fast + 1 slow.
	d3, ok := win.Window(3 * time.Second)
	if !ok {
		t.Fatal("3s window unavailable")
	}
	if got := d3.Delta("t.requests"); got != 30 {
		t.Errorf("3s delta = %d, want 30", got)
	}
	if got := d3.Elapsed(); got != 3*time.Second {
		t.Errorf("3s window elapsed = %v", got)
	}
	if q, ok := d3.Quantile("t.latency_ns", 0.50); !ok || q <= 0 || q > 1000 {
		t.Errorf("3s p50 = %g (ok=%v), want in (0,1000]", q, ok)
	}
	// 30/31 observations ≤ 1000: p99 lands in the outlier's bucket.
	if q, ok := d3.Quantile("t.latency_ns", 0.99); !ok || q <= 2000 || q > 4000 {
		t.Errorf("3s p99 = %g (ok=%v), want in (2000,4000]", q, ok)
	}
	if frac, ok := d3.FractionAtMost("t.latency_ns", 1000); !ok || frac < 0.96 || frac > 0.97 {
		t.Errorf("FractionAtMost(1000) = %g (ok=%v), want 30/31", frac, ok)
	}
	if frac, ok := d3.FractionAtMost("t.latency_ns", 4000); !ok || frac != 1 {
		t.Errorf("FractionAtMost(4000) = %g (ok=%v), want 1", frac, ok)
	}

	// Requesting more history than retained clamps to the oldest tick.
	dAll, ok := win.Window(time.Hour)
	if !ok || dAll.Elapsed() != 3*time.Second {
		t.Errorf("over-long window = %v (ok=%v), want clamp to 3s", dAll.Elapsed(), ok)
	}

	// A second identical run must produce identical windowed reads.
	reg2, c2, h2, g2, cv2 := fixtureRegistry()
	win2 := newWindows(reg2, 8)
	win2.tick(0)
	for sec := int64(1); sec <= 3; sec++ {
		for i := 0; i < 10; i++ {
			c2.Inc()
			h2.Observe(500)
			cv2.At(int(sec) % 3).Inc()
		}
		if sec == 3 {
			h2.Observe(3000)
		}
		g2.Set(sec)
		win2.tick(sec * int64(time.Second))
	}
	d3b, _ := win2.Window(3 * time.Second)
	if !reflect.DeepEqual(d3, d3b) {
		t.Errorf("windowed view differs across identical runs:\n%+v\nvs\n%+v", d3, d3b)
	}
}

// TestWindowRingEviction checks that the ring drops the oldest ticks and
// windows clamp to what is retained.
func TestWindowRingEviction(t *testing.T) {
	reg, c, _, _, _ := fixtureRegistry()
	win := newWindows(reg, 4)
	for sec := int64(0); sec < 10; sec++ {
		c.Inc()
		win.tick(sec * int64(time.Second))
	}
	// Retained ticks: t=6..9 → longest window is 3s with deltas 1/s.
	d, ok := win.Window(time.Hour)
	if !ok {
		t.Fatal("window unavailable")
	}
	if d.Elapsed() != 3*time.Second || d.Delta("t.requests") != 3 {
		t.Errorf("evicted window = %v/+%d, want 3s/+3", d.Elapsed(), d.Delta("t.requests"))
	}
}

// TestWindowWallClockSampler smoke-tests SLO.Run: the monitor's ring advances
// on the wall clock and closing stop ends the loop.
func TestWindowWallClockSampler(t *testing.T) {
	reg, c, _, _, _ := fixtureRegistry()
	slo, err := NewSLO(sampledSLOConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	stopCh, done := make(chan struct{}), make(chan struct{})
	go func() { defer close(done); slo.Run(stopCh) }()
	stop := func() { close(stopCh); <-done }
	deadline := time.Now().Add(2 * time.Second)
	for {
		if d, ok := slo.win.Window(time.Hour); ok && d.Delta("t.requests") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler never ticked")
		}
		c.Inc()
		time.Sleep(time.Millisecond)
	}
	stop()
	d, _ := slo.win.Window(time.Hour)
	time.Sleep(10 * time.Millisecond)
	if d2, _ := slo.win.Window(time.Hour); d2.EndNS != d.EndNS {
		t.Error("sampler kept ticking after stop")
	}
}

// sampledSLOConfig binds the monitor to fixtureRegistry's rows with windows
// short enough for a 1 ms tick (shortest 10 ms ÷ 10) and a 62-sample ring.
func sampledSLOConfig() SLOConfig {
	return SLOConfig{
		LatencyMetric:      "t.latency_ns",
		LatencyThresholdNS: 2000,
		LatencyGoal:        0.99,
		TotalMetrics:       []string{"t.requests"},
		ErrorGoal:          0.999,
		Page:               BurnRule{Burn: 10, Short: 10 * time.Millisecond, Long: 20 * time.Millisecond},
		Warn:               BurnRule{Burn: 2, Short: 20 * time.Millisecond, Long: 60 * time.Millisecond},
	}
}

// BenchmarkTelemetryHotPathSampled proves the acceptance bar: recording
// stays allocation-free while the SLO monitor's 1 ms sampler is live. CI
// greps the allocs/op column.
func BenchmarkTelemetryHotPathSampled(b *testing.B) {
	reg, c, h, g, cv := fixtureRegistry()
	slo, err := NewSLO(sampledSLOConfig(), reg)
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go slo.Run(stop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(int64(i))
		g.Set(int64(i))
		cv.At(i % 3).Inc()
	}
}
