package proxy

import (
	"fmt"
	"testing"

	"hermes/internal/telemetry"
)

func testPoolConfig(policy string, weights ...int) Config {
	c := DefaultConfig()
	c.Policy = policy
	c.HealthCheck.Enabled = false
	c.Backends = nil
	for i, w := range weights {
		c.Backends = append(c.Backends, BackendConfig{
			Address: backendAddr(i), Weight: w,
		})
	}
	return c
}

// testPool builds a pool counting on a private registry's rows.
func testPool(cfg Config, now func() int64) *Pool {
	tel := newInstruments(telemetry.NewRegistry(), nil, 1, len(cfg.Backends))
	return newPool(cfg, now, &tel)
}

func backendAddr(i int) string {
	return fmt.Sprintf("127.0.0.1:%d", 9001+i) // unique, never dialed
}

func countPicks(p *Pool, n int) map[int]int {
	got := make(map[int]int)
	for i := 0; i < n; i++ {
		b, _ := p.Pick(0)
		if b == nil {
			break
		}
		got[b.idx]++
	}
	return got
}

func TestPoolRoundRobinCycles(t *testing.T) {
	p := testPool(testPoolConfig(PolicyRoundRobin, 1, 1, 1), func() int64 { return 0 })
	got := countPicks(p, 9)
	for i := 0; i < 3; i++ {
		if got[i] != 3 {
			t.Errorf("backend %d picked %d times, want 3 (%v)", i, got[i], got)
		}
	}
}

// Smooth weighted round-robin distributes picks proportionally to weight.
func TestPoolWeightedDistribution(t *testing.T) {
	p := testPool(testPoolConfig(PolicyWeighted, 5, 2, 1), func() int64 { return 0 })
	got := countPicks(p, 80)
	if got[0] != 50 || got[1] != 20 || got[2] != 10 {
		t.Errorf("weighted picks = %v, want 50/20/10", got)
	}
}

func TestPoolLeastConnPrefersIdle(t *testing.T) {
	p := testPool(testPoolConfig(PolicyLeastConn, 1, 1), func() int64 { return 0 })
	p.backends[0].active.Set(5)
	for i := 0; i < 4; i++ {
		if b, _ := p.Pick(0); b.idx != 1 {
			t.Fatalf("pick %d chose loaded backend %d", i, b.idx)
		}
	}
	// Weight scales the score: 10 in-flight at weight 10 beats 2 at weight 1.
	p = testPool(testPoolConfig(PolicyLeastConn, 10, 1), func() int64 { return 0 })
	p.backends[0].active.Set(10)
	p.backends[1].active.Set(2)
	if b, _ := p.Pick(0); b.idx != 0 {
		t.Errorf("least-conn ignored weight: picked %d", b.idx)
	}
}

func TestPoolSkipsTriedAndUnhealthy(t *testing.T) {
	for _, policy := range []string{PolicyRoundRobin, PolicyWeighted, PolicyLeastConn} {
		p := testPool(testPoolConfig(policy, 1, 1, 1), func() int64 { return 0 })
		p.setHealthy(p.backends[1], false)
		for i := 0; i < 6; i++ {
			b, epoch := p.Pick(1 << 0) // exclude 0 as already-tried
			if b == nil || b.idx != 2 {
				t.Fatalf("%s: pick = %v, want backend 2 (0 tried, 1 unhealthy)", policy, b)
			}
			p.Observe(b, epoch, true)
		}
		if b, _ := p.Pick(1<<0 | 1<<2); b != nil {
			t.Errorf("%s: picked %d with everything excluded", policy, b.idx)
		}
	}
}

// failOn records n failed requests against b, each admitted by its breaker.
func failOn(p *Pool, b *Backend, n int) {
	for i := 0; i < n; i++ {
		epoch, _ := b.circuit.Allow()
		p.Observe(b, epoch, false)
	}
}

// An open circuit rejects picks (counted) and traffic flows to the others; a
// dead pool returns nil.
func TestPoolCircuitGatesPick(t *testing.T) {
	cfg := testPoolConfig(PolicyRoundRobin, 1, 1)
	clk := &fakeClock{}
	p := testPool(cfg, clk.now)
	// Trip backend 0's breaker.
	b0 := p.backends[0]
	failOn(p, b0, cfg.CircuitBreaker.FailureThreshold)
	if b0.circuit.State() != CircuitOpen {
		t.Fatalf("circuit = %v after %d failures", b0.circuit.State(), cfg.CircuitBreaker.FailureThreshold)
	}
	for i := 0; i < 4; i++ {
		if b, _ := p.Pick(0); b == nil || b.idx != 1 {
			t.Fatalf("pick = %v, want backend 1 while 0's circuit is open", b)
		}
	}
	if p.AvailableCount() != 1 {
		t.Errorf("AvailableCount = %d, want 1", p.AvailableCount())
	}
	// Past the timeout the breaker admits trials again.
	clk.advance(int64(cfg.CircuitBreaker.Timeout))
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		if b, epoch := p.Pick(0); b != nil {
			seen[b.idx] = true
			p.Observe(b, epoch, true)
		}
	}
	if !seen[0] {
		t.Error("half-open backend 0 never got a trial pick")
	}
	if b0.circuit.State() != CircuitClosed {
		t.Errorf("circuit = %v after successful trials", b0.circuit.State())
	}
	// Both breakers open: nothing is pickable.
	failOn(p, b0, cfg.CircuitBreaker.FailureThreshold)
	failOn(p, p.backends[1], cfg.CircuitBreaker.FailureThreshold)
	if b, _ := p.Pick(0); b != nil {
		t.Errorf("picked %d with every circuit open", b.idx)
	}
}

// The breaker is the passive health check: consecutive failed requests evict
// a backend, and with no prober its half-open trials readmit it. The prober's
// verdict never moves.
func TestPoolPassiveHealth(t *testing.T) {
	cfg := testPoolConfig(PolicyRoundRobin, 1, 1)
	clk := &fakeClock{}
	p := testPool(cfg, clk.now)
	b0 := p.backends[0]
	failOn(p, b0, 3) // the default failure_threshold
	for i := 0; i < 4; i++ {
		if b, _ := p.Pick(0); b == nil || b.idx != 1 {
			t.Fatalf("pick = %v, want backend 1 while 0 is evicted", b)
		}
	}
	if n := p.AvailableCount(); n != 1 {
		t.Errorf("AvailableCount = %d, want 1", n)
	}
	// After the timeout a trial readmits backend 0, with no prober running.
	clk.advance(int64(cfg.CircuitBreaker.Timeout))
	trials := 0
	for i := 0; i < 4 && b0.circuit.State() != CircuitClosed; i++ {
		if b, epoch := p.Pick(0); b == b0 {
			trials++
			p.Observe(b, epoch, true)
		}
	}
	if b0.circuit.State() != CircuitClosed || trials != cfg.CircuitBreaker.SuccessThreshold {
		t.Fatalf("circuit = %v after %d trial successes, want closed after %d",
			b0.circuit.State(), trials, cfg.CircuitBreaker.SuccessThreshold)
	}
	if n := p.AvailableCount(); n != 2 {
		t.Errorf("AvailableCount = %d after readmission, want 2", n)
	}
	if !b0.Healthy() {
		t.Error("the breaker moved the prober's verdict")
	}
	if n := p.tel.HealthTransitions.Load(); n != 0 {
		t.Errorf("proxy.health.transitions = %d, want 0 (no prober ran)", n)
	}
}

// A prober verdict flip is counted and stamped with the pool clock.
func TestPoolSetHealthyStamps(t *testing.T) {
	p := testPool(testPoolConfig(PolicyRoundRobin, 1), func() int64 { return 42 })
	b0 := p.backends[0]
	p.setHealthy(b0, false)
	p.setHealthy(b0, false) // no flip: not counted
	p.setHealthy(b0, true)
	if n := p.tel.HealthTransitions.Load(); n != 2 {
		t.Errorf("proxy.health.transitions = %d, want 2 (down, up)", n)
	}
	if b0.lastChangeNS.Load() != 42 {
		t.Errorf("last change stamped %d, want the pool clock's 42", b0.lastChangeNS.Load())
	}
}
