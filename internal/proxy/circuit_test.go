package proxy

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock drives a Circuit deterministically.
type fakeClock struct{ ns int64 }

func (c *fakeClock) now() int64       { return c.ns }
func (c *fakeClock) advance(ns int64) { c.ns += ns }

func newTestCircuit(clk *fakeClock) *Circuit {
	return NewCircuit(CircuitBreakerConfig{
		Enabled:          true,
		FailureThreshold: 3,
		SuccessThreshold: 2,
		Timeout:          1000, // ns, on the fake clock
	}, clk.now)
}

// admit asks c for a request and fails the test if it is refused.
func admit(t *testing.T, c *Circuit) uint64 {
	t.Helper()
	epoch, ok := c.Allow()
	if !ok {
		t.Fatalf("circuit (%v) refused a request", c.State())
	}
	return epoch
}

// trip opens c with FailureThreshold (3) consecutive failures.
func trip(t *testing.T, c *Circuit) {
	t.Helper()
	for i := 0; i < 3; i++ {
		c.Failure(admit(t, c))
	}
}

func TestCircuitOpensAfterConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCircuit(clk)
	for i := 0; i < 2; i++ {
		c.Failure(admit(t, c))
	}
	if c.State() != CircuitClosed {
		t.Fatalf("state = %v before threshold", c.State())
	}
	c.Failure(admit(t, c)) // third consecutive failure
	if c.State() != CircuitOpen {
		t.Fatalf("state = %v after threshold failures", c.State())
	}
	if _, ok := c.Allow(); ok {
		t.Error("open circuit admitted a request before timeout")
	}
}

// A success while closed resets the consecutive-failure streak.
func TestCircuitSuccessResetsStreak(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCircuit(clk)
	c.Failure(admit(t, c))
	c.Failure(admit(t, c))
	c.Success(admit(t, c))
	c.Failure(admit(t, c))
	c.Failure(admit(t, c))
	if c.State() != CircuitClosed {
		t.Fatalf("state = %v; streak should have reset", c.State())
	}
}

func TestCircuitHalfOpenProbing(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCircuit(clk)
	trip(t, c)
	clk.advance(1000) // past Timeout
	if c.State() != CircuitHalfOpen {
		t.Fatalf("state = %v after timeout, want half-open", c.State())
	}
	// Trials are bounded by SuccessThreshold (2): third concurrent ask refused.
	t1, t2 := admit(t, c), admit(t, c)
	if _, ok := c.Allow(); ok {
		t.Error("half-open circuit exceeded its trial bound")
	}
	c.Success(t1)
	c.Success(t2)
	if c.State() != CircuitClosed {
		t.Fatalf("state = %v after %d trial successes", c.State(), 2)
	}

	snap := c.Snapshot()
	if snap.Opens != 1 || snap.HalfOpens != 1 || snap.Closes != 1 {
		t.Errorf("transition counts = %+v", snap)
	}
}

func TestCircuitHalfOpenFailureReopens(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCircuit(clk)
	trip(t, c)
	clk.advance(1000)
	c.Failure(admit(t, c))
	if c.State() != CircuitOpen {
		t.Fatalf("state = %v after trial failure, want open", c.State())
	}
	// The reopen restarts the timeout clock.
	clk.advance(500)
	if _, ok := c.Allow(); ok {
		t.Error("reopened circuit admitted before a fresh timeout")
	}
	clk.advance(500)
	if _, ok := c.Allow(); !ok {
		t.Error("reopened circuit refused after a fresh timeout")
	}
}

// A request admitted while closed that finishes during half-open is not a
// trial: it frees no trial slot and its success does not count toward
// closing the circuit.
func TestCircuitStaleOutcomeIsNoTrial(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCircuit(clk)
	a := admit(t, c) // admitted while closed
	trip(t, c)
	clk.advance(1000)
	t1 := admit(t, c)
	c.Success(a)
	t2 := admit(t, c)
	if _, ok := c.Allow(); ok {
		t.Fatal("a third trial was admitted against a bound of 2")
	}
	c.Success(t1)
	if c.State() != CircuitHalfOpen {
		t.Fatalf("state = %v after one trial success, want half-open", c.State())
	}
	c.Success(t2)
	if c.State() != CircuitClosed {
		t.Fatalf("state = %v after two trial successes, want closed", c.State())
	}
	// Nor does a stale failure count against the closed circuit.
	c.Failure(a)
	if c.State() != CircuitClosed || c.Snapshot().Fails != 0 {
		t.Errorf("stale failure counted: %+v", c.Snapshot())
	}
}

func TestCircuitTransitionCallback(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCircuit(clk)
	var seen []CircuitState
	c.onTransition = func(to CircuitState) { seen = append(seen, to) }
	trip(t, c)
	clk.advance(1000)
	c.Success(admit(t, c))
	c.Success(admit(t, c))
	want := []CircuitState{CircuitOpen, CircuitHalfOpen, CircuitClosed}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", seen, want)
		}
	}
}

// Workers share one breaker: with every admitted request finished, a
// half-open breaker holds no trial, and every transition was counted, fired
// its callback and moved the epoch once.
func TestCircuitConcurrentTrialsBalance(t *testing.T) {
	c := NewCircuit(CircuitBreakerConfig{
		Enabled: true, FailureThreshold: 3, SuccessThreshold: 2, Timeout: 20 * time.Microsecond,
	}, func() int64 { return time.Now().UnixNano() })
	var transitions atomic.Uint64
	c.onTransition = func(CircuitState) { transitions.Add(1) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if epoch, ok := c.Allow(); ok {
					if (i+g)%3 == 0 {
						c.Failure(epoch)
					} else {
						c.Success(epoch)
					}
				}
			}
		}()
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == CircuitHalfOpen && c.inflight != 0 {
		t.Errorf("half-open with %d trials in flight and no request outstanding", c.inflight)
	}
	if n := c.entered[0] + c.entered[1] + c.entered[2]; n != transitions.Load() || n != c.epoch {
		t.Errorf("transitions: entered %v, callback %d, epoch %d", c.entered, transitions.Load(), c.epoch)
	}
}

// circuitModel is FuzzCircuit's reference breaker: the states, thresholds
// and timeout of a Circuit, with each request tagged by the period (the
// transitions so far) it was admitted in, so that only a request admitted in
// the current period counts.
type circuitModel struct {
	state       CircuitState
	period      int
	fails, succ int
	openedAt    int64
	entered     [3]uint64
}

func (m *circuitModel) to(s CircuitState, now int64) {
	m.state, m.fails, m.succ = s, 0, 0
	m.period++
	m.entered[s]++
	if s == CircuitOpen {
		m.openedAt = now
	}
}

// FuzzCircuit runs random programs of Allow / Success / Failure / advance
// against a breaker (failure threshold 3, success threshold 2, timeout 1000
// ns), every admitted request paired with exactly one outcome, and checks it
// against circuitModel after every step. The half-open trial slots are a
// pool: inflight must equal the outstanding trials and stay within
// 0..SuccessThreshold. A half-open circuit closes only after
// SuccessThreshold trial successes, and a trial failure reopens it with a
// fresh timeout.
//
// Each program byte is one step: op = b%4 (0 Allow, 1 Success, 2 Failure,
// 3 advance) and arg = b/4, which picks the outstanding request to finish or
// the time to advance (arg × 50 ns). The seed corpus under
// testdata/fuzz/FuzzCircuit holds TestCircuitStaleOutcomeIsNoTrial's
// sequence and a trial failure that reopens the circuit.
func FuzzCircuit(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		const failN, succN, timeout = 3, 2, 1000
		clk := &fakeClock{}
		c := newTestCircuit(clk)
		var m circuitModel
		type req struct {
			period int
			epoch  uint64
		}
		var out []req
		trials := func() (n int) {
			for _, r := range out {
				if m.state == CircuitHalfOpen && r.period == m.period {
					n++
				}
			}
			return n
		}
		for step, b := range prog {
			op, arg := b%4, int(b/4)
			switch {
			case op == 0:
				if m.state == CircuitOpen && clk.ns-m.openedAt >= timeout {
					m.to(CircuitHalfOpen, clk.ns)
				}
				want := m.state == CircuitClosed || m.state == CircuitHalfOpen && trials() < succN
				epoch, ok := c.Allow()
				if ok != want {
					t.Fatalf("step %d: Allow = %v in %v with %d trials out, want %v", step, ok, m.state, trials(), want)
				}
				if ok {
					out = append(out, req{m.period, epoch})
				}
			case op == 3:
				clk.advance(int64(arg) * 50)
			case len(out) > 0:
				i := arg % len(out)
				r := out[i]
				out = append(out[:i], out[i+1:]...)
				live := r.period == m.period
				if op == 1 {
					c.Success(r.epoch)
					switch {
					case !live:
					case m.state == CircuitClosed:
						m.fails = 0
					case m.state == CircuitHalfOpen:
						if m.succ++; m.succ >= succN {
							m.to(CircuitClosed, clk.ns)
						}
					}
				} else {
					c.Failure(r.epoch)
					switch {
					case !live:
					case m.state == CircuitClosed:
						if m.fails++; m.fails >= failN {
							m.to(CircuitOpen, clk.ns)
						}
					case m.state == CircuitHalfOpen:
						m.to(CircuitOpen, clk.ns)
					}
				}
			}

			want := m.state
			if want == CircuitOpen && clk.ns-m.openedAt >= timeout {
				want = CircuitHalfOpen
			}
			snap := c.Snapshot()
			if got := c.State(); got != want || snap.State != want.String() {
				t.Fatalf("step %d: state %v (snapshot %s), model %v", step, got, snap.State, want)
			}
			if snap.Opens != m.entered[CircuitOpen] || snap.HalfOpens != m.entered[CircuitHalfOpen] ||
				snap.Closes != m.entered[CircuitClosed] {
				t.Fatalf("step %d: transitions %+v, model %v", step, snap, m.entered)
			}
			if m.state == CircuitClosed && snap.Fails != m.fails {
				t.Fatalf("step %d: consecutive fails %d, model %d", step, snap.Fails, m.fails)
			}
			c.mu.Lock()
			inflight := c.inflight
			c.mu.Unlock()
			if m.state == CircuitHalfOpen && (inflight != trials() || inflight < 0 || inflight > succN) {
				t.Fatalf("step %d: inflight %d, outstanding trials %d (bound %d)", step, inflight, trials(), succN)
			}
		}
	})
}
