package proxy

import (
	"sync"

	"hermes/internal/telemetry"
)

// CircuitState is one breaker's position.
type CircuitState int32

// Circuit states. The int values are the wire codes exported in
// backend_state trace spans and the admin API.
const (
	// CircuitClosed: requests flow; consecutive failures are counted.
	CircuitClosed CircuitState = iota
	// CircuitOpen: requests are rejected until Timeout elapses.
	CircuitOpen
	// CircuitHalfOpen: a bounded number of trial requests probe the backend;
	// enough successes close the circuit, any failure reopens it.
	CircuitHalfOpen
)

func (s CircuitState) String() string {
	switch s {
	case CircuitClosed:
		return "closed"
	case CircuitOpen:
		return "open"
	case CircuitHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Circuit is one backend's breaker. All transitions run under a mutex — the
// breaker is consulted per proxied request, not per packet, so contention is
// negligible and the state machine stays readable.
type Circuit struct {
	cfg CircuitBreakerConfig
	now func() int64 // nanosecond clock, injectable for tests

	mu         sync.Mutex
	state      CircuitState
	epoch      uint64 // transitions so far: names the state a request was admitted in
	fails      int    // consecutive failures while closed
	successes  int    // trial successes while half-open
	inflight   int    // outstanding trials while half-open
	openedAtNS int64  // when the circuit last opened

	// Transitions into each state: entered counts this breaker's (its
	// /backends row), rows the whole pool's (proxy.circuit.closes, .opens,
	// .half_opens; nil handles count nothing).
	entered [3]uint64
	rows    [3]*telemetry.Counter

	// onTransition, when set, observes every state change (trace wiring).
	// It runs under mu, so it must not call back into the breaker.
	onTransition func(to CircuitState)
}

// NewCircuit creates a breaker; now supplies nanosecond timestamps.
func NewCircuit(cfg CircuitBreakerConfig, now func() int64) *Circuit {
	return &Circuit{cfg: cfg, now: now}
}

// transition must be called with mu held.
func (c *Circuit) transition(to CircuitState) {
	if c.state == to {
		return
	}
	c.state = to
	c.epoch++
	c.entered[to]++
	c.rows[to].Inc()
	switch to {
	case CircuitOpen:
		c.openedAtNS = c.now()
	case CircuitHalfOpen:
		c.successes = 0
		c.inflight = 0
	case CircuitClosed:
		c.fails = 0
	}
	if c.onTransition != nil {
		c.onTransition(to)
	}
}

// current is the position with the open → half-open timeout applied, so
// observers see "half-open" once the trial window has arrived even before the
// next request does. Must be called with mu held.
func (c *Circuit) current() CircuitState {
	if c.state == CircuitOpen && c.now()-c.openedAtNS >= int64(c.cfg.Timeout) {
		return CircuitHalfOpen
	}
	return c.state
}

// Allow reports whether a request may proceed, admitting it as a half-open
// trial when the breaker is probing. Every Allow that returns ok must be
// paired with exactly one Success or Failure carrying the returned epoch: an
// outcome counts only in the state it was admitted in, so a request admitted
// while closed that ends during half-open is neither a trial nor a verdict.
func (c *Circuit) Allow() (epoch uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.current() {
	case CircuitOpen:
		return 0, false
	case CircuitHalfOpen:
		c.transition(CircuitHalfOpen)
		// Bound concurrent trials by the success threshold: enough probes to
		// close the circuit, never a thundering herd onto a sick backend.
		if c.inflight >= c.cfg.SuccessThreshold {
			return 0, false
		}
		c.inflight++
	}
	return c.epoch, true
}

// Success records a request admitted at epoch that completed against the
// backend.
func (c *Circuit) Success(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return
	}
	switch c.state {
	case CircuitClosed:
		c.fails = 0
	case CircuitHalfOpen:
		c.inflight--
		if c.successes++; c.successes >= c.cfg.SuccessThreshold {
			c.transition(CircuitClosed)
		}
	}
}

// Failure records a request admitted at epoch that failed against the
// backend.
func (c *Circuit) Failure(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return
	}
	switch c.state {
	case CircuitClosed:
		if c.fails++; c.fails >= c.cfg.FailureThreshold {
			c.transition(CircuitOpen)
		}
	case CircuitHalfOpen:
		c.transition(CircuitOpen)
	}
}

// State returns the current position (see current).
func (c *Circuit) State() CircuitState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current()
}

// CircuitView is one breaker as the admin API shows it, inside its backend's
// /backends row.
type CircuitView struct {
	State     string `json:"state"`
	Fails     int    `json:"consecutive_fails"`
	Opens     uint64 `json:"opens"`
	HalfOpens uint64 `json:"half_opens"`
	Closes    uint64 `json:"closes"`
	// OpenForMS is how long the circuit has been away from closed.
	OpenForMS float64 `json:"open_for_ms,omitempty"`
}

// Snapshot captures the breaker for the admin API.
func (c *Circuit) Snapshot() CircuitView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := CircuitView{
		State: c.current().String(), Fails: c.fails,
		Opens: c.entered[CircuitOpen], HalfOpens: c.entered[CircuitHalfOpen], Closes: c.entered[CircuitClosed],
	}
	if c.state != CircuitClosed {
		v.OpenForMS = float64(c.now()-c.openedAtNS) / 1e6
	}
	return v
}
