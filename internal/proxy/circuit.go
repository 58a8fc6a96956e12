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
	fails      int   // consecutive failures while closed
	successes  int   // consecutive trial successes while half-open
	inflight   int   // admitted trial requests while half-open
	openedAtNS int64 // when the circuit last opened

	// Transitions into each state: entered counts this breaker's (its
	// /backends row), rows the whole pool's (proxy.circuit.closes, .opens,
	// .half_opens; nil handles count nothing).
	entered [3]uint64
	rows    [3]*telemetry.Counter

	// onTransition, when set, observes every state change (trace wiring).
	// Called outside the lock.
	onTransition func(from, to CircuitState)
}

// NewCircuit creates a breaker; now supplies nanosecond timestamps.
func NewCircuit(cfg CircuitBreakerConfig, now func() int64) *Circuit {
	return &Circuit{cfg: cfg, now: now}
}

// transition must be called with mu held; it returns the callback to invoke
// after unlocking.
func (c *Circuit) transition(to CircuitState) func() {
	from := c.state
	if from == to {
		return nil
	}
	c.state = to
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
	if cb := c.onTransition; cb != nil {
		return func() { cb(from, to) }
	}
	return nil
}

// Allow reports whether a request may proceed, admitting it as a half-open
// trial when the breaker is probing. Every Allow()=true must be paired with
// exactly one Success or Failure.
func (c *Circuit) Allow() bool {
	c.mu.Lock()
	var fire func()
	switch c.state {
	case CircuitOpen:
		if c.now()-c.openedAtNS < int64(c.cfg.Timeout) {
			c.mu.Unlock()
			return false
		}
		fire = c.transition(CircuitHalfOpen)
		fallthrough
	case CircuitHalfOpen:
		// Bound concurrent trials by the success threshold: enough probes to
		// close the circuit, never a thundering herd onto a sick backend.
		if c.inflight >= c.cfg.SuccessThreshold {
			c.mu.Unlock()
			if fire != nil {
				fire()
			}
			return false
		}
		c.inflight++
	}
	c.mu.Unlock()
	if fire != nil {
		fire()
	}
	return true
}

// Success records a request that completed against the backend.
func (c *Circuit) Success() {
	c.mu.Lock()
	var fire func()
	switch c.state {
	case CircuitClosed:
		c.fails = 0
	case CircuitHalfOpen:
		c.inflight--
		c.successes++
		if c.successes >= c.cfg.SuccessThreshold {
			fire = c.transition(CircuitClosed)
		}
	}
	c.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// Failure records a request that failed against the backend.
func (c *Circuit) Failure() {
	c.mu.Lock()
	var fire func()
	switch c.state {
	case CircuitClosed:
		c.fails++
		if c.fails >= c.cfg.FailureThreshold {
			fire = c.transition(CircuitOpen)
		}
	case CircuitHalfOpen:
		c.inflight--
		fire = c.transition(CircuitOpen)
	}
	c.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// State returns the current position, applying the open→half-open timeout
// lazily so observers see "half-open" once the probe window has arrived even
// before the next request does.
func (c *Circuit) State() CircuitState {
	c.mu.Lock()
	s := c.state
	if s == CircuitOpen && c.now()-c.openedAtNS >= int64(c.cfg.Timeout) {
		s = CircuitHalfOpen
	}
	c.mu.Unlock()
	return s
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
	state := c.state
	if state == CircuitOpen && c.now()-c.openedAtNS >= int64(c.cfg.Timeout) {
		state = CircuitHalfOpen
	}
	v := CircuitView{
		State: state.String(), Fails: c.fails,
		Opens: c.entered[CircuitOpen], HalfOpens: c.entered[CircuitHalfOpen], Closes: c.entered[CircuitClosed],
	}
	if c.state != CircuitClosed {
		v.OpenForMS = float64(c.now()-c.openedAtNS) / 1e6
	}
	return v
}
