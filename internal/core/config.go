// Package core implements Hermes, the paper's contribution: a
// userspace-directed I/O event notification framework built as a closed
// control loop across three stages (§4.1):
//
//  1. each worker publishes {event-loop entry timestamp, pending events,
//     accumulated connections} to a lock-free shared Worker Status Table
//     (internal/shm);
//  2. a scheduler embedded in every worker runs the cascading filter of
//     Algorithm 1 at the end of each epoll event loop and synchronizes the
//     surviving worker set — a 64-bit bitmap — to the kernel through an
//     eBPF array map;
//  3. a dispatch program attached at the SO_ATTACH_REUSEPORT_EBPF hook
//     (Algorithm 2, emitted to simulated eBPF bytecode by this package)
//     picks the final worker per incoming connection by scaled hashing over
//     the bitmap, falling back to plain reuseport hashing when too few
//     workers pass the coarse filter.
//
// The policy all three stages follow is one immutable Config value: a
// Controller swaps it whole (SetConfig, or PUT /policy through
// PolicyHandler), and every scheduling pass loads it once, so no pass ever
// sees half of one policy and half of another.
package core

import (
	"fmt"
	"time"
)

// Config is Hermes's policy: the tuning knobs, the filter cascade and the
// reuseport-fallback override, swapped as one value (Controller.SetConfig).
type Config struct {
	// HangThreshold is how long a worker may go without re-entering its
	// event loop before the time filter marks it unavailable (Algorithm 1,
	// FilterTime). The paper's workers time out epoll_wait at 5 ms, so a
	// healthy worker republishes its timestamp at least that often.
	HangThreshold time.Duration

	// ThetaFrac is θ/Avg: the filter-baseline offset of Algorithm 1's
	// FilterCount expressed as a fraction of the current average. Fig. 15
	// finds θ/Avg = 0.5 optimal. Workers with metric < Avg·(1+ThetaFrac)
	// pass, and unloaded ones (metric ≤ 0) always do; the comparison is
	// strict, as in the paper, so at θ = 0 a uniformly loaded fleet selects
	// nobody and dispatch falls back to reuseport hashing (filterCount).
	ThetaFrac float64

	// MinWorkers is the kernel-side minimum number of coarse-filtered
	// workers required before the dispatch program acts; below it, dispatch
	// falls back to reuseport hashing (Algorithm 2 line 4: "if n > 1").
	MinWorkers int

	// EpollTimeout is the epoll_wait timeout, bounding how stale a blocked
	// worker's published status can get (§5.3.2: 5 ms in production).
	EpollTimeout time.Duration

	// Order is Algorithm 1's cascade order. The zero value is the paper's
	// (OrderTimeConnEvent); the others exist for the ablations.
	Order FilterOrder

	// ForceFallback publishes an empty bitmap on every pass, so the kernel
	// dispatches by plain reuseport hashing (Appendix C: the control
	// interface "supports fallbacks to reuseport").
	ForceFallback bool
}

// batches reports whether a pass under c may serve and fill the quantum's
// cached result. Force-fallback and single-winner never do: they are the
// override and ablation modes, which the tests flip between calls at one
// instant.
func (c *Config) batches() bool { return !c.ForceFallback && c.Order != OrderSingleWinner }

// syncQuantum batches Algorithm-1 recomputes: within one quantum the first
// schedule_and_sync() call of a group runs the full Snapshot → Schedule →
// map-sync pipeline and later calls (from any of its workers) reuse the
// published result. A busy fleet calls schedule_and_sync once per event loop
// from every worker, so N workers would pay N scans of N WST rows per loop;
// one scan per quantum costs 1/N of that. 100µs is far below EpollTimeout
// (5ms) and HangThreshold (12ms), so the staleness it adds is negligible next
// to the staleness the loop already tolerates. Force-fallback and
// single-winner, and every policy flip, bypass the cached result.
const syncQuantum = 100 * time.Microsecond

// DefaultConfig returns the production-like defaults used throughout the
// evaluation.
func DefaultConfig() Config {
	return Config{
		HangThreshold: 12 * time.Millisecond,
		ThetaFrac:     0.5,
		MinWorkers:    2,
		EpollTimeout:  5 * time.Millisecond,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.HangThreshold <= syncQuantum {
		return fmt.Errorf("core: HangThreshold must exceed the %v sync quantum (a quantum of staleness must not mask a hang), got %v",
			syncQuantum, c.HangThreshold)
	}
	if c.ThetaFrac < 0 {
		return fmt.Errorf("core: ThetaFrac must be ≥ 0, got %v", c.ThetaFrac)
	}
	if c.MinWorkers < 1 {
		return fmt.Errorf("core: MinWorkers must be ≥ 1, got %d", c.MinWorkers)
	}
	if c.EpollTimeout <= syncQuantum {
		return fmt.Errorf("core: EpollTimeout must exceed the %v sync quantum (a shorter heartbeat only spins an idle worker), got %v",
			syncQuantum, c.EpollTimeout)
	}
	if c.Order > OrderSingleWinner {
		return fmt.Errorf("core: unknown filter order %d", c.Order)
	}
	return nil
}
