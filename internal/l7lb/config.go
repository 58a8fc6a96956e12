// Package l7lb builds the multi-tenant L7 load balancer of §2.1 on top of
// the simulated kernel: worker processes pinned one-per-core running
// run-to-completion epoll event loops, one listening port per tenant, and a
// per-request CPU cost model covering the paper's processing classes
// (HTTP routing, TLS, protocol translation, compression, plain copying).
//
// The package assembles the same LB under every dispatch mode the paper
// compares — thundering herd, epoll-exclusive (LIFO), the unmerged epoll-rr,
// an nginx-style accept mutex, plain reuseport, a userspace dispatcher, and
// Hermes (its dispatch program compiled by the eBPF JIT) — so the evaluation
// harness can swap only the mode and hold everything else fixed.
package l7lb

import (
	"fmt"
	"time"

	"hermes/internal/core"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// Mode selects the connection dispatch mechanism.
type Mode uint8

// Dispatch modes.
const (
	// ModeExclusive: shared listen sockets, EPOLLEXCLUSIVE LIFO wakeup
	// (the pre-Hermes production default).
	ModeExclusive Mode = iota
	// ModeExclusiveRR: the unmerged epoll-rr kernel patch.
	ModeExclusiveRR
	// ModeHerd: pre-4.5 wake-everyone epoll.
	ModeHerd
	// ModeAcceptMutex: nginx-style userspace accept mutex over shared
	// sockets (§2.2).
	ModeAcceptMutex
	// ModeReuseport: per-worker SO_REUSEPORT sockets, stateless hash.
	ModeReuseport
	// ModeHermes: Hermes with its dispatch program attached as eBPF
	// bytecode at the reuseport hook, where the JIT runs it.
	ModeHermes
	// ModeDispatcher: a dedicated userspace dispatcher worker fans events
	// out to executor workers (the DBMS-style design §2.2 rejects for LBs).
	ModeDispatcher
	// ModeIOUring: shared listen sockets with io_uring's FIFO wakeup order
	// (§8) — the extension target the paper names; imbalanced like
	// exclusive, but toward the earliest-registered workers.
	ModeIOUring
)

func (m Mode) String() string {
	switch m {
	case ModeExclusive:
		return "exclusive"
	case ModeExclusiveRR:
		return "exclusive-rr"
	case ModeHerd:
		return "herd"
	case ModeAcceptMutex:
		return "accept-mutex"
	case ModeReuseport:
		return "reuseport"
	case ModeHermes:
		return "hermes"
	case ModeDispatcher:
		return "dispatcher"
	case ModeIOUring:
		return "io-uring-fifo"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// CostModel fixes the CPU cost of the LB's fixed-function operations.
// Request-specific processing cost arrives with each request (Work.Cost);
// these constants cover the event-loop plumbing around it.
type CostModel struct {
	// Accept is the base cost of accept(2) + registering the new
	// connection with epoll.
	Accept time.Duration
	// PerWatch is the extra accept-path cost per socket in the epoll
	// interest list. Exclusive-mode workers watch every tenant port, so
	// their dispatch overhead is O(#ports); reuseport/Hermes workers watch
	// one socket per port group they own (§6.2 Case 1 discussion).
	PerWatch time.Duration
	// Close is the cost of tearing down a connection.
	Close time.Duration
	// Schedule is the cost of one schedule_and_sync() pass (Algorithm 1 +
	// eBPF map update), paid only by Hermes workers (Table 5).
	Schedule time.Duration
	// SpuriousWake is the wasted CPU of a thundering-herd wakeup that
	// found nothing to do.
	SpuriousWake time.Duration
	// Dispatch is the userspace dispatcher's per-event cost (ModeDispatcher).
	Dispatch time.Duration
	// MutexOp is the accept-mutex acquire/release cost (ModeAcceptMutex).
	MutexOp time.Duration
	// UpstreamHandshake is the extra latency of opening a fresh backend
	// connection (TCP+TLS round trips to an IDC, §7) when the pool misses.
	UpstreamHandshake time.Duration
}

// DefaultCosts returns microsecond-scale constants consistent with the
// paper's 200-300µs normal request latency.
func DefaultCosts() CostModel {
	return CostModel{
		Accept:       2 * time.Microsecond,
		PerWatch:     20 * time.Nanosecond,
		Close:        time.Microsecond,
		Schedule:     500 * time.Nanosecond,
		SpuriousWake: time.Microsecond,
		Dispatch:     2 * time.Microsecond,
		MutexOp:      300 * time.Nanosecond,
		// Cross-Internet TCP+TLS setup is millisecond-scale (§7).
		UpstreamHandshake: 2 * time.Millisecond,
	}
}

// ShedPolicy is Hermes's proactive service degradation (§C, exception
// handling case 1): when a worker's live connection count exceeds the
// threshold at loop end, it RSTs the excess so clients reconnect and get
// rescheduled onto healthy workers.
type ShedPolicy struct {
	Enabled       bool
	ConnThreshold int
	// PendingThreshold, when > 0, also sheds a connection mid-drain once
	// its unread backlog exceeds the threshold — the RST that frees a
	// worker trapped by an edge-triggered connection whose upstream
	// outpaces processing (Appendix C case 1: "Hermes sends TCP RSTs to
	// terminate a subset of connections, allowing them to reconnect and be
	// rescheduled to healthy workers").
	PendingThreshold int
}

// Config assembles one LB device.
type Config struct {
	// Workers is the worker (CPU core) count.
	Workers int
	// Ports are the tenant listening ports (Fig. 1: one per tenant).
	Ports []uint16
	// Mode is the dispatch mechanism under test.
	Mode Mode
	// Hermes configures the control loop for Hermes modes.
	Hermes core.Config
	// ScheduleAtLoopStart moves schedule_and_sync() from the end of the
	// event loop to the beginning — the placement §5.3.2 warns against
	// (the scheduler then observes pre-epoll_wait status, which may be
	// stale by the time events land). Ablation only.
	ScheduleAtLoopStart bool
	// EdgeTriggered registers connection sockets with EPOLLET (Nginx's
	// discipline, Appendix C): a readable event obliges the worker to drain
	// the socket completely before returning to the loop, so a connection
	// whose upstream outpaces its processing traps the worker — the
	// 30 ms → 440 s hang the paper debugged.
	EdgeTriggered bool
	// RegisteredPorts is the total number of tenant ports bound on the
	// device (only Ports carry generated traffic; production devices bind
	// O(10K), §7). Shared-socket modes register every port with every
	// worker's epoll, so their per-accept dispatch overhead is
	// O(RegisteredPorts); reuseport/Hermes workers pay O(len(Ports))
	// (§6.2 Case 1: "O(1) for Hermes and reuseport, but O(#ports) for
	// exclusive"). 0 means len(Ports).
	RegisteredPorts int
	// MaxConnsPerWorker models the preallocated connection pool (§5.1.1);
	// accepts beyond it are reset. 0 = unlimited.
	MaxConnsPerWorker int
	// ConnsPerWorkerHint pre-sizes each worker's connection table to the
	// cell's planned per-worker connection count, so steady-state accepts
	// never regrow the table (Worker.ConnTableGrows stays 0), and LB.Latency
	// to one sample per planned connection. 0 keeps the small defaults;
	// MaxConnsPerWorker still caps the table's pre-size.
	ConnsPerWorkerHint int
	// Costs is the fixed-function cost model.
	Costs CostModel
	// Shed is the optional degradation policy (Hermes modes only).
	Shed ShedPolicy
	// DetailedStats enables per-worker event/latency CDF collection
	// (Figs. 4, 5); off by default to keep long runs lean.
	DetailedStats bool
	// Backends, when set, makes every request forward to a backend via
	// round-robin (§7); pair with Upstream to model connection reuse.
	Backends *BackendPool
	// Upstream models the backend connection pool; a request whose
	// worker→backend pair has no idle pooled connection pays
	// Costs.UpstreamHandshake extra (§7 "More connections established with
	// backend servers").
	Upstream *UpstreamPool
	// Telemetry, when set, is the sink the kernel, eBPF, core and worker
	// layers each register their rows of the metric catalog on
	// (docs/TELEMETRY.md). Nil disables all recording.
	Telemetry *telemetry.Registry
	// Tracer, when set, is the per-connection flight recorder
	// (docs/TRACING.md) the same layers record into: SYN steering,
	// accept-queue residency, epoll wakeups, per-request service, closes.
	// With both nil no layer is observed — a hook site costs one nil check —
	// and output is byte-identical to an observed run.
	Tracer *tracing.Tracer
}

// DefaultConfig returns a 32-core single-tenant LB in the given mode, the
// paper's testbed shape (32-core VMs, §6.1).
func DefaultConfig(mode Mode) Config {
	return Config{
		Workers: 32,
		Ports:   []uint16{8080},
		Mode:    mode,
		Hermes:  core.DefaultConfig(),
		Costs:   DefaultCosts(),
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("l7lb: Workers must be ≥ 1, got %d", c.Workers)
	}
	if len(c.Ports) == 0 {
		return fmt.Errorf("l7lb: at least one tenant port required")
	}
	seen := make(map[uint16]bool, len(c.Ports))
	for _, p := range c.Ports {
		if seen[p] {
			return fmt.Errorf("l7lb: duplicate port %d", p)
		}
		seen[p] = true
	}
	if c.Mode == ModeHermes {
		if err := c.Hermes.Validate(); err != nil {
			return err
		}
		// >64 workers automatically use the two-level grouped controller
		// (§7): no upper bound beyond memory.
	}
	if c.MaxConnsPerWorker < 0 {
		return fmt.Errorf("l7lb: MaxConnsPerWorker must be ≥ 0")
	}
	if c.RegisteredPorts != 0 && c.RegisteredPorts < len(c.Ports) {
		return fmt.Errorf("l7lb: RegisteredPorts %d < active ports %d", c.RegisteredPorts, len(c.Ports))
	}
	return nil
}
