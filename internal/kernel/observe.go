package kernel

import (
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// This file is the kernel layer's one observer seam: the kernel.* metric
// catalog (docs/TELEMETRY.md) and the kernel's flight-recorder handles
// (docs/TRACING.md) both live here, and NetStack.Observe is the only place
// they are switched on. Sockets and reuseport groups reach the observer
// through their stack; an epoll instance is bound to its worker's slot and
// track by Epoll.BindWorker. Unobserved, every hook site costs one nil check.

// row describes one kernel.* metric.
func row(name, unit, help string) telemetry.Metric {
	return telemetry.Metric{Name: name, Layer: "kernel", Unit: unit, Help: help}
}

// wakeRows names the shared-socket wakeup counter of each discipline — the
// LIFO-vs-rr split of §2.2. A stack registers only the row of the discipline
// it runs, so no dump carries a counter that cannot advance.
var wakeRows = [...]telemetry.Metric{
	WakeHerd:          row("kernel.wakeups.herd", "wakes", "thundering-herd wake-everyone decisions"),
	WakeExclusiveLIFO: row("kernel.wakeups.exclusive_lifo", "wakes", "EPOLLEXCLUSIVE LIFO wake decisions"),
	WakeExclusiveRR:   row("kernel.wakeups.exclusive_rr", "wakes", "epoll-rr wake decisions"),
	WakeExclusiveFIFO: row("kernel.wakeups.exclusive_fifo", "wakes", "io_uring-style FIFO wake decisions"),
}

// observer holds the stack-wide instrument handles. With a nil sink the
// handles are nil (no-op instruments); with a nil tracer so are the tracks.
type observer struct {
	tracer *tracing.Tracer
	tr     *tracing.KernelTrace

	// epoll, indexed by worker slot.
	epWakeups, epSpurious, epTimeouts, epEvents *telemetry.CounterVec
	epWaitNS                                    *telemetry.Histogram

	// Accept queues, indexed by the listen socket's group member index;
	// one shared socket serves every worker, so it lives in slot 0.
	qEnqueued, qDropped *telemetry.CounterVec
	qDepthPeak          *telemetry.GaugeVec

	// Shared-socket wakeup decisions of the stack's own discipline.
	wakes *telemetry.Counter

	// Reuseport dispatch, registered once a group exists: connections per
	// member socket, and outcomes by steering path.
	sink    *telemetry.Registry
	slots   int
	steered *telemetry.CounterVec
	byVia   [tracing.ViaProgError + 1]*telemetry.Counter
}

// Observe switches observation on for this stack: the kernel.* catalog is
// registered on sink and connection-lifecycle spans go to tr's kernel track;
// either may be nil. slots sizes the per-worker vectors (worker i owns epoll
// slot i and reuseport socket i). Epoll instances created afterwards join in
// through BindWorker.
func (ns *NetStack) Observe(sink *telemetry.Registry, tr *tracing.Tracer, slots int) {
	if sink == nil && tr == nil {
		return
	}
	o := &observer{tracer: tr, tr: tr.KernelTrace(), sink: sink, slots: slots}
	ns.obs = o
	o.epWakeups = sink.CounterVec(row("kernel.epoll.wakeups", "wakeups",
		"completed epoll_wait calls per worker, including timeouts"), slots)
	o.epSpurious = sink.CounterVec(row("kernel.epoll.spurious_wakeups", "wakeups",
		"wakeups that delivered zero events per worker (herd waste)"), slots)
	o.epTimeouts = sink.CounterVec(row("kernel.epoll.timeouts", "wakeups",
		"epoll_wait timeouts per worker"), slots)
	o.epEvents = sink.CounterVec(row("kernel.epoll.events", "events",
		"events delivered per worker"), slots)
	o.epWaitNS = sink.Histogram(row("kernel.epoll.wait_ns", "ns",
		"time blocked per epoll_wait (0 for immediate returns)"), telemetry.DurationBuckets())

	o.qEnqueued = sink.CounterVec(row("kernel.accept_queue.enqueued", "conns",
		"connections enqueued per worker's listen socket (slot 0 for shared sockets)"), slots)
	o.qDropped = sink.CounterVec(row("kernel.accept_queue.dropped", "conns",
		"connections dropped on accept-queue overflow"), slots)
	o.qDepthPeak = sink.GaugeVec(row("kernel.accept_queue.depth_peak", "conns",
		"high-water accept-queue depth per worker's listen socket"), slots)

	if int(ns.Mode) < len(wakeRows) {
		o.wakes = sink.Counter(wakeRows[ns.Mode])
	}

	if ns.groupsBound > 0 {
		o.observeReuseport()
	}
}

// observeReuseport registers the kernel.reuseport.* rows, which exist only on
// stacks that bind a reuseport group (a shared-socket dump carries no dead
// counters). ListenReuseport and Observe both call it, whichever runs second;
// safe on a nil observer.
func (o *observer) observeReuseport() {
	if o == nil || o.sink == nil || o.steered != nil {
		return
	}
	o.steered = o.sink.CounterVec(row("kernel.reuseport.steered", "conns",
		"connections dispatched to each worker's reuseport socket"), o.slots)
	o.byVia[tracing.ViaProg] = o.sink.Counter(row("kernel.reuseport.prog_hits", "conns",
		"dispatches decided by the attached program/selector"))
	o.byVia[tracing.ViaHash] = o.sink.Counter(row("kernel.reuseport.hash_picks", "conns",
		"plain reuseport hash dispatches (no selector attached)"))
	o.byVia[tracing.ViaFallback] = o.sink.Counter(row("kernel.reuseport.fallbacks", "conns",
		"selector declines that fell back to hashing"))
	o.byVia[tracing.ViaProgError] = o.sink.Counter(row("kernel.reuseport.prog_errors", "errors",
		"selector execution errors (also fall back)"))
}

// epollObs is one epoll instance's share of the observer: its worker's slots
// and trace track, so a wakeup — a spurious one included — is attributed to
// the waiter the wake discipline chose.
type epollObs struct {
	wakeups, spurious, timeouts, events *telemetry.Counter
	residency                           *telemetry.Histogram
	tr                                  *tracing.WorkerTrace
}

// BindWorker attributes this instance to worker id: its metrics land in slot
// id and its wakeups on track id. A restarted worker binds its fresh instance
// to the same id, so it keeps reporting where its predecessor did. An id past
// the stack's slots keeps the shared residency histogram and its own track
// but no per-worker counters. No-op on an unobserved stack.
func (ep *Epoll) BindWorker(id int) {
	o := ep.ns.obs
	if o == nil {
		return
	}
	ep.obs = &epollObs{
		wakeups:   o.epWakeups.At(id),
		spurious:  o.epSpurious.At(id),
		timeouts:  o.epTimeouts.At(id),
		events:    o.epEvents.At(id),
		residency: o.epWaitNS,
		tr:        o.tracer.WorkerTrace(id),
	}
}

// waitDone records one completed epoll_wait: every return to userspace
// counts as a wakeup, and the time blocked (0 for immediate returns) feeds
// the residency histogram and the wakeup span. A wake that finds nothing —
// another worker drained the sockets first — is spurious.
func (o *epollObs) waitDone(startNS, endNS int64, events int, timeout bool) {
	o.wakeups.Inc()
	if events > 0 {
		o.events.Add(uint64(events))
	} else if !timeout {
		o.spurious.Inc()
	}
	o.residency.Observe(endNS - startNS)
	o.tr.Wakeup(startNS, endNS, events, timeout)
}
