// Package tracing is the per-connection flight recorder: a sim-clock span
// tracer that explains *where one connection waited* — reuseport steering at
// SYN time, accept-queue residency, epoll wait-queue wakeups (spurious ones
// attributed to the waiter they woke), worker accept, per-request service —
// the causal chain behind the tail latencies the paper's Fig. A2 decomposes.
// It complements internal/telemetry: telemetry answers "how much, on
// average"; tracing answers "why was this connection slow".
//
// See docs/TRACING.md for the span schema and export formats.
//
// Design constraints mirror the telemetry layer:
//
//  1. Nil = off. Every layer holds small typed handles (*KernelTrace,
//     *WorkerTrace, *ScheduleTrace, *MapTrace) obtained once at wiring time;
//     a nil handle no-ops, so a disabled tracer costs one nil check per hook
//     and benchmark output is byte-identical with tracing on or off.
//  2. Timestamps are passed in, not read. The tracer never touches the sim
//     engine (or any clock), so recording cannot perturb a simulation.
//  3. Bounded storage. Committed spans live in a fixed-capacity ring; when
//     it fills, the oldest spans are overwritten (flight-recorder semantics)
//     and the loss is counted, never silent.
package tracing

import "sort"

// Kind classifies a span or instant event.
type Kind uint8

// Span kinds, in rough connection-lifecycle order.
const (
	// KindSYN: instant, kernel track — handshake completion, annotated with
	// the steering path (Via) and the chosen worker socket.
	KindSYN Kind = iota
	// KindDrop: instant, kernel track — a SYN refused (no listener, or
	// accept-queue overflow).
	KindDrop
	// KindAcceptQueue: span — establishment to accept(2); the residency the
	// accept-wait histogram aggregates. Worker is the accepting worker.
	KindAcceptQueue
	// KindAccept: instant, worker track — the worker dequeued the
	// connection.
	KindAccept
	// KindNotifyWait: span, worker track — request data arrival to the start
	// of its service: epoll notification delay plus queued-behind-batch time.
	KindNotifyWait
	// KindServe: span, worker track — request service (the Work.Cost burn).
	KindServe
	// KindClose: instant, worker track — connection teardown (Arg=1: RST).
	KindClose
	// KindWakeup: span, worker track — epoll block start to wakeup delivery.
	// Timeout-only waits are not recorded; Arg is the delivered event count,
	// Arg2=1 marks a spurious wakeup charged to this worker (the waiter the
	// wake discipline chose).
	KindWakeup
	// KindSchedule: instant, worker track — one schedule_and_sync pass
	// (Arg=workers passing the cascade, Arg2=table size).
	KindSchedule
	// KindSelmapSync: instant, kernel track — a userspace selection-map
	// update reached the kernel (Arg=bitmap popcount).
	KindSelmapSync
	// KindFault: instant, worker or kernel track — an injected fault or
	// recovery event (Arg=faults.Kind-style code, Arg2=kind-specific
	// parameter such as the hang duration).
	KindFault
	// KindProbe: span, kernel track — one active backend health probe
	// (Arg=backend index, Arg2=1 probe passed / 0 failed).
	KindProbe
	// KindBackendState: instant, kernel track — a backend availability
	// transition from the health checker or circuit breaker (Arg=backend
	// index, Arg2=new state code: proxy.BackendState / circuit state).
	KindBackendState
)

// kindNames are the stable export names (docs/TRACING.md).
var kindNames = [...]string{
	"syn", "drop", "accept_queue", "accept", "notify_wait",
	"serve", "close", "epoll_wait", "schedule", "selmap_sync", "fault",
	"probe", "backend_state",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromName inverts String (dump readers). ok=false for unknown names.
func KindFromName(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// Via is the steering path that chose a connection's socket at SYN time.
type Via uint8

// Steering paths.
const (
	// ViaShared: a shared listening socket — no steering decision.
	ViaShared Via = iota
	// ViaHash: plain reuseport hash (no selector attached).
	ViaHash
	// ViaProg: the attached program/selector picked the socket.
	ViaProg
	// ViaFallback: the selector declined (empty bitmap / too few workers)
	// and the kernel fell back to hashing.
	ViaFallback
	// ViaProgError: the selector errored; hash fallback.
	ViaProgError
)

var viaNames = [...]string{"shared", "hash", "prog", "fallback", "prog_error"}

func (v Via) String() string {
	if int(v) < len(viaNames) {
		return viaNames[v]
	}
	return "unknown"
}

// ViaFromName inverts String. ok=false for unknown names.
func ViaFromName(name string) (Via, bool) {
	for i, n := range viaNames {
		if n == name {
			return Via(i), true
		}
	}
	return 0, false
}

// KernelTrack is the Worker value of events on the kernel track.
const KernelTrack int32 = -1

// Span is one recorded event. Instants have StartNS == EndNS. Arg/Arg2 are
// kind-specific (see the Kind constants); fixed fields keep recording
// allocation-light and dumps byte-deterministic.
type Span struct {
	// Conn is the connection this span belongs to (0 for global events:
	// wakeups, schedule passes, selmap syncs).
	Conn uint64
	// Worker is the track: a worker id, or KernelTrack.
	Worker int32
	// Kind classifies the span.
	Kind Kind
	// StartNS / EndNS are the span bounds in virtual (or wall) nanoseconds.
	StartNS int64
	EndNS   int64
	// Arg / Arg2 are kind-specific annotations.
	Arg  int64
	Arg2 int64
}

// Instant reports whether the span is a zero-duration event.
func (s Span) Instant() bool { return s.StartNS == s.EndNS }

// DurNS returns the span duration.
func (s Span) DurNS() int64 { return s.EndNS - s.StartNS }

// SortSpans sorts spans into the canonical export order (see less). Stable,
// so exact duplicates keep their relative order.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool { return less(spans[i], spans[j]) })
}

// less is the total export order: by start time, then end, then track, then
// connection, then kind, then args. Total modulo exact duplicates, so sorted
// dumps are byte-deterministic.
func less(a, b Span) bool {
	if a.StartNS != b.StartNS {
		return a.StartNS < b.StartNS
	}
	if a.EndNS != b.EndNS {
		return a.EndNS < b.EndNS
	}
	if a.Worker != b.Worker {
		return a.Worker < b.Worker
	}
	if a.Conn != b.Conn {
		return a.Conn < b.Conn
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Arg != b.Arg {
		return a.Arg < b.Arg
	}
	return a.Arg2 < b.Arg2
}
