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

import (
	"fmt"
	"sort"
)

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

// Track says which tracks a kind may sit on.
type Track uint8

// Track rules.
const (
	OnKernel Track = iota + 1 // the kernel track only
	OnWorker                  // a worker track only
	OnEither                  // the affected worker's track, or the kernel's for LB-wide events
)

// Phase is how a kind is drawn in a Chrome trace.
type Phase uint8

// Chrome phases.
const (
	PhaseInstant  Phase = iota + 1 // a zero-duration marker: one "i" event
	PhaseComplete                  // run-to-completion work on its track (serve, epoll_wait): one "X" event
	PhaseAsync                     // a connection-scoped wait that may overlap its neighbours: a "b"/"e" pair
)

// ArgType is how one of a span's two annotations is rendered and checked.
type ArgType uint8

// Argument types. ArgNone is an unused slot.
const (
	ArgNone     ArgType = iota
	ArgNum              // a plain number
	ArgNumIfSet         // a number, left out of the rendering when 0
	ArgBool             // 0 or 1, rendered false/true
	ArgVia              // a Via code, rendered by name
)

// ArgDesc names and types one annotation slot (Span.Arg or Span.Arg2).
type ArgDesc struct {
	Name string
	Type ArgType
}

// Holds reports whether v is a value the slot can carry: a Via slot holds
// only the known steering paths, any other slot any number.
func (d ArgDesc) Holds(v int64) bool {
	return d.Type != ArgVia || (v >= 0 && v < int64(len(viaNames)))
}

// KindDesc is everything that differs between span kinds. The export name,
// the Chrome rendering and `hermesctl check spans` all read it here, and
// docs/TRACING.md's kind table is pinned to it by test.
type KindDesc struct {
	// Name is the stable export name.
	Name string
	// Track is the track rule.
	Track Track
	// ConnScoped kinds belong to one connection's chain and must carry its
	// id; the others may have Conn 0.
	ConnScoped bool
	// Phase is the Chrome rendering.
	Phase Phase
	// Arg and Arg2 describe the two annotation slots.
	Arg, Arg2 ArgDesc
}

// kinds is the one per-kind table, indexed by Kind.
var kinds = [...]KindDesc{
	KindSYN:          {"syn", OnKernel, true, PhaseInstant, ArgDesc{"via", ArgVia}, ArgDesc{"worker", ArgNum}},
	KindDrop:         {"drop", OnKernel, false, PhaseInstant, ArgDesc{"via", ArgVia}, ArgDesc{"overflow", ArgBool}},
	KindAcceptQueue:  {"accept_queue", OnWorker, true, PhaseAsync, ArgDesc{}, ArgDesc{}},
	KindAccept:       {"accept", OnWorker, true, PhaseInstant, ArgDesc{}, ArgDesc{}},
	KindNotifyWait:   {"notify_wait", OnWorker, true, PhaseAsync, ArgDesc{"probe", ArgBool}, ArgDesc{}},
	KindServe:        {"serve", OnWorker, true, PhaseComplete, ArgDesc{"probe", ArgBool}, ArgDesc{"latency_ns", ArgNum}},
	KindClose:        {"close", OnWorker, true, PhaseInstant, ArgDesc{"reset", ArgBool}, ArgDesc{}},
	KindWakeup:       {"epoll_wait", OnWorker, false, PhaseComplete, ArgDesc{"events", ArgNum}, ArgDesc{"spurious", ArgBool}},
	KindSchedule:     {"schedule", OnWorker, false, PhaseInstant, ArgDesc{"passed", ArgNum}, ArgDesc{"total", ArgNum}},
	KindSelmapSync:   {"selmap_sync", OnKernel, false, PhaseInstant, ArgDesc{"bits", ArgNum}, ArgDesc{}},
	KindFault:        {"fault", OnEither, false, PhaseInstant, ArgDesc{"code", ArgNum}, ArgDesc{"param", ArgNumIfSet}},
	KindProbe:        {"probe", OnKernel, false, PhaseComplete, ArgDesc{"backend", ArgNum}, ArgDesc{"ok", ArgBool}},
	KindBackendState: {"backend_state", OnKernel, false, PhaseInstant, ArgDesc{"backend", ArgNum}, ArgDesc{"state", ArgNum}},
}

// NumKinds is the number of span kinds; every Kind below it has a descriptor.
const NumKinds = Kind(len(kinds))

// Desc returns the kind's descriptor (Name "unknown" and nothing else for a
// Kind past NumKinds).
func (k Kind) Desc() KindDesc {
	if k < NumKinds {
		return kinds[k]
	}
	return KindDesc{Name: "unknown"}
}

func (k Kind) String() string { return k.Desc().Name }

// MarshalText and UnmarshalText carry a Kind by its export name, which makes
// a Span its own line of a JSONL dump (WriteJSONL, ReadSpans).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText inverts String; an unknown name is an error.
func (k *Kind) UnmarshalText(name []byte) error {
	for i := range kinds {
		if kinds[i].Name == string(name) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("unknown kind %q", name)
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

// KernelTrack is the Worker value of events on the kernel track.
const KernelTrack int32 = -1

// Span is one recorded event. Instants have StartNS == EndNS. Arg/Arg2 are
// kind-specific (see the Kind constants); fixed fields keep recording
// allocation-light and dumps byte-deterministic. Its JSON form is the
// one-line-per-span schema of a JSONL dump (docs/TRACING.md).
type Span struct {
	// Conn is the connection this span belongs to (0 for global events:
	// wakeups, schedule passes, selmap syncs).
	Conn uint64 `json:"conn"`
	// Worker is the track: a worker id, or KernelTrack.
	Worker int32 `json:"worker"`
	// Kind classifies the span.
	Kind Kind `json:"kind"`
	// StartNS / EndNS are the span bounds in virtual (or wall) nanoseconds.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Arg / Arg2 are kind-specific annotations.
	Arg  int64 `json:"arg"`
	Arg2 int64 `json:"arg2"`
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
