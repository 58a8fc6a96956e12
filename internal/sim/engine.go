// Package sim is a deterministic discrete-event simulation engine. It stands
// in for wall-clock execution on a pinned multicore VM: the simulated kernel,
// the worker event loops, and the traffic generators all advance on one
// virtual clock, so every experiment in this repository is reproducible
// bit-for-bit from its seed.
//
// Virtual time is int64 nanoseconds. Events scheduled for the same instant
// fire in scheduling order (stable FIFO tie-break), which keeps causality
// intuitive: a worker that finishes a request at t and a SYN arriving at t
// are processed in the order they were enqueued.
//
// The event queue is shaped like what the simulator schedules (docs/PERF.md,
// "The event queue"): a FIFO ring for events scheduled for the instant the
// clock already stands on (wake trampolines, zero-cost loop tails, immediate
// deliveries: O(1) in and out), a 4-ary min-heap for near events, and a
// second one for far timers, so a parked epoll timeout is armed and cancelled
// without deepening the heap that near events fire from. Heap entries carry
// their (at, seq) key by value, so a comparison never chases an event pointer.
//
// The hot path is allocation-free in steady state: fired and cancelled
// timer events return to a per-engine free list, and the ring and both heaps
// keep their backing arrays. Timer handles carry a generation number, so a
// handle that outlives its event (e.g. an epoll timeout raced by an arrival)
// can never cancel a recycled event by mistake.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Where a pending event is queued. An event that has fired or been cancelled
// needs no value: it is released at once, which invalidates every handle.
const (
	inRing uint8 = iota
	inNear
	inFar
)

// farHorizon is the delay from which a timer is filed in the far heap. The
// simulator's delays are bimodal — service and arrival gaps of microseconds,
// epoll timeouts and idle timers of milliseconds — and anything in between
// splits them. Firing order does not depend on the value: Step takes the
// earlier of the two heap tops.
const farHorizon = int64(time.Millisecond)

// timerEvent is one scheduled event. Events are pooled: after firing or
// cancellation they go back to the engine's free list and may be reused by a
// later At/After, with gen bumped so stale Timer handles are invalidated.
type timerEvent struct {
	at    int64
	gen   uint64
	fn    func()
	eng   *Engine
	index int32 // ring slot or heap index
	queue uint8
}

// Timer is a handle to a scheduled event that can be cancelled (used for
// epoll_wait timeouts that are raced by event arrivals). The zero Timer is
// valid and refers to no event. Handles are values: copying is free, and a
// handle held after its event fired or was cancelled is harmless — every
// operation first checks the generation stamp.
type Timer struct {
	ev  *timerEvent
	gen uint64
}

// valid reports whether the handle still refers to its original scheduling.
func (t Timer) valid() bool { return t.ev != nil && t.ev.gen == t.gen }

// Cancel prevents the timer from firing, eagerly removing it from the event
// queue (cancelled epoll timeouts no longer linger as heap garbage).
// Cancelling an already-fired or already-cancelled timer is a no-op.
// Returns true if the timer was pending.
func (t Timer) Cancel() bool {
	if !t.valid() {
		return false
	}
	ev, e := t.ev, t.ev.eng
	switch ev.queue {
	case inRing:
		// The slot stays behind as a hole that Step skips.
		e.ring[ev.index] = nil
		e.ringLive--
	case inNear:
		e.near.removeAt(int(ev.index))
	case inFar:
		e.far.removeAt(int(ev.index))
	}
	e.release(ev)
	return true
}

// Pending reports whether the timer is still scheduled and not cancelled.
func (t Timer) Pending() bool { return t.valid() }

// When returns the virtual time the timer fires at, or 0 if it has already
// fired or been cancelled.
func (t Timer) When() int64 {
	if !t.valid() {
		return 0
	}
	return t.ev.at
}

// Engine is the event loop. Not safe for concurrent use: simulations are
// single-goroutine by design (determinism). Independent engines (one per
// experiment cell) may run on separate goroutines concurrently.
type Engine struct {
	now int64
	seq uint64

	// ring holds the events scheduled for e.now while the clock stood at
	// e.now, oldest first, in slots [ringHead, ringTail) modulo its
	// power-of-two length; a nil slot is a cancelled event. The clock cannot
	// move while it is non-empty, so it never holds two instants.
	ring               []*timerEvent
	ringHead, ringTail uint32
	ringLive           int

	near, far  eventHeap
	farHorizon int64 // the constant; a field only so the tests can move it

	free []*timerEvent
	rng  *rand.Rand

	// Executed counts fired (non-cancelled) events, for diagnostics.
	Executed uint64
}

// NewEngine creates an engine at time 0 with a deterministic RNG.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:        rand.New(rand.NewSource(seed)),
		near:       eventHeap{queue: inNear},
		far:        eventHeap{queue: inFar},
		farHorizon: farHorizon,
	}
}

// Now returns the current virtual time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Rand returns the engine's deterministic RNG.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn at absolute virtual time t (≥ now) and returns its timer.
func (e *Engine) At(t int64, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %d < %d", t, e.now))
	}
	var ev *timerEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &timerEvent{eng: e}
	}
	ev.at, ev.fn = t, fn
	switch {
	case t == e.now:
		e.ringPush(ev)
	case t-e.now < e.farHorizon:
		e.seq++
		e.near.push(ev, e.seq)
	default:
		e.seq++
		e.far.push(ev, e.seq)
	}
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+int64(d), fn)
}

// release returns a dequeued event to the free list, invalidating every
// outstanding handle to it via the generation bump.
func (e *Engine) release(ev *timerEvent) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// Step fires the next event. It returns false when no events remain.
func (e *Engine) Step() bool { return e.step(math.MaxInt64) }

// step fires the next event if it is due by deadline. The order is (at, seq):
// a heap event of the current instant was scheduled before the clock reached
// it — otherwise it would be in the ring — so it precedes the whole ring, and
// the ring precedes every later instant.
func (e *Engine) step(deadline int64) bool {
	h := &e.near
	if len(e.far.a) > 0 && (len(h.a) == 0 || e.far.a[0].before(h.a[0])) {
		h = &e.far
	}
	var ev *timerEvent
	switch {
	case e.ringLive > 0 && (len(h.a) == 0 || h.a[0].at > e.now):
		if e.now > deadline {
			return false
		}
		ev = e.ringPop()
	case len(h.a) > 0 && h.a[0].at <= deadline:
		ev = h.popMin()
		e.now = ev.at
	default:
		return false
	}
	fn := ev.fn
	e.release(ev)
	e.Executed++
	fn()
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time ≤ deadline, then advances the clock to the
// deadline (even if idle). Events scheduled exactly at the deadline fire.
func (e *Engine) RunUntil(deadline int64) {
	for e.step(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor runs for a virtual duration from the current time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + int64(d)) }

// Pending returns the number of scheduled events. Cancelled timers are
// removed eagerly, so this is an exact count of live events.
func (e *Engine) Pending() int { return e.ringLive + len(e.near.a) + len(e.far.a) }

// --- same-instant ring ---

func (e *Engine) ringPush(ev *timerEvent) {
	if e.ringLive == 0 {
		e.ringHead = e.ringTail // drop the holes cancellations left behind
	}
	if int(e.ringTail-e.ringHead) == len(e.ring) {
		e.ringGrow()
	}
	i := e.ringTail & uint32(len(e.ring)-1)
	e.ring[i] = ev
	ev.index, ev.queue = int32(i), inRing
	e.ringTail++
	e.ringLive++
}

// ringPop removes the oldest live event; the caller checked ringLive > 0.
func (e *Engine) ringPop() *timerEvent {
	for {
		i := e.ringHead & uint32(len(e.ring)-1)
		e.ringHead++
		if ev := e.ring[i]; ev != nil {
			e.ring[i] = nil
			e.ringLive--
			return ev
		}
	}
}

// ringGrow doubles a full ring, moving its live events to the front in order.
func (e *Engine) ringGrow() {
	grown := make([]*timerEvent, max(2*len(e.ring), 16))
	n := uint32(0)
	for p := e.ringHead; p != e.ringTail; p++ {
		if ev := e.ring[p&uint32(len(e.ring)-1)]; ev != nil {
			grown[n] = ev
			ev.index = int32(n)
			n++
		}
	}
	e.ring, e.ringHead, e.ringTail = grown, 0, n
}

// --- 4-ary min-heap on (at, seq) ---
//
// A 4-ary heap halves the tree depth of a binary heap and keeps the four
// siblings of each inner node, keys included, in 96 adjacent bytes; the inner
// loop is a sibling-min scan that reads nothing else. Compared at ~10⁷
// events against container/heap it avoids both the interface boxing of
// Push/Pop and the indirect Less/Swap calls.

type entry struct {
	at  int64
	seq uint64
	ev  *timerEvent
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

type eventHeap struct {
	a     []entry
	queue uint8 // what its events' queue field says: inNear or inFar
}

func (h *eventHeap) push(ev *timerEvent, seq uint64) {
	ev.queue = h.queue
	h.a = append(h.a, entry{})
	h.siftUp(len(h.a)-1, entry{at: ev.at, seq: seq, ev: ev})
}

func (h *eventHeap) popMin() *timerEvent {
	ev := h.a[0].ev
	h.removeAt(0)
	return ev
}

// removeAt deletes the event at heap index i (the minimum, or an eager
// cancellation).
func (h *eventHeap) removeAt(i int) {
	a := h.a
	n := len(a) - 1
	last := a[n]
	a[n] = entry{}
	h.a = a[:n]
	if i < n {
		if i > 0 && last.before(a[(i-1)>>2]) {
			h.siftUp(i, last)
		} else {
			h.siftDown(i, last)
		}
	}
}

// siftUp places x at the hole i or above it.
func (h *eventHeap) siftUp(i int, x entry) {
	a := h.a
	for i > 0 {
		p := (i - 1) >> 2
		if !x.before(a[p]) {
			break
		}
		a[i] = a[p]
		a[i].ev.index = int32(i)
		i = p
	}
	a[i] = x
	x.ev.index = int32(i)
}

// siftDown places x at the hole i or below it.
func (h *eventHeap) siftDown(i int, x entry) {
	a := h.a
	n := len(a)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if a[j].before(a[m]) {
				m = j
			}
		}
		if !a[m].before(x) {
			break
		}
		a[i] = a[m]
		a[i].ev.index = int32(i)
		i = m
	}
	a[i] = x
	x.ev.index = int32(i)
}
