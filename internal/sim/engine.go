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
// "The event queue" and "Near timers leave the heap"): a FIFO ring for events
// scheduled for the instant the clock already stands on (wake trampolines,
// zero-cost loop tails, immediate deliveries: O(1) in and out), a calendar of
// 256 ns buckets for the next ≈ 1 ms (service times, arrival gaps: O(1) in,
// out and cancelled), and a 4-ary min-heap for far timers, so a parked epoll
// timeout is armed and cancelled without touching the structure near events
// fire from. Heap entries carry their (at, seq) key by value, so a comparison
// never chases an event pointer.
//
// The hot path is allocation-free in steady state: fired and cancelled
// timer events return to a per-engine free list, the calendar links them
// through their own fields, and the ring and the heap keep their backing
// arrays. Only when the free list is empty does an event come from the
// engine's Slab, which grows by a chunk of events at a time. Timer handles
// carry a generation number, so a handle that outlives its event (e.g. an
// epoll timeout raced by an arrival) can never cancel a recycled event by
// mistake.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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

// The calendar's geometry: nBuckets buckets of 1<<bucketShift ns. An event is
// filed in it when its bucket is fewer than nBuckets buckets past the clock's,
// so no two pending events of different bucket numbers share a slot, and its
// span — ≈ 1.05 ms — is the near/far boundary. The simulator's delays are
// bimodal (service and arrival gaps of microseconds, epoll timeouts and idle
// timers of milliseconds), and the span splits them.
const (
	bucketShift = 8
	nBuckets    = 1 << 12
	calSpan     = int64(nBuckets) << bucketShift
)

// Handler is what an event fires. An object that schedules itself (a request
// train, an arrival chain) implements it and is scheduled with
// Engine.Schedule, so neither a closure nor a bound method value is made per
// object; At and After adapt a func.
type Handler interface {
	Fire()
}

// funcHandler adapts a func to a Handler. A func value is pointer-shaped, so
// the conversion stores it in the interface without allocating.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// timerEvent is one scheduled event: the Handler it fires at its time.
// Events are pooled: after firing or cancellation they go back to the
// engine's free list and may be reused by a later Schedule, with gen bumped
// so stale Timer handles are invalidated.
type timerEvent struct {
	at  int64
	gen uint64
	h   Handler
	eng *Engine
	// next and prev link a calendar bucket's list (prev of its first event
	// is its last); next also links the free list.
	next, prev *timerEvent
	index      int32 // ring slot or heap index
	queue      uint8
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
		e.near.remove(ev)
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

	near calendar
	far  eventHeap
	// farHorizon lowers the near/far boundary below the calendar's span; a
	// field only so the tests can move it.
	farHorizon int64

	free   *timerEvent // released events, linked through next
	events Slab[timerEvent]
	rng    *rand.Rand

	// Executed counts fired (non-cancelled) events, for diagnostics.
	Executed uint64
}

// NewEngine creates an engine at time 0 with a deterministic RNG.
func NewEngine(seed int64) *Engine {
	e := &Engine{
		rng:        rand.New(rand.NewSource(seed)),
		farHorizon: calSpan,
	}
	e.near.minAt = math.MaxInt64
	return e
}

// Now returns the current virtual time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Rand returns the engine's deterministic RNG.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn at absolute virtual time t (≥ now) and returns its timer.
func (e *Engine) At(t int64, fn func()) Timer { return e.Schedule(t, funcHandler(fn)) }

// Schedule fires h at absolute virtual time t (≥ now) and returns its timer.
// It is the one event path: At and After go through it.
//
// Whether an event is filed near or far depends only on how far ahead of the
// clock it is scheduled, and a later scheduling of the same instant is nearer.
// So of two queued events of one instant, a far one was scheduled before a
// near one: seq orders the far heap, and the calendar's lists are in
// scheduling order, which is all the (at, seq) order needs.
func (e *Engine) Schedule(t int64, h Handler) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %d < %d", t, e.now))
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
	} else {
		ev = e.events.Get()
		ev.eng = e
	}
	ev.at, ev.h = t, h
	switch {
	case t == e.now:
		e.ringPush(ev)
	case t>>bucketShift-e.now>>bucketShift < nBuckets && t-e.now < e.farHorizon:
		e.near.push(ev)
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
	ev.h = nil
	ev.gen++
	ev.next, e.free = e.free, ev
}

// Step fires the next event. It returns false when no events remain.
func (e *Engine) Step() bool { return e.step(math.MaxInt64) }

// step fires the next event if it is due by deadline. The order is (at, seq):
// of the calendar's and the heap's earliest the heap's wins a tie (Schedule
// says why); a queued event of the current instant was scheduled before the
// clock reached it — otherwise it would be in the ring — so it precedes the
// whole ring, and the ring precedes every later instant.
func (e *Engine) step(deadline int64) bool {
	ev, at := e.near.min, e.near.minAt
	far := len(e.far.a) > 0 && e.far.a[0].at <= at
	if far {
		ev, at = e.far.a[0].ev, e.far.a[0].at
	}
	switch {
	case e.ringLive > 0 && at > e.now:
		if e.now > deadline {
			return false
		}
		ev = e.ringPop()
	case ev != nil && at <= deadline:
		if far {
			e.far.removeAt(0)
		} else {
			e.near.remove(ev)
		}
		e.now = at
	default:
		return false
	}
	h := ev.h
	e.release(ev)
	e.Executed++
	h.Fire()
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
func (e *Engine) Pending() int { return e.ringLive + e.near.n + len(e.far.a) }

// LiveEvents returns how many timer events the engine has taken from its slab
// and not released to its free list: the pending ones, unless an event was
// dropped without being released. A conservation check compares it with Pending; it walks the
// free list, so call it at a drain, not per event.
func (e *Engine) LiveEvents() int {
	n := e.events.Live()
	for ev := e.free; ev != nil; ev = ev.next {
		n--
	}
	return n
}

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

// --- calendar of near events ---
//
// Each bucket is a list of its events in scheduling order, linked through the
// events themselves: head[b] is the first, whose prev is the last, so an
// append, an unlink and a cancel are O(1) and nothing is allocated. Every
// pending event lies less than nBuckets buckets past the clock, so walking
// the bucket indices circularly from the clock's bucket visits them in time
// order. min is the earliest event, kept on push and found again when it
// leaves: the first occupied bucket at or after its own (two bitmap words
// say which), scanned for its smallest at — the first of equals is the
// oldest, and the first event of the leaver's own instant ends the scan, since
// nothing left is earlier. A burst of one instant therefore costs one step
// per pop, not the length of its bucket.

type calendar struct {
	head  [nBuckets]*timerEvent
	words [nBuckets / 64]uint64 // bit b%64 of words[b/64]: head[b] != nil
	top   uint64                // bit w: words[w] != 0
	min   *timerEvent
	minAt int64 // min.at, or math.MaxInt64 when the calendar is empty
	n     int
}

func bucketOf(at int64) int { return int(at>>bucketShift) & (nBuckets - 1) }

func (c *calendar) push(ev *timerEvent) {
	b := bucketOf(ev.at)
	ev.queue, ev.next = inNear, nil
	if first := c.head[b]; first == nil {
		c.head[b], ev.prev = ev, ev
		c.words[b>>6] |= 1 << (b & 63)
		c.top |= 1 << (b >> 6)
	} else {
		last := first.prev
		last.next, ev.prev, first.prev = ev, last, ev
	}
	c.n++
	if ev.at < c.minAt {
		c.min, c.minAt = ev, ev.at
	}
}

// remove unlinks ev (the minimum when it fires, any event when cancelled).
func (c *calendar) remove(ev *timerEvent) {
	b := bucketOf(ev.at)
	first := c.head[b]
	switch {
	case ev != first:
		ev.prev.next = ev.next
		if ev.next != nil {
			ev.next.prev = ev.prev
		} else {
			first.prev = ev.prev
		}
	case ev.next != nil:
		c.head[b], ev.next.prev = ev.next, ev.prev
	default:
		c.head[b] = nil
		if c.words[b>>6] &^= 1 << (b & 63); c.words[b>>6] == 0 {
			c.top &^= 1 << (b >> 6)
		}
	}
	c.n--
	if ev == c.min {
		c.min, c.minAt = nil, math.MaxInt64
		if c.n > 0 {
			c.min = c.earliest(c.occupied(b), ev.at)
			c.minAt = c.min.at
		}
	}
}

// occupied returns the first non-empty bucket at or after b, wrapping round;
// the calendar is not empty.
func (c *calendar) occupied(b int) int {
	w := b >> 6
	if m := c.words[w] >> (b & 63); m != 0 {
		return b + bits.TrailingZeros64(m)
	}
	t := c.top &^ (2<<w - 1) // the words after w, else wrap round to all
	if t == 0 {
		t = c.top
	}
	w = bits.TrailingZeros64(t)
	return w<<6 + bits.TrailingZeros64(c.words[w])
}

// earliest scans bucket b for its first event of the smallest at; no event
// is earlier than floor, so one at floor is the answer.
func (c *calendar) earliest(b int, floor int64) *timerEvent {
	m := c.head[b]
	for ev := m.next; ev != nil && m.at != floor; ev = ev.next {
		if ev.at < m.at {
			m = ev
		}
	}
	return m
}

// --- 4-ary min-heap on (at, seq): the far timers ---
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
	a []entry
}

func (h *eventHeap) push(ev *timerEvent, seq uint64) {
	ev.queue = inFar
	h.a = append(h.a, entry{})
	h.siftUp(len(h.a)-1, entry{at: ev.at, seq: seq, ev: ev})
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
