package kernel

import (
	"fmt"
	"time"

	"hermes/internal/sim"
)

// EventKind classifies an epoll event for the application.
type EventKind uint8

// Event kinds.
const (
	// EvAccept: a listening socket has completed connections to accept.
	EvAccept EventKind = iota
	// EvReadable: a connection socket has unread request data.
	EvReadable
	// EvHangup: the peer closed and all data has been read.
	EvHangup
)

func (k EventKind) String() string {
	switch k {
	case EvAccept:
		return "accept"
	case EvReadable:
		return "readable"
	case EvHangup:
		return "hangup"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one entry of the batch returned by an epoll wait.
type Event struct {
	Kind EventKind
	Sock *Socket
}

// delivery is one scheduled wait completion. Immediate/zero-timeout waits
// carry their already-collected batch; wake-path deliveries collect at fire
// time (another worker may drain the sockets first — the spurious wakeup).
type delivery struct {
	fn   func([]Event)
	evs  []Event
	max  int
	wake bool
}

// watch ties one epoll instance to one socket. It is simultaneously the
// socket wait-queue entry (prev/next — list position is the wait-queue order
// the wakeup disciplines walk) and the epoll ready-list entry
// (readyPrev/readyNext), so registration, deregistration, wakeup walks, and
// ready-list removal are all O(1) pointer splices. Watches come from the
// NetStack's slab; gen is bumped on release so the fuzz harness can detect a
// stale handle surviving recycling.
type watch struct {
	ep   *Epoll
	sock *Socket
	// et marks edge-triggered registration (EPOLLET): the watch is armed
	// only by readiness *edges* (socketReady events); once collected it
	// leaves the ready list even if data remains, so the worker must drain
	// completely — the discipline whose failure mode is the worker hang of
	// Appendix C case 1.
	et      bool
	inReady bool
	gen     uint64

	// Socket wait-queue links (Socket.watchHead/watchTail).
	prev, next *watch
	// Epoll ready-list links (Epoll.readyHead/readyTail).
	readyPrev, readyNext *watch
	// Epoll interest-list links (Epoll.watchHead). The third intrusive
	// list: an epoll's interest set is a linked list off the instance, not
	// a map, so registration never rehashes as connection counts grow.
	epPrev, epNext *watch
}

// Epoll simulates one epoll instance, owned by exactly one worker (the
// paper's workers each run a private instance; shared listen sockets are
// what couple them). Wait is asynchronous: the callback fires on the virtual
// clock when events are ready or the timeout lapses.
type Epoll struct {
	ID int

	ns *NetStack
	// Interest list: intrusive list of this instance's watches. Lookup by
	// socket goes through the socket's (short) wait-queue list instead of
	// a map: a connection socket has at most one watcher, a listener has
	// one per worker — and the map's per-conn rehash growth at 1M-conn
	// scale was the kernel's last steady-state allocator.
	watchHead *watch
	nWatch    int
	// Ready list: intrusive FIFO of watches with pending readiness.
	readyHead *watch
	readyTail *watch

	// The blocked waiter, embedded (one Wait is outstanding at a time, so
	// no separate waiter object is needed).
	waiting bool
	wMax    int
	wFn     func([]Event)
	wTimer  sim.Timer

	// The pending-delivery queue. Each delivery event (an epollDeliver,
	// scheduled for the current instant) corresponds to exactly one queue
	// entry, and same-time engine events fire FIFO, so deliveries fire in
	// schedule order — several can be outstanding at once (a callback
	// re-entering Wait immediately, or driver code issuing nonblocking
	// Waits back to back). The queue is head-indexed and reused, and starts
	// on pendInline, so scheduling allocates nothing unless more deliveries
	// are outstanding at once than it holds.
	pendQ      []delivery
	pendQHead  int
	pendInline [2]delivery

	// evBuf backs the batch returned by collect. It starts on evInline and
	// grows to a whole batch (maxEvents) the first time more watches are
	// ready than that holds. One wait per instance is outstanding at a
	// time, so a batch is reused only after its consumer has re-entered
	// Wait (the batch is valid until the next Wait or Kick on this
	// instance).
	evBuf    []Event
	evInline [4]Event

	// SpuriousWakeups counts wakes that delivered zero events (thundering
	// herd waste); the worker charges each one. Wakeups, timeouts and events
	// are the kernel.epoll.* rows (observe.go).
	SpuriousWakeups  uint64
	LastBlockStartNS int64 // when the current/last block began

	obs *epollObs // nil until BindWorker on an observed stack
}

// epollDeliver and epollTimeout are an Epoll seen as the sim.Handler of its
// delivery and timeout events. Converting the *Epoll is free, so an instance
// schedules its events with no closure or method value of its own.
type (
	epollDeliver Epoll
	epollTimeout Epoll
)

func (d *epollDeliver) Fire() { (*Epoll)(d).deliver() }
func (t *epollTimeout) Fire() { (*Epoll)(t).onTimeout() }

// Add registers a socket with this epoll instance (EPOLL_CTL_ADD) in
// level-triggered mode. The exclusive-vs-herd wakeup discipline is a
// NetStack-wide mode, matching the deployment choices the paper compares.
func (ep *Epoll) Add(s *Socket) { ep.add(s, false) }

// AddET registers a socket in edge-triggered mode (EPOLLET): events fire on
// readiness transitions only, and the worker must drain the socket fully or
// it will never be notified again — Nginx's discipline, and the mechanism
// behind the buffer-draining worker hangs of Appendix C.
func (ep *Epoll) AddET(s *Socket) { ep.add(s, true) }

func (ep *Epoll) add(s *Socket, et bool) {
	if ep.findWatch(s) != nil {
		panic(fmt.Sprintf("kernel: epoll %d already watches socket %d", ep.ID, s.ID))
	}
	w := ep.ns.watches.Get()
	w.ep = ep
	w.sock = s
	w.et = et
	ep.watchAttach(w)
	s.addWatch(w)
	if s.ready() {
		ep.markReady(w)
	}
}

// Del removes a socket (EPOLL_CTL_DEL).
func (ep *Epoll) Del(s *Socket) {
	w := ep.findWatch(s)
	if w == nil {
		return
	}
	ep.watchDetach(w)
	s.removeWatch(w)
	ep.readyRemove(w)
	ep.ns.releaseWatch(w)
}

// findWatch resolves this instance's watch on s by walking the socket's
// wait queue — O(watchers on s), which is 1 for connection sockets and
// #workers for a shared listener.
func (ep *Epoll) findWatch(s *Socket) *watch {
	for w := s.watchHead; w != nil; w = w.next {
		if w.ep == ep {
			return w
		}
	}
	return nil
}

func (ep *Epoll) watchAttach(w *watch) {
	w.epNext = ep.watchHead
	if ep.watchHead != nil {
		ep.watchHead.epPrev = w
	}
	ep.watchHead = w
	ep.nWatch++
}

func (ep *Epoll) watchDetach(w *watch) {
	if w.epPrev != nil {
		w.epPrev.epNext = w.epNext
	} else {
		ep.watchHead = w.epNext
	}
	if w.epNext != nil {
		w.epNext.epPrev = w.epPrev
	}
	w.epPrev, w.epNext = nil, nil
	ep.nWatch--
}

// Watches returns the number of sockets in the interest list.
func (ep *Epoll) Watches() int { return ep.nWatch }

func (ep *Epoll) markReady(w *watch) {
	if w.inReady {
		return
	}
	w.inReady = true
	w.readyNext = nil
	w.readyPrev = ep.readyTail
	if ep.readyTail != nil {
		ep.readyTail.readyNext = w
	} else {
		ep.readyHead = w
	}
	ep.readyTail = w
}

// readyRemove unlinks w from the ready list if present. O(1).
func (ep *Epoll) readyRemove(w *watch) {
	if !w.inReady {
		return
	}
	w.inReady = false
	if w.readyPrev != nil {
		w.readyPrev.readyNext = w.readyNext
	} else {
		ep.readyHead = w.readyNext
	}
	if w.readyNext != nil {
		w.readyNext.readyPrev = w.readyPrev
	} else {
		ep.readyTail = w.readyPrev
	}
	w.readyPrev, w.readyNext = nil, nil
}

// collect drains up to max events from ready sockets (level-triggered: a
// socket that stays ready is kept on the ready list for the next wait).
func (ep *Epoll) collect(max int) []Event {
	if max <= 0 {
		max = 1
	}
	evs := ep.evBuf[:0]
	w := ep.readyHead
	for w != nil && len(evs) < max {
		next := w.readyNext
		s := w.sock
		if !s.ready() {
			ep.readyRemove(w)
			w = next
			continue
		}
		kind := EvHangup // hup with no pending data
		switch {
		case s.Listening:
			kind = EvAccept
		case s.PendingData() > 0:
			kind = EvReadable
		}
		if len(evs) == cap(evs) {
			evs = append(make([]Event, 0, max), evs...)
		}
		evs = append(evs, Event{Kind: kind, Sock: s})
		if w.et {
			// Edge-triggered: collected once per edge; the socket drops off
			// the ready list even if data remains.
			ep.readyRemove(w)
		}
		w = next
	}
	// Level-triggered: serviced sockets stay on the list but rotate to the
	// tail (as Linux requeues LT fds) so unserviced ready sockets are not
	// starved when batches are capped by maxEvents. Every watch the walk
	// visited either left the list or was serviced and stayed, so the
	// serviced ones are the list from its head up to w, in order: one splice
	// moves them behind the rest.
	if w != nil && w != ep.readyHead {
		first, last := ep.readyHead, w.readyPrev
		last.readyNext, w.readyPrev = nil, nil
		ep.readyTail.readyNext, first.readyPrev = first, ep.readyTail
		ep.readyHead, ep.readyTail = w, last
	}
	ep.evBuf = evs
	return evs
}

// Wait models epoll_wait(maxEvents, timeout). The callback receives the
// event batch — possibly empty on timeout or spurious wakeup — on the
// virtual clock. A worker must not have two Waits outstanding. As with the
// real syscall's events array, the batch is owned by the epoll instance and
// is only valid until the next Wait or Kick; callers that retain events
// across waits must copy them.
func (ep *Epoll) Wait(maxEvents int, timeout time.Duration, fn func([]Event)) {
	if ep.waiting {
		panic(fmt.Sprintf("kernel: epoll %d has a Wait outstanding", ep.ID))
	}
	ep.LastBlockStartNS = ep.ns.eng.Now()

	if evs := ep.collect(maxEvents); len(evs) > 0 {
		if o := ep.obs; o != nil {
			o.waitDone(ep.LastBlockStartNS, ep.LastBlockStartNS, len(evs), false)
		}
		ep.schedule(delivery{fn: fn, evs: evs})
		return
	}
	if timeout == 0 {
		if o := ep.obs; o != nil {
			o.waitDone(ep.LastBlockStartNS, ep.LastBlockStartNS, 0, true)
		}
		ep.schedule(delivery{fn: fn})
		return
	}

	ep.waiting = true
	ep.wMax = maxEvents
	ep.wFn = fn
	if timeout > 0 {
		ep.wTimer = ep.ns.eng.Schedule(ep.ns.eng.Now()+int64(timeout), (*epollTimeout)(ep))
	}
}

// schedule enqueues a delivery and schedules its event for the current
// instant.
func (ep *Epoll) schedule(d delivery) {
	if len(ep.pendQ) == cap(ep.pendQ) && ep.pendQHead > 0 {
		n := copy(ep.pendQ, ep.pendQ[ep.pendQHead:])
		for i := n; i < len(ep.pendQ); i++ {
			ep.pendQ[i] = delivery{}
		}
		ep.pendQ = ep.pendQ[:n]
		ep.pendQHead = 0
	}
	ep.pendQ = append(ep.pendQ, d)
	ep.ns.eng.Schedule(ep.ns.eng.Now(), (*epollDeliver)(ep))
}

// deliver fires the oldest scheduled delivery.
func (ep *Epoll) deliver() {
	d := ep.pendQ[ep.pendQHead]
	ep.pendQ[ep.pendQHead] = delivery{}
	ep.pendQHead++
	if ep.pendQHead == len(ep.pendQ) {
		ep.pendQ = ep.pendQ[:0]
		ep.pendQHead = 0
	}
	if !d.wake {
		d.fn(d.evs)
		return
	}
	evs := ep.collect(d.max)
	if len(evs) == 0 {
		ep.SpuriousWakeups++
	}
	if o := ep.obs; o != nil {
		o.waitDone(ep.LastBlockStartNS, ep.ns.eng.Now(), len(evs), false)
	}
	d.fn(evs)
}

// onTimeout fires when a blocking Wait's timeout lapses with no events.
func (ep *Epoll) onTimeout() {
	if !ep.waiting {
		return
	}
	ep.waiting = false
	fn := ep.wFn
	ep.wFn = nil
	if o := ep.obs; o != nil {
		o.waitDone(ep.LastBlockStartNS, ep.ns.eng.Now(), 0, true)
		o.timeouts.Inc()
	}
	fn(nil)
}

// Blocked reports whether the owning worker is blocked in a Wait — the
// "idle" test the exclusive wakeup walk applies (§2.2, Fig. A2).
func (ep *Epoll) Blocked() bool { return ep.waiting }

// Close tears the instance down, as the kernel does when a process dies
// with an epoll fd open: the outstanding waiter (if any) is discarded
// without being called, and every watch is unhooked from its socket's
// wait queue so exclusive wakeup walks can no longer pick this instance.
// A closed instance must not be reused; crashed workers build a new one
// on restart.
func (ep *Epoll) Close() {
	if ep.waiting {
		ep.waiting = false
		ep.wFn = nil
		ep.wTimer.Cancel()
	}
	for ep.watchHead != nil {
		w := ep.watchHead
		w.sock.removeWatch(w)
		ep.readyRemove(w)
		ep.watchDetach(w)
		ep.ns.releaseWatch(w)
	}
	ep.readyHead, ep.readyTail = nil, nil
}

// Kick wakes the blocked waiter with whatever is ready (possibly nothing) —
// an eventfd-style userspace signal, used e.g. to hand off the accept mutex
// to a sleeping worker. No-op if the worker is not blocked.
func (ep *Epoll) Kick() { ep.wake() }

// wake unblocks the waiter, delivering whatever is ready at delivery time.
// If another worker drained the sockets first, the wakeup is spurious and
// the callback receives an empty batch (counted: this is the thundering
// herd's wasted CPU). The waiting flag is cleared synchronously — the
// exclusive wakeup walk relies on it to skip already-woken instances.
func (ep *Epoll) wake() {
	if !ep.waiting {
		return
	}
	ep.waiting = false
	ep.wTimer.Cancel()
	fn := ep.wFn
	ep.wFn = nil
	ep.schedule(delivery{fn: fn, max: ep.wMax, wake: true})
}
