package kernel

import "fmt"

// ConnID identifies a simulated connection. IDs are never reused: a Conn
// object recycled through the stack's pool gets a fresh ID, so the ID doubles
// as the object's generation stamp (see ConnRef).
type ConnID uint64

// Conn is an established TCP connection. It is created when the simulated
// three-way handshake completes (SYN delivery in this model) and lives until
// the worker closes its socket. A Conn holds its connection Socket by value,
// so the pair is one object, and pairs are pooled: after close they return to
// the NetStack's slab and a later handshake may reincarnate them under a
// fresh ID. Holders that retain a *Conn across virtual-time events must hold
// a ConnRef instead and re-validate before use; a bare *Conn is only safe
// within the event that obtained it.
type Conn struct {
	ID    ConnID
	Tuple FourTuple
	Hash  uint32 // precomputed 4-tuple hash
	// EstablishedNS is the virtual time the handshake completed.
	EstablishedNS int64
	// AcceptedNS is the virtual time a worker accepted the connection
	// (-1 until then). AcceptedNS-EstablishedNS is accept-queue delay.
	AcceptedNS int64
	// Meta carries opaque application/workload data (e.g. request cost
	// model parameters) through the kernel untouched.
	Meta any

	sock Socket // the connection socket sitting in / popped from an accept queue
	// qnext links the accept queue the connection waits in (Socket.qfirst).
	// It is left as it was when Accept pops the connection and cleared when
	// the pair is reincarnated, so the newest queued connection's is nil.
	qnext *Conn
}

// Sock returns the connection socket created at handshake completion. The
// same socket object is what Accept hands to the worker, mirroring how a
// real accept() returns an fd for an already-existing kernel socket.
func (c *Conn) Sock() *Socket { return &c.sock }

// Ref returns a generation-checked weak handle to the connection.
func (c *Conn) Ref() ConnRef { return ConnRef{c: c, id: c.ID} }

// ConnRef is a weak, generation-checked handle to a Conn — the pooled
// analogue of sim.Timer for timer events. It is a value: copying is free,
// and a handle that outlives its connection is harmless. Because ConnIDs
// are never reused, Get detects when the underlying object has been
// recycled into a different connection and returns nil instead of the
// impostor. Workload generators and other cross-event holders guard with
//
//	c := ref.Get()
//	if c == nil || c.Sock().Closed() { ... connection is gone ... }
//
// which behaves exactly as the pre-pool `conn.Sock().Closed()` check did:
// closed-but-not-yet-recycled connections still resolve (their fields are
// left intact until reuse), recycled ones do not.
type ConnRef struct {
	c  *Conn
	id ConnID
}

// Get returns the connection if the handle is still current, or nil if the
// object has been recycled into a different connection (or the handle is
// zero).
func (r ConnRef) Get() *Conn {
	if r.c == nil || r.c.ID != r.id {
		return nil
	}
	return r.c
}

// NextQueued returns the connection queued behind c on its listener's accept
// queue, or nil if c is the newest. With Socket.QueueHead it walks a queue
// oldest first without allocating; it means nothing once c is accepted.
func (c *Conn) NextQueued() *Conn { return c.qnext }

// ID returns the referenced connection's ID — the ID captured at Ref time,
// valid even after the object has been recycled.
func (r ConnRef) ID() ConnID { return r.id }

// Socket is a simulated kernel socket: either a listening socket with an
// accept queue, or an established connection socket with a receive queue.
// Epoll instances register on sockets via watches.
//
// Both queues are intrusive FIFOs, as in Linux: the accept queue links its
// connections through Conn.qnext (rskq_accept_head/tail), and the receive
// queue links one skb node per unread payload, taken from the stack's slab
// when the payload arrives and put back when it is read or the socket closes.
// Connection sockets are pooled together with their Conn (a slab chunk per 64
// peak-concurrent connections), so the steady-state connection lifecycle
// allocates nothing and no queue grows an array.
type Socket struct {
	ID        int
	Port      uint16
	Listening bool

	ns       *NetStack
	group    *ReuseportGroup // reuseport membership, nil for shared/conn sockets
	groupIdx int             // member index within group (worker id), 0 otherwise

	// Listening sockets: completed connections waiting for accept(),
	// oldest (qfirst) to newest (qlast), qlen of them.
	qfirst, qlast *Conn
	qlen          int
	acceptCap     int

	// Connection sockets: arrived-but-unread request payloads, oldest
	// (rxHead) to newest (rxTail), rxLen of them.
	conn           *Conn
	rxHead, rxTail *skb
	rxLen          int
	hup            bool // peer closed
	closed         bool

	// Owner is an opaque (tag, position) pair the accepting application
	// stores on the socket — per-worker conn-table bookkeeping without a
	// side map. Cleared on recycle.
	ownerTag int32
	ownerPos int32
	owned    bool

	// The socket wait queue: an intrusive doubly-linked list of epoll
	// registrations. watchHead is the list head; epoll_ctl prepends (head
	// insertion), which is what gives EPOLLEXCLUSIVE its LIFO bias (§2.2).
	watchHead *watch
	watchTail *watch
}

// skb is one payload on a connection socket's receive queue, the simulator's
// sk_buff. Nodes come from the NetStack's slab.
type skb struct {
	next *skb
	data any
}

// Conn returns the connection of a connection socket (nil for listeners).
func (s *Socket) Conn() *Conn { return s.conn }

// QueueLen returns the current accept-queue depth (listening sockets).
func (s *Socket) QueueLen() int { return s.qlen }

// QueueHead returns the oldest connection waiting in the accept queue
// (listening sockets), or nil if it is empty. Walk the rest with
// Conn.NextQueued, within the event.
func (s *Socket) QueueHead() *Conn { return s.qfirst }

// AcceptCap returns the accept-queue capacity (listening sockets).
func (s *Socket) AcceptCap() int { return s.acceptCap }

// SetAcceptCap changes the accept-queue capacity, as a listen(2) with a
// new backlog does. Shrinking below the current depth does not evict
// queued connections; it only makes new arrivals overflow.
func (s *Socket) SetAcceptCap(n int) {
	if !s.Listening {
		panic(fmt.Sprintf("kernel: SetAcceptCap on non-listening socket %d", s.ID))
	}
	if n < 1 {
		n = 1
	}
	s.acceptCap = n
}

// PendingData returns the number of unread payloads (connection sockets).
func (s *Socket) PendingData() int { return s.rxLen }

// Closed reports whether the worker has closed this socket.
func (s *Socket) Closed() bool { return s.closed }

// SetOwner stamps the application's (tag, position) bookkeeping on the
// socket — in the LB, the accepting worker's ID and the socket's index in
// that worker's connection table.
func (s *Socket) SetOwner(tag, pos int32) { s.ownerTag, s.ownerPos, s.owned = tag, pos, true }

// ClearOwner removes the owner stamp.
func (s *Socket) ClearOwner() { s.owned = false }

// Owner returns the owner stamp, ok=false if none is set.
func (s *Socket) Owner() (tag, pos int32, ok bool) { return s.ownerTag, s.ownerPos, s.owned }

// ready reports level-triggered readiness.
func (s *Socket) ready() bool {
	if s.closed {
		return false
	}
	if s.Listening {
		return s.QueueLen() > 0
	}
	return s.PendingData() > 0 || s.hup
}

// Accept dequeues the oldest completed connection, returning its connection
// socket, or ok=false if the queue is empty (EAGAIN). Mirrors accept(2) on a
// non-blocking listener.
func (s *Socket) Accept() (*Conn, bool) {
	if !s.Listening {
		panic(fmt.Sprintf("kernel: Accept on non-listening socket %d", s.ID))
	}
	c := s.qfirst
	if c == nil {
		return nil, false
	}
	if s.qfirst = c.qnext; s.qfirst == nil {
		s.qlast = nil
	}
	s.qlen--
	c.AcceptedNS = s.ns.eng.Now()
	return c, true
}

// PopData dequeues one pending payload from a connection socket, returning
// its skb to the stack's slab.
func (s *Socket) PopData() (any, bool) {
	n := s.rxHead
	if n == nil {
		return nil, false
	}
	if s.rxHead = n.next; s.rxHead == nil {
		s.rxTail = nil
	}
	s.rxLen--
	p := n.data
	n.next, n.data = nil, nil
	s.ns.skbs.Put(n)
	return p, true
}

// pushData appends a payload to the receive queue in an skb from the slab.
func (s *Socket) pushData(p any) {
	n := s.ns.skbs.Get()
	n.data = p
	if s.rxTail == nil {
		s.rxHead = n
	} else {
		s.rxTail.next = n
	}
	s.rxTail = n
	s.rxLen++
}

// Hup reports whether the peer has closed the connection.
func (s *Socket) Hup() bool { return s.hup }

// enqueueConn places a completed connection on the accept queue, waking
// waiters. Returns false on overflow (connection dropped).
func (s *Socket) enqueueConn(c *Conn) bool {
	if s.closed {
		return false
	}
	if s.QueueLen() >= s.acceptCap {
		if o := s.ns.obs; o != nil {
			o.qDropped.At(s.groupIdx).Inc()
		}
		return false
	}
	if s.qlast == nil {
		s.qfirst = c
	} else {
		s.qlast.qnext = c
	}
	s.qlast = c
	s.qlen++
	if o := s.ns.obs; o != nil {
		o.qEnqueued.At(s.groupIdx).Inc()
		o.qDepthPeak.At(s.groupIdx).SetMax(int64(s.QueueLen()))
	}
	s.ns.socketReady(s)
	return true
}

// addWatch prepends w to the wait queue, as epoll_ctl does on the socket
// wait queue. O(1), allocation-free.
func (s *Socket) addWatch(w *watch) {
	w.prev = nil
	w.next = s.watchHead
	if s.watchHead != nil {
		s.watchHead.prev = w
	} else {
		s.watchTail = w
	}
	s.watchHead = w
}

// removeWatch unlinks w from the wait queue. O(1).
func (s *Socket) removeWatch(w *watch) {
	if w.prev != nil {
		w.prev.next = w.next
	} else if s.watchHead == w {
		s.watchHead = w.next
	} else {
		return // not on this list
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		s.watchTail = w.prev
	}
	w.prev, w.next = nil, nil
}

// moveWatchToTail implements the epoll-rr discipline: after a wakeup the
// woken watcher is demoted to the tail of the wait queue.
func (s *Socket) moveWatchToTail(w *watch) {
	if s.watchTail == w {
		return
	}
	s.removeWatch(w)
	w.next = nil
	w.prev = s.watchTail
	if s.watchTail != nil {
		s.watchTail.next = w
	} else {
		s.watchHead = w
	}
	s.watchTail = w
}
