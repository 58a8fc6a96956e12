package kernel

import (
	"fmt"

	"hermes/internal/sim"
	"hermes/internal/tracing"
)

// WakeMode selects the wait-queue wakeup discipline for shared listening
// sockets — the three epoll behaviours §2.2 compares.
type WakeMode uint8

// Wakeup disciplines.
const (
	// WakeHerd wakes every blocked watcher (pre-4.5 epoll): the thundering
	// herd. Only one wakee wins the connection; the rest burn a spurious
	// wakeup.
	WakeHerd WakeMode = iota
	// WakeExclusiveLIFO wakes the first blocked watcher from the wait-queue
	// head (EPOLLEXCLUSIVE). Because epoll_ctl inserts at the head, the most
	// recently registered non-busy worker is always preferred: the LIFO
	// concentration the paper measures.
	WakeExclusiveLIFO
	// WakeExclusiveRR is the unmerged epoll-rr patch: exclusive wakeup, but
	// the woken watcher is moved to the wait-queue tail.
	WakeExclusiveRR
	// WakeExclusiveFIFO wakes the first blocked watcher from the wait-queue
	// tail — io_uring's default interrupt-mode discipline (§8: "similar to
	// epoll, but in FIFO order"), which concentrates load on the
	// earliest-registered workers instead of the latest.
	WakeExclusiveFIFO
)

func (m WakeMode) String() string {
	switch m {
	case WakeHerd:
		return "herd"
	case WakeExclusiveLIFO:
		return "exclusive"
	case WakeExclusiveRR:
		return "exclusive-rr"
	case WakeExclusiveFIFO:
		return "exclusive-fifo"
	default:
		return fmt.Sprintf("WakeMode(%d)", uint8(m))
	}
}

// NetStack owns all sockets, ports, and epoll instances of one simulated
// machine, and implements connection arrival, data delivery, and wakeups.
//
// The per-connection fast path is allocation-free in steady state: Conn
// objects (each holding its connection Socket), epoll watches and the skbs
// of receive queues come from slabs and are recycled, so a long run's
// allocation count is bounded by peak concurrency over the slab chunk, not
// connection count (see docs/PERF.md).
type NetStack struct {
	// Mode is the wakeup discipline for shared listening sockets.
	Mode WakeMode

	eng         *sim.Engine
	ports       portTable
	groupsBound int // reuseport groups currently bound
	nextSockID  int
	nextConnID  uint64
	nextEpollID int

	// Pools. A pooled Conn keeps its connection Socket across incarnations;
	// a fresh ConnID is assigned on reuse, never on release, so handles held
	// across the recycle boundary (ConnRef) can detect it while same-event
	// post-close reads still see the old connection intact.
	conns   sim.Slab[Conn]
	watches sim.Slab[watch]
	skbs    sim.Slab[skb]

	// ConnsEstablished counts successfully queued connections.
	ConnsEstablished uint64

	obs *observer // nil until Observe
}

// portBinding is what listens on one port: a reuseport group, a shared
// socket, or (both nil) nothing. checkPortFree keeps the two exclusive.
type portBinding struct {
	group  *ReuseportGroup
	shared *Socket
}

// portTable maps a 16-bit port to its binding by index instead of by hash:
// 256 pages of 256 entries, a page allocated when a port in it is first
// bound. A lookup is two indexed loads; a device with 400 consecutive ports
// bound touches two or three pages.
type portTable [256]*[256]portBinding

// get returns the binding of port, empty if nothing was ever bound there. It
// never allocates.
func (t *portTable) get(port uint16) (b portBinding) {
	if pg := t[port>>8]; pg != nil {
		b = pg[port&0xff]
	}
	return b
}

// at returns the binding of port for writing, allocating its page on first
// use.
func (t *portTable) at(port uint16) *portBinding {
	pg := t[port>>8]
	if pg == nil {
		pg = new([256]portBinding)
		t[port>>8] = pg
	}
	return &pg[port&0xff]
}

// DefaultAcceptBacklog is the accept-queue capacity used when callers pass
// backlog ≤ 0 (listen(2)'s somaxconn role).
const DefaultAcceptBacklog = 1024

// NewNetStack creates a stack on the given engine.
func NewNetStack(eng *sim.Engine, mode WakeMode) *NetStack {
	return &NetStack{Mode: mode, eng: eng}
}

// SetBurstWidth does nothing. It set the width of wake-frame coalescing, which
// is gone (a same-instant wake trampoline is an O(1) ring push in sim.Engine);
// the method remains only because the frozen benchmark/surface.go calls it,
// and goes when a benchmark change drops that call.
func (ns *NetStack) SetBurstWidth(int) {}

// Engine returns the virtual clock this stack runs on.
func (ns *NetStack) Engine() *sim.Engine { return ns.eng }

// initListener makes s a fresh listening socket on port; connection sockets
// live in their Conn.
func (ns *NetStack) initListener(s *Socket, port uint16, backlog int) {
	if backlog <= 0 {
		backlog = DefaultAcceptBacklog
	}
	ns.nextSockID++
	*s = Socket{
		ID:        ns.nextSockID,
		Port:      port,
		Listening: true,
		acceptCap: backlog,
		ns:        ns,
	}
}

// Live returns how many connection pairs, epoll watches and skbs the stack's
// slabs have handed out and not taken back: the connection sockets still open
// (queued for accept or accepted), the live epoll registrations and the
// payloads queued unread on open connections, unless a pool leaks.
func (ns *NetStack) Live() (conns, watches, skbs int) {
	return ns.conns.Live(), ns.watches.Live(), ns.skbs.Live()
}

// releaseWatch returns an unhooked watch to the pool, bumping its generation
// so stale-handle checks can detect reuse. The caller must already have
// unlinked it from its socket wait queue and epoll ready list.
func (ns *NetStack) releaseWatch(w *watch) {
	w.ep = nil
	w.sock = nil
	w.et = false
	w.inReady = false
	w.gen++
	ns.watches.Put(w)
}

// ListenShared binds one listening socket to port, to be registered with
// multiple workers' epoll instances (the epoll-exclusive deployment).
func (ns *NetStack) ListenShared(port uint16, backlog int) (*Socket, error) {
	if err := ns.checkPortFree(port); err != nil {
		return nil, err
	}
	s := new(Socket)
	ns.initListener(s, port, backlog)
	ns.ports.at(port).shared = s
	return s, nil
}

// ListenReuseport binds n SO_REUSEPORT sockets to port, one per worker (the
// reuseport and Hermes deployments). The sockets are one block: they live
// and die with their group.
func (ns *NetStack) ListenReuseport(port uint16, n, backlog int) (*ReuseportGroup, error) {
	if err := ns.checkPortFree(port); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("kernel: reuseport group needs ≥1 sockets, got %d", n)
	}
	g := &ReuseportGroup{Port: port, ns: ns, socks: make([]*Socket, n)}
	ns.obs.observeReuseport()
	block := make([]Socket, n)
	for i := range block {
		s := &block[i]
		ns.initListener(s, port, backlog)
		s.group = g
		s.groupIdx = i
		g.socks[i] = s
	}
	ns.ports.at(port).group = g
	ns.groupsBound++
	return g, nil
}

func (ns *NetStack) checkPortFree(port uint16) error {
	b := ns.ports.get(port)
	if b.shared != nil {
		return fmt.Errorf("kernel: port %d already bound (shared)", port)
	}
	if b.group != nil {
		return fmt.Errorf("kernel: port %d already bound (reuseport)", port)
	}
	return nil
}

// Group returns the reuseport group bound to port, if any.
func (ns *NetStack) Group(port uint16) *ReuseportGroup { return ns.ports.get(port).group }

// SharedSocket returns the shared listening socket bound to port, if any.
func (ns *NetStack) SharedSocket(port uint16) *Socket { return ns.ports.get(port).shared }

// NewEpoll creates an epoll instance (epoll_create).
func (ns *NetStack) NewEpoll() *Epoll {
	ns.nextEpollID++
	ep := &Epoll{ID: ns.nextEpollID, ns: ns}
	ep.pendQ = ep.pendInline[:0]
	ep.evBuf = ep.evInline[:0]
	return ep
}

// DeliverSYN completes a handshake for a connection to tuple.DstPort: the
// kernel selects a listening socket (reuseport hash / attached program /
// shared socket), creates the connection socket, and queues it for accept.
// Returns ok=false if there is no listener or the accept queue overflowed.
func (ns *NetStack) DeliverSYN(tuple FourTuple, meta any) (*Conn, bool) {
	b := ns.ports.get(tuple.DstPort)
	return ns.deliverSYNResolved(tuple, meta, b.group, b.shared)
}

// deliverSYNResolved is DeliverSYN past port resolution: the listener (g or
// s, both possibly nil for an unbound port) has already been looked up, so
// burst callers pay the lookup once per run of equal destination ports.
func (ns *NetStack) deliverSYNResolved(tuple FourTuple, meta any, g *ReuseportGroup, s *Socket) (*Conn, bool) {
	var target *Socket
	via := tracing.ViaShared
	worker := tracing.KernelTrack
	hash := tuple.Hash()
	if g != nil {
		target, via = g.selectSocket(hash, tuple.LocalityHash())
		worker = int32(target.groupIdx)
	} else if s != nil {
		target = s
	} else {
		if o := ns.obs; o != nil {
			o.tr.ConnDropped(ns.eng.Now(), tracing.ViaShared, false)
		}
		return nil, false
	}

	// A pooled pair is reincarnated, or a fresh one set up; either way the
	// conn ID comes first, then a fresh socket ID.
	ns.nextConnID++
	c := ns.conns.Get()
	cs := &c.sock
	if cs.ns == nil {
		cs.ns, cs.conn = ns, c
	}
	ns.nextSockID++
	cs.ID = ns.nextSockID
	cs.Port = tuple.DstPort
	cs.hup = false
	cs.closed = false
	cs.owned = false
	c.ID = ConnID(ns.nextConnID)
	c.Tuple = tuple
	c.Hash = hash
	c.EstablishedNS = ns.eng.Now()
	c.AcceptedNS = -1
	c.Meta = meta
	c.qnext = nil

	if !target.enqueueConn(c) {
		if o := ns.obs; o != nil {
			o.tr.ConnDropped(ns.eng.Now(), via, true)
		}
		// Never exposed; recycle immediately (the conn ID stays consumed,
		// as it was before pooling).
		ns.conns.Put(c)
		return nil, false
	}
	ns.ConnsEstablished++
	if o := ns.obs; o != nil {
		o.tr.ConnEstablished(uint64(c.ID), c.EstablishedNS, worker, via)
	}
	return c, true
}

// DeliverSYNBurst completes handshakes for a batch of same-tick arrivals —
// the NIC-burst idiom: one engine event carries the whole vector instead of
// one event per SYN. It is observably identical to calling DeliverSYN for
// each tuple, in order, within one engine event. metas may be nil (all-nil
// metadata). Results append to conns (nil entry per drop) so callers can
// reuse a scratch slice allocation-free.
func (ns *NetStack) DeliverSYNBurst(tuples []FourTuple, metas []any, conns []*Conn) []*Conn {
	// Port resolution is hoisted per run of equal destination ports — a
	// NIC burst is usually single-port, so the lookup amortizes across
	// the vector. Safe within one call: no listener can be bound or closed
	// mid-burst (worker reactions are deferred engine events).
	var (
		b        portBinding
		port     uint16
		resolved bool
	)
	for i := range tuples {
		if p := tuples[i].DstPort; !resolved || p != port {
			port, resolved = p, true
			b = ns.ports.get(p)
		}
		var m any
		if metas != nil {
			m = metas[i]
		}
		c, _ := ns.deliverSYNResolved(tuples[i], m, b.group, b.shared)
		conns = append(conns, c)
	}
	return conns
}

// DeliverDataBurst makes a batch of payloads readable on their connections
// within one engine event — observably identical to calling DeliverData for
// each non-nil conn in order. payloads may be nil (all-nil payloads); nil
// conns (drops from DeliverSYNBurst) are skipped.
func (ns *NetStack) DeliverDataBurst(conns []*Conn, payloads []any) {
	for i, c := range conns {
		if c == nil {
			continue
		}
		var p any
		if payloads != nil {
			p = payloads[i]
		}
		ns.DeliverData(c, p)
	}
}

// DeliverData makes payload readable on an established connection. Data
// arriving for a closed connection is silently dropped (peer will see RST in
// a real stack).
func (ns *NetStack) DeliverData(c *Conn, payload any) {
	s := &c.sock
	if s.closed {
		return
	}
	s.pushData(payload)
	ns.socketReady(s)
}

// DeliverFIN marks the peer side of the connection closed.
func (ns *NetStack) DeliverFIN(c *Conn) {
	s := &c.sock
	if s.closed || s.hup {
		return
	}
	s.hup = true
	ns.socketReady(s)
}

// CloseSocket closes a socket from the worker side, deregistering it from
// every epoll instance watching it (close(2) removes epoll registrations).
// A closed connection socket drops its unread payloads, their skbs going back
// to the slab, and returns to the pool with its Conn; its other fields stay
// intact until a later handshake reincarnates the pair under a fresh ConnID,
// so reads within the closing event chain still see the old connection
// (cross-event holders must revalidate via ConnRef).
func (ns *NetStack) CloseSocket(s *Socket) {
	if s.closed {
		return
	}
	s.closed = true
	for s.watchHead != nil {
		s.watchHead.ep.Del(s)
	}
	if s.Listening {
		// Unbind the port once nothing listens on it: a shared socket at
		// once, a reuseport group when its last member closes.
		if s.group == nil {
			ns.ports.at(s.Port).shared = nil
		} else if s.group.allClosed() {
			ns.ports.at(s.Port).group = nil
			ns.groupsBound--
		}
	} else if s.conn != nil {
		for s.rxHead != nil {
			s.PopData()
		}
		ns.conns.Put(s.conn)
	}
}

// socketReady records readiness in every watching epoll and applies the
// wakeup discipline. The wait queue is walked in place: wake() only
// schedules delivery (it never relinks wait-queue entries synchronously),
// so no snapshot of the watcher list is needed.
func (ns *NetStack) socketReady(s *Socket) {
	for w := s.watchHead; w != nil; w = w.next {
		w.ep.markReady(w)
	}
	if o := ns.obs; o != nil {
		o.wakes.Inc()
	}
	switch ns.Mode {
	case WakeHerd:
		for w := s.watchHead; w != nil; w = w.next {
			w.ep.wake()
		}
	case WakeExclusiveLIFO:
		for w := s.watchHead; w != nil; w = w.next {
			if w.ep.Blocked() {
				w.ep.wake()
				return
			}
		}
	case WakeExclusiveRR:
		for w := s.watchHead; w != nil; w = w.next {
			if w.ep.Blocked() {
				w.ep.wake()
				s.moveWatchToTail(w)
				return
			}
		}
	case WakeExclusiveFIFO:
		for w := s.watchTail; w != nil; w = w.prev {
			if w.ep.Blocked() {
				w.ep.wake()
				return
			}
		}
	}
}
