package kernel

import (
	"testing"
	"time"

	"hermes/internal/ebpf"
	"hermes/internal/sim"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

func tupleFor(src uint32, dport uint16) FourTuple {
	return FourTuple{SrcIP: src, DstIP: 0x0a000001, SrcPort: uint16(10000 + src%50000), DstPort: dport}
}

func TestFourTupleHashDeterministicAndSpread(t *testing.T) {
	a := tupleFor(1, 80).Hash()
	if a != tupleFor(1, 80).Hash() {
		t.Fatal("hash not deterministic")
	}
	if a == tupleFor(2, 80).Hash() && a == tupleFor(3, 80).Hash() {
		t.Fatal("hash suspiciously constant")
	}
	// Spread check over 4 buckets.
	var counts [4]int
	for i := uint32(0); i < 4000; i++ {
		counts[tupleFor(i, 80).Hash()%4]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d = %d, poor spread", i, c)
		}
	}
}

func TestDeliverSYNNoListener(t *testing.T) {
	ns := NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	if _, ok := ns.DeliverSYN(tupleFor(1, 80), nil); ok {
		t.Fatal("SYN to unbound port accepted")
	}
}

func TestSharedListenAcceptFlow(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, err := ns.ListenShared(80, 8)
	if err != nil {
		t.Fatal(err)
	}
	conn, ok := ns.DeliverSYN(tupleFor(1, 80), "meta")
	if !ok {
		t.Fatal("SYN rejected")
	}
	if conn.AcceptedNS != -1 {
		t.Fatal("conn marked accepted before accept()")
	}
	if ls.QueueLen() != 1 {
		t.Fatalf("queue len = %d", ls.QueueLen())
	}
	got, ok := ls.Accept()
	if !ok || got != conn {
		t.Fatal("Accept did not return the queued conn")
	}
	if got.Meta != "meta" || got.Sock() == nil || got.Sock().Conn() != got {
		t.Fatalf("conn wiring broken: %+v", got)
	}
	if got.AcceptedNS != eng.Now() {
		t.Fatal("AcceptedNS not stamped")
	}
	if _, ok := ls.Accept(); ok {
		t.Fatal("Accept on empty queue succeeded")
	}
}

func TestAcceptQueueOverflowDrops(t *testing.T) {
	ns, row := observedStack(1)
	ls, _ := ns.ListenShared(80, 2)
	refused := 0
	for i := uint32(0); i < 5; i++ {
		if _, ok := ns.DeliverSYN(tupleFor(i, 80), nil); !ok {
			refused++
		}
	}
	if ls.QueueLen() != 2 {
		t.Fatalf("queue len = %d, want 2", ls.QueueLen())
	}
	if d := row("kernel.accept_queue.dropped", 0); d != 3 || refused != 3 {
		t.Fatalf("dropped = %d, refused = %d, want 3,3", d, refused)
	}
	if ns.ConnsEstablished != 2 {
		t.Fatalf("ConnsEstablished = %d", ns.ConnsEstablished)
	}
}

func TestPortDoubleBindRejected(t *testing.T) {
	ns := NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	if _, err := ns.ListenShared(80, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.ListenShared(80, 0); err == nil {
		t.Fatal("double shared bind accepted")
	}
	if _, err := ns.ListenReuseport(80, 2, 0); err == nil {
		t.Fatal("reuseport bind over shared accepted")
	}
	if _, err := ns.ListenReuseport(81, 0, 0); err == nil {
		t.Fatal("empty reuseport group accepted")
	}
}

// observedStack builds an exclusive-LIFO stack observed with slots
// per-worker slots. row reads one slot of a kernel.* counter vector: the
// registry is where the stack's drop, dispatch and wakeup counts live.
func observedStack(slots int) (ns *NetStack, row func(name string, slot int) int64) {
	reg := telemetry.NewRegistry()
	ns = NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	ns.Observe(reg, nil, slots)
	return ns, func(name string, slot int) int64 {
		return reg.Snapshot().Get(name).Values[slot]
	}
}

// observedEpoll builds an observed stack with one epoll instance, bound to
// worker slot 0, watching a shared listener on port 80. epollRow reads that
// slot of a kernel.epoll.* counter.
func observedEpoll(t *testing.T) (eng *sim.Engine, ns *NetStack, ls *Socket, ep *Epoll, epollRow func(name string) int64) {
	t.Helper()
	ns, row := observedStack(1)
	ls, err := ns.ListenShared(80, 8)
	if err != nil {
		t.Fatal(err)
	}
	ep = ns.NewEpoll()
	ep.BindWorker(0)
	ep.Add(ls)
	return ns.eng, ns, ls, ep, func(name string) int64 { return row("kernel.epoll."+name, 0) }
}

func TestEpollWaitImmediate(t *testing.T) {
	eng, ns, ls, ep, epollRow := observedEpoll(t)
	ns.DeliverSYN(tupleFor(1, 80), nil)

	var got []Event
	ep.Wait(16, 5*time.Millisecond, func(evs []Event) { got = evs })
	eng.Run()
	if len(got) != 1 || got[0].Kind != EvAccept || got[0].Sock != ls {
		t.Fatalf("events = %+v", got)
	}
	if w, e := epollRow("wakeups"), epollRow("events"); w != 1 || e != 1 {
		t.Fatalf("wakeups = %d, events = %d, want 1 and 1", w, e)
	}
}

func TestEpollWaitTimeout(t *testing.T) {
	eng, _, _, ep, epollRow := observedEpoll(t)

	called := false
	start := eng.Now()
	ep.Wait(16, 5*time.Millisecond, func(evs []Event) {
		called = true
		if len(evs) != 0 {
			t.Errorf("timeout wait returned events: %v", evs)
		}
		if eng.Now()-start != int64(5*time.Millisecond) {
			t.Errorf("timeout fired at %d", eng.Now()-start)
		}
	})
	eng.Run()
	if !called {
		t.Fatal("timeout callback never fired")
	}
	if n := epollRow("timeouts"); n != 1 {
		t.Fatalf("timeouts = %d", n)
	}
}

func TestEpollWakeOnArrival(t *testing.T) {
	eng, ns, _, ep, epollRow := observedEpoll(t)

	var wokeAt int64 = -1
	ep.Wait(16, 5*time.Millisecond, func(evs []Event) {
		wokeAt = eng.Now()
		if len(evs) != 1 {
			t.Errorf("events = %v", evs)
		}
	})
	eng.After(time.Millisecond, func() { ns.DeliverSYN(tupleFor(1, 80), nil) })
	eng.Run()
	if wokeAt != int64(time.Millisecond) {
		t.Fatalf("woke at %d, want 1ms (not the 5ms timeout)", wokeAt)
	}
	if epollRow("timeouts") != 0 {
		t.Fatal("timeout fired despite wake")
	}
}

func TestEpollMaxEventsBatching(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	// Three ports, three ready listen sockets, maxEvents=2.
	ep := ns.NewEpoll()
	for p := uint16(80); p < 83; p++ {
		ls, _ := ns.ListenShared(p, 8)
		ep.Add(ls)
		ns.DeliverSYN(tupleFor(uint32(p), p), nil)
	}
	// The batch slice is only valid until the next Wait on the instance
	// (the kernel reuses the events buffer), so snapshot the sockets.
	var first, second []*Socket
	drain := func(evs []Event) []*Socket {
		socks := make([]*Socket, 0, len(evs))
		for _, e := range evs {
			e.Sock.Accept()
			socks = append(socks, e.Sock)
		}
		return socks
	}
	ep.Wait(2, time.Millisecond, func(evs []Event) { first = drain(evs) })
	eng.Run()
	ep.Wait(2, time.Millisecond, func(evs []Event) { second = drain(evs) })
	eng.Run()
	if len(first) != 2 || len(second) != 1 {
		t.Fatalf("batches = %d,%d, want 2,1", len(first), len(second))
	}
	// The socket left unserviced in batch 1 must appear in batch 2
	// (ready-list rotation prevents starvation).
	if second[0] == first[0] || second[0] == first[1] {
		t.Fatal("unserviced socket starved by ready-list ordering")
	}
}

// A level-triggered socket that stays ready rotates behind the ready ones
// its batch did not reach, an edge-triggered one leaves the list once
// collected, and one no longer ready leaves it when a walk reaches it.
func TestReadyListRotation(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ep := ns.NewEpoll()
	var ls []*Socket
	for p := uint16(80); p < 85; p++ {
		s, _ := ns.ListenShared(p, 8)
		ns.DeliverSYN(tupleFor(uint32(p), p), nil)
		if p < 84 {
			ep.Add(s)
		} else {
			ep.AddET(s)
		}
		ls = append(ls, s)
	}
	batch := func(max int) string {
		var got []byte
		ep.Wait(max, time.Millisecond, func(evs []Event) {
			for _, e := range evs {
				got = append(got, byte('0'+e.Sock.Port-80))
			}
		})
		eng.Run()
		return string(got)
	}
	for i, want := range []string{"012", "340", "", "230", "23", "023"} {
		if i == 2 {
			ls[1].Accept() // 1 is no longer ready
			continue
		}
		if got := batch([]int{3, 3, 0, 3, 2, 8}[i]); got != want {
			t.Fatalf("batch %d = %q, want %q", i, got, want)
		}
	}
}

func TestLevelTriggeredRetrigger(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	ep := ns.NewEpoll()
	ep.Add(ls)
	ns.DeliverSYN(tupleFor(1, 80), nil)
	ns.DeliverSYN(tupleFor(2, 80), nil)

	// Accept only one; the socket must remain ready for the next wait.
	ep.Wait(16, time.Millisecond, func(evs []Event) {
		if len(evs) != 1 {
			t.Fatalf("first batch = %v", evs)
		}
		evs[0].Sock.Accept()
	})
	eng.Run()
	var again []Event
	ep.Wait(16, time.Millisecond, func(evs []Event) { again = evs })
	eng.Run()
	if len(again) != 1 || again[0].Kind != EvAccept {
		t.Fatalf("socket with queued conn not re-reported: %v", again)
	}
}

func TestConnDataAndHangupEvents(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	conn, _ := ns.DeliverSYN(tupleFor(1, 80), nil)
	ls.Accept()

	ep := ns.NewEpoll()
	cs := conn.Sock()
	ep.Add(cs)

	req := Payload{ArrivalNS: 1, Cost: time.Microsecond, Close: true, Tenant: 80}
	ns.DeliverData(conn, req)
	ns.DeliverFIN(conn)

	// Readable takes precedence while data is pending.
	var kinds []EventKind
	ep.Wait(16, time.Millisecond, func(evs []Event) {
		for _, e := range evs {
			kinds = append(kinds, e.Kind)
			if e.Kind == EvReadable {
				p, ok := e.Sock.PopData()
				if !ok || p != req {
					t.Errorf("PopData = %v, %v", p, ok)
				}
			}
		}
	})
	eng.Run()
	ep.Wait(16, time.Millisecond, func(evs []Event) {
		for _, e := range evs {
			kinds = append(kinds, e.Kind)
		}
	})
	eng.Run()
	if len(kinds) != 2 || kinds[0] != EvReadable || kinds[1] != EvHangup {
		t.Fatalf("kinds = %v, want [readable hangup]", kinds)
	}
	if !cs.Hup() {
		t.Fatal("Hup not set")
	}
}

// DeliverData copies a Payload into the skb by value. Anything else a caller
// passes — nil, or the struct{}{} a bare kernel caller sends — arrives as the
// zero descriptor, as does every entry of a DeliverDataBurst with no
// payloads, and none of them disturbs a Payload queued beside it.
func TestDeliverDataNonPayloadIsZeroDescriptor(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	conn, _ := ns.DeliverSYN(tupleFor(1, 80), nil)
	ls.Accept()
	req := Payload{ArrivalNS: 7, Cost: time.Microsecond, Close: true, Probe: true, ProbeSrc: 2, Tenant: 80}
	ns.DeliverData(conn, nil)
	ns.DeliverData(conn, struct{}{})
	ns.DeliverData(conn, req)
	ns.DeliverDataBurst([]*Conn{conn}, nil)
	ns.DeliverDataBurst([]*Conn{nil, conn}, []any{req, &req})
	for i, want := range []Payload{{}, {}, req, {}, {}} {
		if p, ok := conn.Sock().PopData(); !ok || p != want {
			t.Fatalf("payload %d = %+v, %v; want %+v", i, p, ok, want)
		}
	}
	if p, ok := conn.Sock().PopData(); ok {
		t.Fatalf("PopData on an empty queue = %+v, true", p)
	}
	if _, _, skbs := ns.Live(); skbs != 0 {
		t.Fatalf("%d skbs out of the slab after every payload was read", skbs)
	}
}

func TestDataToClosedSocketDropped(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	conn, _ := ns.DeliverSYN(tupleFor(1, 80), nil)
	ls.Accept()
	ns.CloseSocket(conn.Sock())
	ns.DeliverData(conn, Payload{ArrivalNS: 1})
	ns.DeliverFIN(conn)
	if conn.Sock().PendingData() != 0 {
		t.Fatal("data queued on closed socket")
	}
}

func TestCloseSocketDeregisters(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	conn, _ := ns.DeliverSYN(tupleFor(1, 80), nil)
	ls.Accept()
	ep := ns.NewEpoll()
	ep.Add(conn.Sock())
	if ep.Watches() != 1 {
		t.Fatal("watch not registered")
	}
	ns.CloseSocket(conn.Sock())
	if ep.Watches() != 0 {
		t.Fatal("close did not deregister epoll watch")
	}
	_ = eng
}

// Exclusive LIFO: with all workers idle, the most recently registered
// watcher (head of wait queue) must win every wakeup.
func TestExclusiveLIFOPrefersLastRegistered(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 64)

	const n = 4
	wakes := make([]int, n)
	eps := make([]*Epoll, n)
	for i := 0; i < n; i++ {
		eps[i] = ns.NewEpoll()
		eps[i].Add(ls) // worker i registers; worker n-1 registers last
	}
	var rewait func(i int)
	rewait = func(i int) {
		eps[i].Wait(16, 50*time.Millisecond, func(evs []Event) {
			for _, e := range evs {
				if _, ok := e.Sock.Accept(); ok {
					wakes[i]++
				}
			}
			if eng.Pending() > 0 {
				rewait(i)
			}
		})
	}
	for i := 0; i < n; i++ {
		rewait(i)
	}
	for k := 0; k < 20; k++ {
		k := k
		eng.At(int64(k+1)*int64(time.Microsecond), func() {
			ns.DeliverSYN(tupleFor(uint32(k), 80), nil)
		})
	}
	eng.RunUntil(int64(40 * time.Microsecond))

	total := 0
	for _, w := range wakes {
		total += w
	}
	if total != 20 {
		t.Fatalf("accepted %d of 20; wakes=%v", total, wakes)
	}
	if wakes[n-1] != 20 {
		t.Fatalf("LIFO should give all conns to last-registered worker: %v", wakes)
	}
}

// Exclusive RR: wakeups must rotate across idle workers.
func TestExclusiveRRRotates(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveRR)
	ls, _ := ns.ListenShared(80, 64)

	const n = 4
	wakes := make([]int, n)
	eps := make([]*Epoll, n)
	var rewait func(i int)
	rewait = func(i int) {
		eps[i].Wait(16, 50*time.Millisecond, func(evs []Event) {
			for _, e := range evs {
				if _, ok := e.Sock.Accept(); ok {
					wakes[i]++
				}
			}
			rewait(i)
		})
	}
	for i := 0; i < n; i++ {
		eps[i] = ns.NewEpoll()
		eps[i].Add(ls)
		rewait(i)
	}
	for k := 0; k < 40; k++ {
		k := k
		eng.At(int64(k+1)*int64(time.Microsecond), func() {
			ns.DeliverSYN(tupleFor(uint32(k), 80), nil)
		})
	}
	eng.RunUntil(int64(80 * time.Microsecond))
	for i, w := range wakes {
		if w != 10 {
			t.Fatalf("RR should balance exactly: worker %d got %d, wakes=%v", i, w, wakes)
		}
	}
}

// Herd: all blocked workers wake; losers record spurious wakeups.
func TestHerdWakesAllAndCountsSpurious(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeHerd)
	ls, _ := ns.ListenShared(80, 64)

	const n = 4
	accepted := 0
	eps := make([]*Epoll, n)
	for i := 0; i < n; i++ {
		eps[i] = ns.NewEpoll()
		eps[i].Add(ls)
		eps[i].Wait(16, 50*time.Millisecond, func(evs []Event) {
			for _, e := range evs {
				if _, ok := e.Sock.Accept(); ok {
					accepted++
				}
			}
		})
	}
	eng.After(time.Microsecond, func() { ns.DeliverSYN(tupleFor(1, 80), nil) })
	eng.RunUntil(int64(10 * time.Microsecond))

	if accepted != 1 {
		t.Fatalf("accepted = %d, want 1", accepted)
	}
	spurious := uint64(0)
	for _, ep := range eps {
		spurious += ep.SpuriousWakeups
	}
	// One worker wins; with level-triggered collection the other three see
	// an already-drained socket: 3 spurious wakeups.
	if spurious != 3 {
		t.Fatalf("spurious = %d, want 3", spurious)
	}
}

// Exclusive: a busy (non-blocked) head worker must be skipped in favour of
// the next idle one.
func TestExclusiveSkipsBusyWorker(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 64)

	epBusy := ns.NewEpoll() // registered last → head of wait queue
	epIdle := ns.NewEpoll()
	epIdle.Add(ls)
	epBusy.Add(ls) // head

	woke := ""
	epIdle.Wait(16, 50*time.Millisecond, func(evs []Event) {
		if len(evs) > 0 {
			woke = "idle"
		}
	})
	// epBusy never calls Wait: it is "processing".
	eng.After(time.Microsecond, func() { ns.DeliverSYN(tupleFor(1, 80), nil) })
	eng.RunUntil(int64(10 * time.Microsecond))
	if woke != "idle" {
		t.Fatalf("idle worker not woken (woke=%q)", woke)
	}
}

func TestReuseportHashDispatchBalanced(t *testing.T) {
	ns, row := observedStack(8)
	g, _ := ns.ListenReuseport(80, 8, 0)
	const conns = 8000
	for i := uint32(0); i < conns; i++ {
		ns.DeliverSYN(FourTuple{SrcIP: i * 2654435761, SrcPort: uint16(i), DstIP: 9, DstPort: 80}, nil)
	}
	if g.HashDispatched != conns {
		t.Fatalf("HashDispatched = %d", g.HashDispatched)
	}
	for i := range g.Sockets() {
		got := row("kernel.reuseport.steered", i)
		if got < conns/8*7/10 || got > conns/8*13/10 {
			t.Errorf("socket %d got %d conns, poor balance", i, got)
		}
	}
}

func TestReuseportNativeOverrideAndFallback(t *testing.T) {
	ns, row := observedStack(4)
	g, _ := ns.ListenReuseport(80, 4, 0)
	target := g.Sockets()[2]
	g.AttachNative(func(hash, _ uint32) (*Socket, bool) {
		if hash%2 == 0 {
			return target, true
		}
		return nil, false // decline → hash fallback
	})
	for i := uint32(0); i < 1000; i++ {
		ns.DeliverSYN(tupleFor(i, 80), nil)
	}
	if g.ProgDispatched == 0 || g.Fallbacks == 0 {
		t.Fatalf("override stats: dispatched=%d fallbacks=%d", g.ProgDispatched, g.Fallbacks)
	}
	if g.ProgDispatched+g.Fallbacks != 1000 {
		t.Fatalf("dispatch accounting broken: %d+%d != 1000", g.ProgDispatched, g.Fallbacks)
	}
	if row("kernel.reuseport.steered", 2) < 400 {
		t.Fatal("override did not steer even half the traffic")
	}
}

func TestReuseportRejectsForeignSocket(t *testing.T) {
	ns := NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	g, _ := ns.ListenReuseport(80, 2, 0)
	g2, _ := ns.ListenReuseport(81, 2, 0)
	foreign := g2.Sockets()[0]
	g.AttachNative(func(_, _ uint32) (*Socket, bool) { return foreign, true })
	ns.DeliverSYN(tupleFor(1, 80), nil)
	if g.Fallbacks != 1 {
		t.Fatalf("foreign socket not rejected: fallbacks=%d", g.Fallbacks)
	}
	if foreign.QueueLen() != 0 {
		t.Fatal("conn landed on foreign socket")
	}
}

func TestReuseportEBPFProgramDispatch(t *testing.T) {
	ns, row := observedStack(4)
	g, _ := ns.ListenReuseport(80, 4, 0)
	sa := ebpf.NewSockArray(4)
	for i, s := range g.Sockets() {
		if err := sa.Put(uint32(i), s); err != nil {
			t.Fatal(err)
		}
	}
	// Program: always select socket 3.
	a := ebpf.NewAssembler()
	slot := a.AddMap(sa)
	a.LdMap(R1sock, slot)
	a.MovImm(ebpf.R2, 3)
	a.Call(ebpf.HelperSkSelectReuseport)
	a.Exit()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	g.AttachProgram(p)
	for i := uint32(0); i < 100; i++ {
		ns.DeliverSYN(tupleFor(i, 80), nil)
	}
	if g.ProgDispatched != 100 {
		t.Fatalf("ProgDispatched = %d (fallbacks=%d errors=%d)", g.ProgDispatched, g.Fallbacks, g.ProgErrors)
	}
	if got := row("kernel.reuseport.steered", 3); got != 100 {
		t.Fatalf("socket 3 got %d conns", got)
	}
}

// R1sock avoids importing ebpf.R1 twice with a clash in the test above.
const R1sock = ebpf.R1

func TestRSSSteersEvenly(t *testing.T) {
	r := NewRSS(8)
	for i := uint32(0); i < 80000; i++ {
		q := r.Steer(i*2654435761, 1500)
		if q < 0 || q >= 8 {
			t.Fatalf("queue %d out of range", q)
		}
	}
	for q, c := range r.Packets {
		if c < 8000 || c > 12000 {
			t.Errorf("queue %d packets = %d, uneven", q, c)
		}
		if r.Bytes[q] != c*1500 {
			t.Errorf("queue %d bytes = %d", q, r.Bytes[q])
		}
	}
	if r.Queues() != 8 {
		t.Fatal("Queues() wrong")
	}
}

func TestWakeModeStrings(t *testing.T) {
	if WakeHerd.String() != "herd" || WakeExclusiveLIFO.String() != "exclusive" || WakeExclusiveRR.String() != "exclusive-rr" {
		t.Fatal("mode strings")
	}
	if EvAccept.String() != "accept" || EvReadable.String() != "readable" || EvHangup.String() != "hangup" {
		t.Fatal("event kind strings")
	}
}

func TestEpollKick(t *testing.T) {
	eng, _, _, ep, epollRow := observedEpoll(t)

	// Kick on a non-blocked epoll is a no-op.
	ep.Kick()
	if epollRow("wakeups") != 0 {
		t.Fatal("kick on idle epoll produced a wait completion")
	}

	woke := false
	ep.Wait(16, 50*time.Millisecond, func(evs []Event) {
		woke = true
		if len(evs) != 0 {
			t.Errorf("kick delivered events: %v", evs)
		}
	})
	eng.After(time.Millisecond, ep.Kick)
	eng.RunUntil(int64(5 * time.Millisecond))
	if !woke {
		t.Fatal("kick did not wake the waiter")
	}
	if epollRow("timeouts") != 0 {
		t.Fatal("timeout fired despite kick")
	}
}

// A reuseport port whose every member socket has been closed (a tenant taken
// off the device) is unbound: the next SYN takes the no-listener
// path — the selector is not run, nothing is booked as a fallback or as an
// accept-queue overflow — and the port can be bound again. With a member
// still open the group stays bound.
func TestReuseportGroupUnbindsWithLastMember(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	tracer := tracing.New(tracing.Config{})
	ns.Observe(nil, tracer, 4)
	g, err := ns.ListenReuseport(80, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	selectorRuns := 0
	g.AttachNative(func(hash, _ uint32) (*Socket, bool) {
		selectorRuns++
		return nil, false
	})
	if _, ok := ns.DeliverSYN(tupleFor(1, 80), nil); !ok {
		t.Fatal("SYN to the live group refused")
	}
	if selectorRuns != 1 || g.Fallbacks != 1 {
		t.Fatalf("live group: selector ran %d times, Fallbacks = %d, want 1, 1", selectorRuns, g.Fallbacks)
	}

	for _, s := range g.Sockets()[1:] {
		ns.CloseSocket(s)
	}
	if ns.Group(80) != g {
		t.Fatal("group unbound while a member socket is still open")
	}
	ns.CloseSocket(g.Sockets()[0])
	if ns.Group(80) != nil {
		t.Fatal("group still bound after its last member closed")
	}

	if _, ok := ns.DeliverSYN(tupleFor(2, 80), nil); ok {
		t.Fatal("SYN to the dead port accepted")
	}
	if selectorRuns != 1 || g.Fallbacks != 1 {
		t.Errorf("dead port: selector ran %d times, Fallbacks = %d, want both still 1", selectorRuns, g.Fallbacks)
	}
	tracer.Flush()
	var dropSpans []tracing.Span
	for _, s := range tracer.Spans() {
		if s.Kind == tracing.KindDrop {
			dropSpans = append(dropSpans, s)
		}
	}
	if len(dropSpans) != 1 || dropSpans[0].Arg2 != 0 || tracing.Via(dropSpans[0].Arg) != tracing.ViaShared {
		t.Errorf("drop spans %+v, want one with overflow=false on the no-listener path", dropSpans)
	}

	if _, err := ns.ListenShared(80, 8); err != nil {
		t.Fatalf("port not re-bindable: %v", err)
	}
	if _, ok := ns.DeliverSYN(tupleFor(3, 80), nil); !ok {
		t.Fatal("SYN refused after re-binding")
	}
}

// The stack's pools count what they hand out: a connection pair is out from
// its handshake to its close, and a dropped SYN's pair goes straight back; a
// watch is out while its registration lasts; an skb while its payload is
// queued unread, and closing drops the unread ones. A pair reincarnated from
// the pool reads like a fresh one: new IDs, an empty receive queue, its
// socket, and no accept-queue link left from its last incarnation.
func TestPoolsCountPairsAndWatches(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, err := ns.ListenShared(80, 2)
	if err != nil {
		t.Fatal(err)
	}
	live := func(wantConns, wantWatches, wantSkbs int) {
		t.Helper()
		if c, w, b := ns.Live(); c != wantConns || w != wantWatches || b != wantSkbs {
			t.Fatalf("pools hold %d pairs, %d watches and %d skbs out, want %d, %d and %d", c, w, b, wantConns, wantWatches, wantSkbs)
		}
	}
	ep := ns.NewEpoll()
	ep.Add(ls)
	var conns []*Conn
	for i := uint32(1); i <= 4; i++ {
		if c, ok := ns.DeliverSYN(tupleFor(i, 80), nil); ok {
			conns = append(conns, c)
		}
	}
	if len(conns) != 2 || ls.QueueLen() != 2 || ls.QueueHead() != conns[0] || conns[0].NextQueued() != conns[1] || conns[1].NextQueued() != nil {
		t.Fatalf("%d SYNs queued (%d in the queue), want the first two of four on a backlog of 2, in order", len(conns), ls.QueueLen())
	}
	live(2, 1, 0)
	c, _ := ls.Accept()
	ep.Add(c.Sock())
	for i := int64(1); i <= 3; i++ {
		ns.DeliverData(c, Payload{ArrivalNS: i})
	}
	if p, ok := c.Sock().PopData(); !ok || p.ArrivalNS != 1 {
		t.Fatalf("PopData = %v, %v, want the first payload", p, ok)
	}
	live(2, 2, 2)
	old := c.ID
	ns.CloseSocket(c.Sock())
	live(1, 1, 0)
	again, ok := ns.DeliverSYN(tupleFor(9, 80), nil)
	if !ok {
		t.Fatal("SYN after an accept refused")
	}
	if again != c || again.ID == old || again.Sock().Conn() != again || again.Sock().PendingData() != 0 || again.Sock().Closed() {
		t.Fatalf("reincarnated pair: same object %v, ID %d (was %d), pending %d, closed %v",
			again == c, again.ID, old, again.Sock().PendingData(), again.Sock().Closed())
	}
	if ls.QueueLen() != 2 || ls.QueueHead() != conns[1] || conns[1].NextQueued() != again || again.NextQueued() != nil {
		t.Fatalf("accept queue after the reincarnation: %d deep, want the second SYN then the reincarnated pair, nothing after", ls.QueueLen())
	}
	live(2, 1, 0)
	ep.Close()
	live(2, 0, 0)
}
