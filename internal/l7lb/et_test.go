package l7lb

import (
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/sim"
)

// Kernel-level ET contract: a collected-but-undrained socket is not
// re-reported until a new edge (fresh data) arrives.
func TestEdgeTriggeredKernelContract(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	conn, _ := ns.DeliverSYN(kernel.FourTuple{SrcIP: 1, SrcPort: 2, DstIP: 3, DstPort: 80}, nil)
	ls.Accept()

	ep := ns.NewEpoll()
	ep.AddET(conn.Sock())
	ns.DeliverData(conn, "a")
	ns.DeliverData(conn, "b")

	var got int
	ep.Wait(16, time.Millisecond, func(evs []kernel.Event) {
		got = len(evs)
		if got == 1 {
			evs[0].Sock.PopData() // consume only "a": leaves "b" stuck
		}
	})
	eng.Run()
	if got != 1 {
		t.Fatalf("first wait events = %d, want 1", got)
	}

	// No new edge: the stuck payload must NOT retrigger (the ET trap).
	timedOut := false
	ep.Wait(16, time.Millisecond, func(evs []kernel.Event) { timedOut = len(evs) == 0 })
	eng.Run()
	if !timedOut {
		t.Fatal("ET socket retriggered without a new edge")
	}

	// A new arrival re-arms the watch.
	ns.DeliverData(conn, "c")
	var kinds []kernel.EventKind
	ep.Wait(16, time.Millisecond, func(evs []kernel.Event) {
		for _, e := range evs {
			kinds = append(kinds, e.Kind)
		}
	})
	eng.Run()
	if len(kinds) != 1 || kinds[0] != kernel.EvReadable {
		t.Fatalf("re-arm failed: %v", kinds)
	}
	if conn.Sock().PendingData() != 2 {
		t.Fatalf("pending = %d, want 2 (b and c)", conn.Sock().PendingData())
	}
}

// The Appendix C hang: under ET, a connection whose data arrives faster than
// the worker processes it traps the worker in the drain loop; its loop
// timestamp goes stale and Hermes routes new connections around it, while
// the same worker under LT interleaves other work.
func TestEdgeTriggeredDrainTrapsWorkerAndHermesBypasses(t *testing.T) {
	eng := sim.NewEngine(2)
	cfg := DefaultConfig(ModeHermes)
	cfg.Workers = 4
	cfg.EdgeTriggered = true
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()

	// Victim connection: 100 payloads of 4ms each delivered every 1ms —
	// upstream outpaces processing, so the drain never completes.
	victim := openConn(t, lb, 1, 8080)
	eng.After(time.Millisecond, func() {
		var feed func(n int)
		feed = func(n int) {
			if n == 0 || victim.Sock().Closed() {
				return
			}
			sendReq(lb, victim, 4*time.Millisecond, false)
			eng.After(time.Millisecond, func() { feed(n - 1) })
		}
		feed(100)
	})
	eng.RunUntil(int64(50 * time.Millisecond))

	var trapped *Worker
	for _, w := range lb.Workers {
		if w.OwnsConn(victim.Sock()) {
			trapped = w
		}
	}
	if trapped == nil {
		t.Fatal("victim unowned")
	}

	// Pour in short connections: none may land on the trapped worker.
	for i := 0; i < 200; i++ {
		i := i
		eng.At(int64(60*time.Millisecond)+int64(i)*int64(200*time.Microsecond), func() {
			c := openConn(t, lb, uint32(100+i), 8080)
			eng.After(50*time.Microsecond, func() {
				sendReq(lb, c, 10*time.Microsecond, true)
			})
		})
	}
	eng.RunUntil(int64(200 * time.Millisecond))

	if q := lb.Groups()[0].Sockets()[trapped.ID].QueueLen(); q != 0 {
		t.Fatalf("hermes sent %d conns to the ET-trapped worker", q)
	}
	served := uint64(0)
	for _, w := range lb.Workers {
		if w != trapped {
			served += w.Completed
		}
	}
	if served < 190 {
		t.Fatalf("healthy workers served only %d of 200", served)
	}
	// The trapped worker is still mid-drain (or just finished a long one):
	// its completed count is dominated by victim payloads, each 4ms.
	if trapped.Completed > 60 {
		t.Fatalf("trapped worker completed %d events — not trapped?", trapped.Completed)
	}
}

// Proactive degradation frees an ET-trapped worker: once the runaway
// connection's backlog crosses the shed threshold, the worker RSTs it and
// returns to serving everyone else (Appendix C case 1).
func TestShedBreaksEdgeTriggeredTrap(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := DefaultConfig(ModeHermes)
	cfg.Workers = 2
	cfg.EdgeTriggered = true
	cfg.Shed = ShedPolicy{Enabled: true, ConnThreshold: 1 << 20, PendingThreshold: 5}
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var resets int
	lb.OnConnReset = func(kernel.ConnRef) { resets++ }
	lb.Start()

	victim := openConn(t, lb, 1, 8080)
	eng.After(time.Millisecond, func() {
		var feed func(n int)
		feed = func(n int) {
			if n == 0 || victim.Sock().Closed() {
				return
			}
			sendReq(lb, victim, 4*time.Millisecond, false)
			eng.After(time.Millisecond, func() { feed(n - 1) })
		}
		feed(200)
	})
	eng.RunUntil(int64(500 * time.Millisecond))

	if !victim.Sock().Closed() {
		t.Fatal("runaway connection not shed")
	}
	if n := resetConns(lb); resets != 1 || n != 1 {
		t.Fatalf("resets = %d / %d", resets, n)
	}
	// The worker is free again: short requests complete promptly.
	before := lb.Completed
	c := openConn(t, lb, 99, 8080)
	eng.After(time.Millisecond, func() { sendReq(lb, c, 10*time.Microsecond, true) })
	eng.RunUntil(int64(600 * time.Millisecond))
	if lb.Completed != before+1 {
		t.Fatal("worker still trapped after shed")
	}
}
