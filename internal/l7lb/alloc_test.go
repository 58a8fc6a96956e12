package l7lb

import (
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/sim"
)

// The worker loop's continuations are the worker itself seen as a
// sim.Handler, and a request crosses the kernel by value in its skb, so a
// steady-state cell of any mode — the dispatcher core and its executors
// included — allocates nothing per loop iteration or per connection. Each run
// below is one connection lifecycle plus 10 ms of virtual time (two epoll
// timeouts on each of four workers), with the request sent through LB.Deliver
// or, as a bare load generator sends it, by value through NS.DeliverData in the SYN's
// event: DeliverData keeps no interface, so that conversion to `any` stays on
// the caller's stack.
func TestHermesCellSteadyStateAllocs(t *testing.T) {
	for _, mode := range modesUnderTest() {
		t.Run(mode.String(), func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := DefaultConfig(mode)
			cfg.Workers = 4
			cfg.ConnsPerWorkerHint = 256 // room in lb.Latency for every lifecycle below
			lb, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lb.Start()

			var src uint32
			viaLB := func() {
				src++
				sendReq(lb, openConn(t, lb, src, 8080), 30*time.Microsecond, true)
				eng.RunUntil(eng.Now() + int64(10*time.Millisecond))
			}
			viaNS := func() {
				src++
				work := Work{ArrivalNS: eng.Now(), Cost: 30 * time.Microsecond, Close: true, Tenant: 8080}
				lb.NS.DeliverData(openConn(t, lb, src, 8080), work)
				eng.RunUntil(eng.Now() + int64(10*time.Millisecond))
			}
			for i := 0; i < 256; i++ { // grow the pools and scratch buffers
				viaLB()
			}
			const runs = 200
			for _, path := range []struct {
				name      string
				lifecycle func()
			}{{"LB.Deliver", viaLB}, {"by-value NS.DeliverData", viaNS}} {
				done := lb.Completed
				if allocs := testing.AllocsPerRun(runs, path.lifecycle); allocs != 0 {
					t.Errorf("steady-state %v cell, %s: %.2f allocs per connection lifecycle, want 0", mode, path.name, allocs)
				}
				if got := lb.Completed - done; got != runs+1 {
					t.Fatalf("%s: completed %d of %d lifecycles", path.name, got, runs+1)
				}
			}
			if err := lb.CheckPools(); err != nil {
				t.Error(err)
			}
		})
	}
}

// A request reaches the worker unchanged through either entry point, LB.Deliver
// or NS.DeliverData. Requests still queued when their connection is reset go
// with its skbs, so CheckPools balances after the reset; one sent after the
// reset is dropped; and later connections are served as before.
func TestPayloadShapesAndResetWithQueuedPayloads(t *testing.T) {
	for _, mode := range []Mode{ModeReuseport, ModeHermes, ModeDispatcher} {
		t.Run(mode.String(), func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := DefaultConfig(mode)
			cfg.Workers = 2
			lb, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lb.Start()
			var seen []Work
			lb.OnResponse = func(_ kernel.ConnRef, w Work) { seen = append(seen, w) }

			viaLB := Work{ArrivalNS: 0, Cost: 5 * time.Microsecond, Tenant: 8080}
			viaNS := Work{ArrivalNS: 0, Cost: 7 * time.Microsecond, Close: true, Tenant: 8080}
			conn := openConn(t, lb, 1, 8080)
			lb.Deliver(conn, viaLB)
			lb.NS.DeliverData(conn, viaNS)
			eng.RunUntil(int64(time.Millisecond))
			if len(seen) != 2 || seen[0] != viaLB || seen[1] != viaNS {
				t.Fatalf("served %+v, want both requests unchanged, in order", seen)
			}

			// Three requests queue behind a long one (in the socket; the
			// dispatcher core takes them all into its executors' queues);
			// the connection is reset while the worker is still on the first.
			victim := openConn(t, lb, 2, 8080)
			for i := 0; i < 4; i++ {
				lb.Deliver(victim, Work{ArrivalNS: eng.Now(), Cost: time.Millisecond, Tenant: 8080})
			}
			eng.RunUntil(eng.Now() + int64(100*time.Microsecond))
			if n := victim.Sock().PendingData(); mode != ModeDispatcher && n != 3 {
				t.Fatalf("%d requests queued behind the one in service, want 3", n)
			}
			if mode == ModeDispatcher {
				lb.Dispatcher.resetConn(victim.Sock())
			} else {
				for _, w := range lb.Workers {
					if w.OwnsConn(victim.Sock()) {
						w.resetConn(victim.Sock())
					}
				}
			}
			if !victim.Sock().Closed() {
				t.Fatal("victim connection not reset")
			}
			if err := lb.CheckPools(); err != nil {
				t.Fatalf("after resetting a connection with queued requests: %v", err)
			}
			lb.Deliver(victim, Work{ArrivalNS: eng.Now(), Cost: time.Microsecond, Tenant: 8080})
			eng.RunUntil(eng.Now() + int64(10*time.Millisecond))
			if err := lb.CheckPools(); err != nil {
				t.Fatalf("after a request to the reset connection: %v", err)
			}

			// Later connections reuse the skbs that came back, eight out at
			// once, and every request arrives intact.
			seen = seen[:0]
			for i := 0; i < 8; i++ {
				c := openConn(t, lb, uint32(10+i), 8080)
				lb.Deliver(c, Work{ArrivalNS: eng.Now(), Cost: time.Microsecond + time.Duration(i), Close: true, Tenant: 8080})
			}
			eng.RunUntil(eng.Now() + int64(10*time.Millisecond))
			costs := map[time.Duration]bool{}
			for _, w := range seen {
				costs[w.Cost] = true
			}
			if len(seen) != 8 || len(costs) != 8 {
				t.Fatalf("served %+v after the reset, want 8 distinct requests", seen)
			}
			if err := lb.CheckPools(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
