package l7lb

import (
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/sim"
)

// The worker loop's continuations are the worker itself seen as a
// sim.Handler, and LB.Deliver carries the request as a pooled *Work, so a
// steady-state cell of any mode — the dispatcher core and its executors
// included — allocates nothing per loop iteration or per connection. Each run below is one connection lifecycle
// plus 10 ms of virtual time (two epoll timeouts on each of four workers).
func TestHermesCellSteadyStateAllocs(t *testing.T) {
	for _, mode := range modesUnderTest() {
		t.Run(mode.String(), func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := DefaultConfig(mode)
			cfg.Workers = 4
			cfg.ConnsPerWorkerHint = 128 // room in lb.Latency for every lifecycle below
			lb, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lb.Start()

			var src uint32
			lifecycle := func() {
				src++
				sendReq(lb, openConn(t, lb, src, 8080), 30*time.Microsecond, true)
				eng.RunUntil(eng.Now() + int64(10*time.Millisecond))
			}
			for i := 0; i < 256; i++ { // grow the pools and scratch buffers
				lifecycle()
			}
			done := lb.Completed
			const runs = 200
			if allocs := testing.AllocsPerRun(runs, lifecycle); allocs != 0 {
				t.Errorf("steady-state %v cell: %.2f allocs per connection lifecycle, want 0", mode, allocs)
			}
			if got := lb.Completed - done; got != runs+1 {
				t.Fatalf("completed %d of %d lifecycles", got, runs+1)
			}
			if n := lb.work.Live(); n != 0 {
				t.Errorf("%d payloads out of the pool after one-at-a-time lifecycles, want 0", n)
			}
			if err := lb.CheckPools(); err != nil {
				t.Error(err)
			}
		})
	}
}

// Workers take a request in either shape: the pooled *Work that LB.Deliver
// sends, and the by-value Work the frozen benchmark driver still pushes
// through NS.DeliverData. A pooled payload goes back to the pool exactly once:
// when its worker pops it, or, still queued, when its connection is reset;
// one sent after the reset never leaves the pool.
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

			pooled := Work{ArrivalNS: 0, Cost: 5 * time.Microsecond, Tenant: 8080}
			byValue := Work{ArrivalNS: 0, Cost: 7 * time.Microsecond, Close: true, Tenant: 8080}
			conn := openConn(t, lb, 1, 8080)
			lb.Deliver(conn, pooled)
			lb.NS.DeliverData(conn, byValue)
			eng.RunUntil(int64(time.Millisecond))
			if len(seen) != 2 || seen[0] != pooled || seen[1] != byValue {
				t.Fatalf("served %+v, want the pooled then the by-value request unchanged", seen)
			}
			if n := lb.work.Live(); n != 0 {
				t.Fatalf("%d payloads out of the pool after one pooled request, want 0", n)
			}

			// Three pooled requests queue behind a long one; the connection
			// is reset while the worker is still on the first.
			victim := openConn(t, lb, 2, 8080)
			for i := 0; i < 4; i++ {
				lb.Deliver(victim, Work{ArrivalNS: eng.Now(), Cost: time.Millisecond, Tenant: 8080})
			}
			eng.RunUntil(eng.Now() + int64(100*time.Microsecond))
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
			eng.RunUntil(eng.Now() + int64(10*time.Millisecond))
			if n := lb.work.Live(); n != 0 {
				t.Fatalf("%d payloads out of the pool after the reset, want 0: the queued ones come back with it", n)
			}
			// A request for the connection that is gone takes nothing out.
			lb.Deliver(victim, Work{ArrivalNS: eng.Now(), Cost: time.Microsecond, Tenant: 8080})
			if n := lb.work.Live(); n != 0 {
				t.Fatalf("Deliver to a reset connection took %d payloads out of the pool", n)
			}

			// The pool still works: later requests reuse what came back and
			// arrive intact, eight out at once, so a payload put back twice
			// would be handed to two of them.
			seen = seen[:0]
			for i := 0; i < 8; i++ {
				c := openConn(t, lb, uint32(10+i), 8080)
				lb.Deliver(c, Work{ArrivalNS: eng.Now(), Cost: time.Microsecond + time.Duration(i), Close: true, Tenant: 8080})
			}
			eng.RunUntil(eng.Now() + int64(10*time.Millisecond))
			if len(seen) != 8 {
				t.Fatalf("served %d of 8 requests after the reset", len(seen))
			}
			costs := map[time.Duration]bool{}
			for _, w := range seen {
				costs[w.Cost] = true
			}
			if len(costs) != 8 {
				t.Fatalf("requests after the reset arrived as %+v: payloads aliased", seen)
			}
		})
	}
}
