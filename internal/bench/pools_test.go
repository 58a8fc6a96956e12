package bench

import (
	"runtime"
	"testing"
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/workload"
)

// table3Ports are the eight tenant ports a benchmark Table 3 cell listens on.
func table3Ports() []uint16 { return tenantPorts(8) }

// Every pool of a Table 3 cell balances against what holds its objects, in
// each mode, both while traffic is in flight (the window's end: connections
// queued for accept with requests on them, trains and timers pending) and
// after the drain: connection pairs, watches and skbs (kernel), payloads
// (l7lb, LB.CheckPools, which also walks each accept queue through its
// links), request trains (one per live generated connection) and timer
// events (one per pending event). A pool that forgets one Put reads more
// objects out than are held.
func TestTable3CellPoolsBalance(t *testing.T) {
	const window, drain = 60 * time.Millisecond, 1500 * time.Millisecond
	specs := []workload.Spec{workload.Case2(table3Ports()), workload.Case3(table3Ports())}
	for _, mode := range Table3Modes {
		for si, spec := range specs {
			t.Run(mode.String()+"/"+spec.Name, func(t *testing.T) {
				cfg := lbConfig(mode, 16, spec.Ports)
				cfg.RegisteredPorts = 400
				lb, err := newDevice(int64(7+si), cfg)
				if err != nil {
					t.Fatal(err)
				}
				lb.Start()
				g, err := workload.NewGenerator(lb, spec)
				if err != nil {
					t.Fatal(err)
				}
				g.Run(window)
				check := func(when string) (conns, skbs, trains int) {
					t.Helper()
					if err := lb.CheckPools(); err != nil {
						t.Errorf("%s: %v", when, err)
					}
					if n := g.LiveTrains(); n != g.LiveConns {
						t.Errorf("%s: %d request trains out of the pool, %d generated connections live", when, n, g.LiveConns)
					}
					if n, p := lb.Eng.LiveEvents(), lb.Eng.Pending(); n != p {
						t.Errorf("%s: %d timer events out of the pool, %d pending", when, n, p)
					}
					conns, _, skbs = lb.NS.Live()
					return conns, skbs, g.LiveTrains()
				}
				lb.Eng.RunUntil(int64(window))
				// Case 2's long requests leave payloads queued unread; case
				// 3's short ones are read as they arrive.
				if conns, skbs, trains := check("at the window's end"); conns == 0 || trains == 0 || (si == 0 && skbs == 0) {
					t.Fatalf("at the window's end %d connections, %d skbs and %d trains are out: nothing in flight to check", conns, skbs, trains)
				}
				lb.Eng.RunUntil(int64(window + drain))
				if conns, skbs, trains := check("after the drain"); conns != 0 || skbs != 0 || trains != 0 {
					t.Errorf("after the drain %d connections, %d skbs and %d trains are still out, want a drained cell", conns, skbs, trains)
				}
			})
		}
	}
}

// A Table 3 cell mallocs its way up to peak concurrency only once per slab
// chunk, and builds its device in a few allocations per structure: case 2
// under reuseport, the cell that grows its pools furthest (it hangs workers,
// so connections pile up in the accept queues), and under Hermes, which also
// builds, verifies and compiles one dispatch program per port, here over a
// quarter second of traffic. Everything the cell allocates counts: device,
// generator, latency sample and pools. They read 226 and 498 (linux/amd64,
// go1.24); Hermes's budget is tighter than half again its reading so that a
// fusion matcher building its shapes on the heap (≈ 200 per cell) overruns
// it. With a heap object per listener, a closure per worker continuation and
// epoll event, and the program builder's and compiler's scratch on the heap,
// they read 474 and 1 173; kernel queues that grow slices by doubling, with
// a bound method value per request train, read 1 075 (reuseport), and pools
// grown one object at a time 4 841.
func TestTable3CellMallocBudget(t *testing.T) {
	for _, tc := range []struct {
		mode   l7lb.Mode
		budget uint64
	}{{l7lb.ModeReuseport, 340}, {l7lb.ModeHermes, 650}} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			rc := RunConfig{
				Mode:    tc.mode,
				Workers: 16,
				Seed:    1,
				Window:  250 * time.Millisecond,
				Drain:   2 * time.Second,
				Specs:   []workload.Spec{workload.Case2(table3Ports())},
				Mutate:  func(c *l7lb.Config) { c.RegisteredPorts = 400 },
			}
			cell := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := Run(rc); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			cell() // whatever the process allocates once
			if got := cell(); got > tc.budget {
				t.Errorf("a case 2 %v cell mallocs %d times, budget %d: a per-connection pool grows an object at a time, a queue grows an array, or building the device allocates per object, again", tc.mode, got, tc.budget)
			} else {
				t.Logf("a case 2 %v cell mallocs %d times (budget %d)", tc.mode, got, tc.budget)
			}
		})
	}
}
