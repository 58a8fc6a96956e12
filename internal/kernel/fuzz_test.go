package kernel

import (
	"math/rand"
	"testing"
	"time"

	"hermes/internal/sim"
)

// watchHandle snapshots a watch registration at Add time, for stale-handle
// detection: gen is bumped when the watch is recycled through the pool, so a
// handle whose gen no longer matches must never be treated as a live
// registration.
type watchHandle struct {
	w    *watch
	gen  uint64
	ep   *Epoll
	sock *Socket
}

// Random-operation invariant test: an arbitrary interleaving of listens,
// SYNs, data, FINs, accepts, closes, epoll waits/kicks, and epoll teardown
// (worker crash) + rebuild (restart) must never panic, conservation must
// hold (every established connection is exactly one of {queued for accept,
// accepted}), and — with Conn/watch objects now pooled — no stale handle may
// ever be observed live: a ConnRef to a closed connection must either
// resolve to the same, still-closed connection or (once the object is
// recycled) resolve to nil, and a watch handle must be invalidated
// (generation bump) the moment its registration is torn down.
func TestFuzzNetstackInvariants(t *testing.T) {
	for _, mode := range []WakeMode{WakeHerd, WakeExclusiveLIFO, WakeExclusiveRR, WakeExclusiveFIFO} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(mode) + 77))
			eng := sim.NewEngine(int64(mode) + 1)
			ns := NewNetStack(eng, mode)

			var (
				listeners     []*Socket
				groups        []*ReuseportGroup
				eps           []*Epoll
				conns         []ConnRef // established, possibly since closed/recycled
				accepted      []ConnRef // accepted and not yet closed by us
				closedRefs    []ConnRef // refs captured just before we closed them
				watchRefs     []watchHandle
				totalAccepted uint64
			)
			nextPort := uint16(1000)

			// checkStale asserts the pooling invariants over every retained
			// handle. Called periodically and at the end.
			checkStale := func() {
				for _, r := range closedRefs {
					if c := r.Get(); c != nil {
						if c.ID != r.ID() {
							t.Fatalf("ConnRef resolved to a different connection: ref %d got %d", r.ID(), c.ID)
						}
						if !c.Sock().Closed() {
							t.Fatalf("stale ConnRef %d observed live: socket reopened without recycle", r.ID())
						}
					}
				}
				for _, h := range watchRefs {
					if h.w.gen == h.gen {
						// Handle still current: the registration must be intact.
						if got := h.ep.findWatch(h.sock); got != h.w {
							t.Fatalf("live watch handle not registered: epoll %d sock %d", h.ep.ID, h.sock.ID)
						}
						if h.w.ep != h.ep || h.w.sock != h.sock {
							t.Fatalf("live watch handle mutated: epoll %d sock %d", h.ep.ID, h.sock.ID)
						}
					} else if got := h.ep.findWatch(h.sock); got == h.w && got.gen == h.gen {
						t.Fatalf("recycled watch still registered under old generation: epoll %d sock %d", h.ep.ID, h.sock.ID)
					}
				}
			}

			// liveConn draws a random retained connection that is still
			// current and open, pruning dead refs as it goes.
			liveConn := func() *Conn {
				for len(conns) > 0 {
					i := rng.Intn(len(conns))
					c := conns[i].Get()
					if c != nil && !c.Sock().Closed() {
						return c
					}
					conns[i] = conns[len(conns)-1]
					conns = conns[:len(conns)-1]
				}
				return nil
			}

			for step := 0; step < 8000; step++ {
				switch rng.Intn(14) {
				case 0: // new shared listener
					s, err := ns.ListenShared(nextPort, 1+rng.Intn(32))
					nextPort++
					if err != nil {
						t.Fatal(err)
					}
					listeners = append(listeners, s)
				case 1: // new reuseport group
					g, err := ns.ListenReuseport(nextPort, 1+rng.Intn(4), 1+rng.Intn(32))
					nextPort++
					if err != nil {
						t.Fatal(err)
					}
					groups = append(groups, g)
					listeners = append(listeners, g.Sockets()...)
				case 2: // new epoll watching random listeners
					ep := ns.NewEpoll()
					eps = append(eps, ep)
					for _, s := range listeners {
						if rng.Intn(3) == 0 && !s.Closed() {
							func() {
								defer func() { recover() }() // duplicate Add panics by contract
								ep.Add(s)
							}()
							if w := ep.findWatch(s); w != nil {
								watchRefs = append(watchRefs, watchHandle{w: w, gen: w.gen, ep: ep, sock: s})
							}
						}
					}
				case 3, 4, 5: // SYN to a random bound port
					if nextPort == 1000 {
						continue
					}
					port := 1000 + uint16(rng.Intn(int(nextPort-1000)))
					c, ok := ns.DeliverSYN(FourTuple{
						SrcIP: rng.Uint32(), SrcPort: uint16(rng.Intn(65536)),
						DstIP: 1, DstPort: port,
					}, nil)
					if ok {
						conns = append(conns, c.Ref())
					}
				case 6: // accept from a random listener
					if len(listeners) == 0 {
						continue
					}
					s := listeners[rng.Intn(len(listeners))]
					if s.Closed() {
						continue
					}
					if c, ok := s.Accept(); ok {
						if c.AcceptedNS < c.EstablishedNS {
							t.Fatalf("accept before establish: %+v", c)
						}
						totalAccepted++
						accepted = append(accepted, c.Ref())
					}
				case 7: // deliver data on a random live conn
					if c := liveConn(); c != nil {
						ns.DeliverData(c, Payload{ArrivalNS: int64(step)})
					}
				case 8: // FIN a random live conn
					if c := liveConn(); c != nil {
						ns.DeliverFIN(c)
					}
				case 9: // close a random accepted conn socket (recycles the pair)
					if len(accepted) == 0 {
						continue
					}
					i := rng.Intn(len(accepted))
					r := accepted[i]
					accepted[i] = accepted[len(accepted)-1]
					accepted = accepted[:len(accepted)-1]
					if c := r.Get(); c != nil && !c.Sock().Closed() {
						ns.CloseSocket(c.Sock())
						closedRefs = append(closedRefs, r)
					}
				case 10: // a random epoll waits (zero timeout or short block)
					if len(eps) == 0 {
						continue
					}
					ep := eps[rng.Intn(len(eps))]
					if !ep.Blocked() {
						timeout := time.Duration(0)
						if rng.Intn(2) == 0 {
							timeout = time.Duration(1+rng.Intn(200)) * time.Microsecond
						}
						ep.Wait(1+rng.Intn(8), timeout, func(evs []Event) {
							for _, ev := range evs {
								// Consume some events to churn state.
								if ev.Kind == EvReadable {
									ev.Sock.PopData()
								}
							}
						})
					}
				case 11: // kick a random epoll (userspace wakeup)
					if len(eps) > 0 {
						eps[rng.Intn(len(eps))].Kick()
					}
				case 12: // crash a random epoll's worker; sometimes restart it
					if len(eps) == 0 {
						continue
					}
					i := rng.Intn(len(eps))
					old := eps[i]
					old.Close()
					for _, h := range watchRefs {
						if h.ep == old && h.w.gen == h.gen {
							t.Fatalf("watch handle survived epoll teardown: epoll %d sock %d", old.ID, h.sock.ID)
						}
					}
					if rng.Intn(2) == 0 { // restart: fresh instance, re-register
						ep := ns.NewEpoll()
						eps[i] = ep
						for _, s := range listeners {
							if rng.Intn(3) == 0 && !s.Closed() {
								func() {
									defer func() { recover() }()
									ep.Add(s)
								}()
								if w := ep.findWatch(s); w != nil {
									watchRefs = append(watchRefs, watchHandle{w: w, gen: w.gen, ep: ep, sock: s})
								}
							}
						}
					} else {
						eps[i] = eps[len(eps)-1]
						eps = eps[:len(eps)-1]
					}
				case 13: // advance virtual time
					eng.RunFor(time.Duration(rng.Intn(1000)) * time.Microsecond)
				}
				if step%500 == 499 {
					checkStale()
					// Bound the retained sets so the test stays O(steps).
					if len(closedRefs) > 512 {
						closedRefs = closedRefs[len(closedRefs)-256:]
					}
					if len(watchRefs) > 1024 {
						watchRefs = watchRefs[len(watchRefs)-512:]
					}
				}
			}
			eng.RunFor(100 * time.Millisecond)
			checkStale()

			// Conservation: established = still queued + ever accepted — no
			// connection may vanish, even through the recycling pool.
			queued := 0
			for _, s := range listeners {
				queued += s.QueueLen()
			}
			if uint64(queued)+totalAccepted != ns.ConnsEstablished {
				t.Fatalf("conservation broken: queued %d + accepted %d != established %d",
					queued, totalAccepted, ns.ConnsEstablished)
			}
		})
	}
}
