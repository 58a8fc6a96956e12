package kernel_test

// Burst-path equivalence and throughput. The burst API's contract is that
// batching is mechanical only: DeliverSYNBurst/DeliverDataBurst are
// observably identical to inline single-delivery loops within one engine
// event. A recording trace compared against the single-delivery oracle pins
// that contract over a seeded fuzz of random interleavings;
// BenchmarkBurstDispatch measures what carrying a vector per event saves.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hermes/internal/kernel"
	"hermes/internal/sim"
)

// burstOp is one pre-generated driver action. SYN ops append the resulting
// conn (or nil on drop) to the run's arrival-ordered conn list; data/FIN ops
// reference conns by arrival ordinal, so the same schedule replays exactly
// on independent stacks.
type burstOp struct {
	kind int // 0 = SYN, 1 = data, 2 = FIN
	port uint16
	src  uint32
	conn int // arrival ordinal for data/FIN
	val  int // payload ordinal; negative = serve-and-close marker
}

type burstGroup struct {
	tick int64
	ops  []burstOp
}

// genBurstSchedule pre-draws the whole scenario so the burst and oracle
// runs share it verbatim: the driver's randomness must not depend on
// anything the run produces.
func genBurstSchedule(rng *rand.Rand, groups, maxOps int) []burstGroup {
	var out []burstGroup
	tick := int64(1)
	syns := 0
	for g := 0; g < groups; g++ {
		tick += int64(rng.Intn(3)) // 0 keeps some groups on the same tick
		n := 1 + rng.Intn(maxOps)
		ops := make([]burstOp, 0, n)
		for i := 0; i < n; i++ {
			switch k := rng.Intn(4); {
			case k == 0 || syns == 0:
				ops = append(ops, burstOp{kind: 0, port: 8080, src: uint32(1 + rng.Intn(1<<20))})
				syns++
			case k < 3:
				val := rng.Intn(100)
				if rng.Intn(3) == 0 {
					val = -1 - val // serve-and-close marker
				}
				ops = append(ops, burstOp{kind: 1, conn: rng.Intn(syns), val: val})
			default:
				ops = append(ops, burstOp{kind: 2, conn: rng.Intn(syns)})
			}
		}
		out = append(out, burstGroup{tick: tick, ops: ops})
	}
	return out
}

// runBurstScenario replays a schedule on a fresh stack and returns the full
// observable trace. When burst is true, each group's SYN runs go through
// DeliverSYNBurst; otherwise they run as single deliveries in the same
// engine event — the oracle.
func runBurstScenario(t *testing.T, sched []burstGroup, mode kernel.WakeMode, workers int, burst bool) string {
	t.Helper()
	eng := sim.NewEngine(1)
	ns := kernel.NewNetStack(eng, mode)
	shared, err := ns.ListenShared(8080, 8)
	if err != nil {
		t.Fatal(err)
	}

	var trace strings.Builder
	conns := make([]*kernel.Conn, 0, 256)

	for i := 0; i < workers; i++ {
		ep := ns.NewEpoll()
		ep.Add(shared)
		id := i
		var onWake func(evs []kernel.Event)
		onWake = func(evs []kernel.Event) {
			fmt.Fprintf(&trace, "t=%d w=%d wake n=%d\n", eng.Now(), id, len(evs))
			for _, ev := range evs {
				switch ev.Kind {
				case kernel.EvAccept:
					for {
						c, ok := ev.Sock.Accept()
						if !ok {
							break
						}
						fmt.Fprintf(&trace, "t=%d w=%d accept conn=%d\n", eng.Now(), id, c.ID)
						ep.Add(c.Sock())
					}
				case kernel.EvReadable:
					p, _ := ev.Sock.PopData()
					v := p.ArrivalNS
					fmt.Fprintf(&trace, "t=%d w=%d read sock=%d val=%d\n", eng.Now(), id, ev.Sock.ID, v)
					if v < 0 {
						ns.CloseSocket(ev.Sock)
					}
				case kernel.EvHangup:
					fmt.Fprintf(&trace, "t=%d w=%d hup sock=%d\n", eng.Now(), id, ev.Sock.ID)
					ns.CloseSocket(ev.Sock)
				}
			}
			ep.Wait(4, -1, onWake)
		}
		ep.Wait(4, -1, onWake)
	}

	// Scratch reused across groups, as a real NIC-burst driver would.
	tuples := make([]kernel.FourTuple, 0, 64)
	batch := make([]*kernel.Conn, 0, 64)
	for _, g := range sched {
		g := g
		eng.At(g.tick, func() {
			// SYNs delivered as one vector per group (preserving op order
			// for the oracle means splitting around non-SYN ops).
			i := 0
			for i < len(g.ops) {
				op := g.ops[i]
				switch op.kind {
				case 0:
					tuples = tuples[:0]
					j := i
					for j < len(g.ops) && g.ops[j].kind == 0 {
						tuples = append(tuples, kernel.FourTuple{SrcIP: g.ops[j].src, SrcPort: 9, DstIP: 2, DstPort: g.ops[j].port})
						j++
					}
					if burst {
						batch = ns.DeliverSYNBurst(tuples, nil, batch[:0])
						conns = append(conns, batch...)
					} else {
						for _, tu := range tuples {
							c, _ := ns.DeliverSYN(tu, nil)
							conns = append(conns, c)
						}
					}
					i = j
				case 1:
					if c := conns[op.conn]; c != nil {
						ns.DeliverData(c, kernel.Payload{ArrivalNS: int64(op.val)})
					}
					i++
				case 2:
					if c := conns[op.conn]; c != nil {
						ns.DeliverFIN(c)
					}
					i++
				}
			}
		})
	}
	eng.Run()
	drops := 0
	for _, c := range conns {
		if c == nil {
			drops++
		}
	}
	fmt.Fprintf(&trace, "est=%d drops=%d\n", ns.ConnsEstablished, drops)
	return trace.String()
}

// TestFuzzBurstVsSingleOracle replays random interleavings of burst and
// single deliveries against the single-event oracle: for every seed and wake
// mode, the vector run's trace — wakeup times, event batches,
// accept/read/close order, and drop counters — must be byte-equal to single
// deliveries. CI runs this under -race.
func TestFuzzBurstVsSingleOracle(t *testing.T) {
	modes := []kernel.WakeMode{kernel.WakeHerd, kernel.WakeExclusiveLIFO, kernel.WakeExclusiveRR, kernel.WakeExclusiveFIFO}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			sched := genBurstSchedule(rng, 60, 12)
			mode := modes[rng.Intn(len(modes))]
			workers := 1 + rng.Intn(5)
			oracle := runBurstScenario(t, sched, mode, workers, false)
			if got := runBurstScenario(t, sched, mode, workers, true); got != oracle {
				t.Fatalf("mode=%v workers=%d: burst trace diverges from single-delivery oracle\noracle:\n%s\nburst:\n%s",
					mode, workers, oracle, got)
			}
		})
	}
}

// benchBurstDispatch drives NIC-style same-tick arrival bursts through the
// full kernel path — SYN vector → steer → accept-queue → wakeup → batched
// collect → accept drain → data burst → batched readable serve → close —
// with one op being one connection. batch=1 is one delivery, one arrival
// event and one wakeup per connection; a longer vector shares the arrival
// event, the wakeup and the collect.
func benchBurstDispatch(b *testing.B, batch int) {
	eng := sim.NewEngine(1)
	ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
	g, err := ns.ListenReuseport(8080, 1, 4096)
	if err != nil {
		b.Fatal(err)
	}
	ep := ns.NewEpoll()
	ep.Add(g.Sockets()[0])

	maxEvents := batch + 16
	served := 0
	accepted := make([]*kernel.Conn, 0, batch)
	var onWake func(evs []kernel.Event)
	onWake = func(evs []kernel.Event) {
		for _, ev := range evs {
			switch ev.Kind {
			case kernel.EvAccept:
				accepted = accepted[:0]
				for {
					c, ok := ev.Sock.Accept()
					if !ok {
						break
					}
					ep.Add(c.Sock())
					accepted = append(accepted, c)
				}
				ns.DeliverDataBurst(accepted, nil)
			case kernel.EvReadable:
				ev.Sock.PopData()
				ns.CloseSocket(ev.Sock)
				served++
			}
		}
		ep.Wait(maxEvents, -1, onWake)
	}
	ep.Wait(maxEvents, -1, onWake)
	eng.Run()

	tuples := make([]kernel.FourTuple, batch)
	for i := range tuples {
		tuples[i] = kernel.FourTuple{SrcPort: 9, DstIP: 2, DstPort: 8080}
	}
	conns := make([]*kernel.Conn, 0, batch)
	var src uint32
	var pend int
	// The arrival is itself an engine event — the quantity bursting
	// reduces: batch=1 models today's one-event-per-SYN ingress, batch=N
	// carries the whole vector in one event.
	arriveEv := func() {
		conns = ns.DeliverSYNBurst(tuples[:pend], nil, conns[:0])
	}
	arrive := func(n int) {
		for i := 0; i < n; i++ {
			src++
			tuples[i].SrcIP = src
		}
		pend = n
		eng.At(eng.Now(), arriveEv)
		eng.Run()
	}
	for i := 0; i < 64; i++ { // pool and scratch warmup
		arrive(batch)
	}

	served = 0
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		n := batch
		if rem := b.N - done; rem < n {
			n = rem
		}
		arrive(n)
	}
	b.StopTimer()
	if served != b.N {
		b.Fatalf("served %d of %d connections", served, b.N)
	}
}

// BenchmarkBurstDispatch measures the vector arrival path: one op is one
// connection through the full arrival→dispatch lifecycle; CI requires 0
// allocs/op at both vector lengths and reports their ratio (docs/PERF.md).
func BenchmarkBurstDispatch(b *testing.B) {
	for _, batch := range []int{1, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchBurstDispatch(b, batch)
		})
	}
}
