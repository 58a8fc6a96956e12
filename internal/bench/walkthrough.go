package bench

import (
	"fmt"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/stats"
)

func init() {
	Register(Seq("walkthrough",
		"appendix A3/A4 example: a,b1..b4 across 3 workers per mode", Walkthrough))
}

// Walkthrough reproduces the appendix examples (Figs. A3/A4): three workers,
// five connections — request a with two events of 2t each, requests b1..b4
// with two events of t each — dispatched under exclusive, reuseport, and
// Hermes. The paper's point: exclusive piles everything onto the
// LIFO-preferred worker, reuseport may hash b's onto the worker stuck with
// a, and Hermes spreads by live status.
func Walkthrough(opts Options) string {
	const t = 10 * time.Millisecond
	out := fmt.Sprintf("t = %v; request a costs 4t, b1..b4 cost 2t each (a = 2x b, as in Fig. A3)\n", t)

	for _, mode := range []l7lb.Mode{l7lb.ModeExclusive, l7lb.ModeReuseport, l7lb.ModeHermes} {
		eng := newSimEngine(opts.Seed)
		cfg := Options{Workers: 3}.lbConfig(mode, []uint16{8080})
		// Make hang detection proportional to the example's timescale: a
		// worker is "unavailable" once stuck longer than 3t (Fig. A4), and
		// tighten θ so a busy worker is visibly excluded.
		cfg.Hermes.HangThreshold = 3 * t
		cfg.Hermes.ThetaFrac = 0.25
		cfg.Hermes.MinWorkers = 1
		lb, err := l7lb.New(eng, cfg)
		if err != nil {
			panic(err)
		}
		lb.Start()

		type assignment struct {
			name   string
			worker int
		}
		var got []assignment
		send := func(name string, at time.Duration, evCost time.Duration, srcSeed uint32) {
			eng.At(int64(at), func() {
				conn, ok := lb.NS.DeliverSYN(kernel.FourTuple{
					SrcIP: srcSeed, SrcPort: uint16(1000 + srcSeed), DstIP: 1, DstPort: 8080,
				}, nil)
				if !ok {
					got = append(got, assignment{name, -1})
					return
				}
				ref := conn.Ref()
				eng.After(time.Millisecond, func() {
					if c := ref.Get(); c != nil {
						lb.Deliver(c, l7lb.Work{ArrivalNS: eng.Now(), Cost: evCost, Close: true, Tenant: 8080})
					}
				})
				// Record which worker accepted once one has.
				var check func()
				check = func() {
					if wi := owner(lb, ref); wi >= 0 {
						got = append(got, assignment{name, wi})
						return
					}
					eng.After(time.Millisecond, check)
				}
				eng.After(2*time.Millisecond, check)
			})
		}

		// Input sequence a, b1..b4 spaced by t (Fig. A4's t0..t4).
		send("a", 0, 4*t, 11)
		send("b1", t, 2*t, 22)
		send("b2", 2*t, 2*t, 33)
		send("b3", 3*t, 2*t, 44)
		send("b4", 4*t, 2*t, 55)
		eng.RunUntil(int64(20 * t))

		tb := stats.NewTable(fmt.Sprintf("Walkthrough — %s", mode),
			"request", "worker", "", "worker", "busy (t units)", "conns handled")
		perWorker := map[int][]string{}
		for _, a := range got {
			perWorker[a.worker] = append(perWorker[a.worker], a.name)
		}
		for i, a := range got {
			wcol, bcol, ccol := "", "", ""
			if i < len(lb.Workers) {
				w := lb.Workers[i]
				wcol = fmt.Sprintf("W%d", w.ID+1)
				bcol = fmt.Sprintf("%.1f", float64(w.BusyNS(eng.Now()))/float64(t))
				ccol = fmt.Sprintf("%v", perWorker[w.ID])
			}
			tb.AddRow(a.name, fmt.Sprintf("W%d", a.worker+1), "", wcol, bcol, ccol)
		}
		out += tb.Render() + "\n"
	}
	return out
}

// owner returns the worker index holding the connection, or -1 (also when
// the ref has gone stale — the recycled socket may belong to someone else).
func owner(lb *l7lb.LB, ref kernel.ConnRef) int {
	conn := ref.Get()
	if conn == nil {
		return -1
	}
	for wi, w := range lb.Workers {
		if w.OwnsConn(conn.Sock()) {
			return wi
		}
	}
	return -1
}
