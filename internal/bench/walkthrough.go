package bench

import (
	"fmt"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/stats"
)

// walkthroughT is the example's time unit t.
const walkthroughT = 10 * time.Millisecond

// The walkthrough reproduces the appendix examples (Figs. A3/A4): three
// workers, five connections — request a with two events of 2t each, requests
// b1..b4 with two events of t each — dispatched under exclusive, reuseport,
// and Hermes, one cell per mode. The paper's point: exclusive piles everything
// onto the LIFO-preferred worker, reuseport may hash b's onto the worker stuck
// with a, and Hermes spreads by live status.
func init() {
	Register(Experiment{
		Name:  "walkthrough",
		Desc:  "appendix A3/A4 example: a,b1..b4 across 3 workers per mode",
		Cells: walkthroughCells,
		Render: func(_ Options, results []any) string {
			out := fmt.Sprintf("t = %v; request a costs 4t, b1..b4 cost 2t each (a = 2x b, as in Fig. A3)\n", walkthroughT)
			for _, r := range results {
				out += r.(string) + "\n"
			}
			return out
		},
	})
}

func walkthroughCells(opts Options) []Cell {
	cells := make([]Cell, len(Table3Modes))
	for i, mode := range Table3Modes {
		cells[i] = Cell{Name: mode.String(), Run: func() any { return walkthroughCell(opts, mode) }}
	}
	return cells
}

// walkthroughCell plays the example under one mode and renders its table.
func walkthroughCell(opts Options, mode l7lb.Mode) string {
	const t = walkthroughT
	cfg := lbConfig(mode, 3, []uint16{8080})
	// Make hang detection proportional to the example's timescale: a
	// worker is "unavailable" once stuck longer than 3t (Fig. A4), and
	// tighten θ so a busy worker is visibly excluded.
	cfg.Hermes.HangThreshold = 3 * t
	cfg.Hermes.ThetaFrac = 0.25
	cfg.Hermes.MinWorkers = 1
	lb := opts.newLB(mode.String(), opts.Seed, cfg)
	eng := lb.Eng
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
	return tb.Render()
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
