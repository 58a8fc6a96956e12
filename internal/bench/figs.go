package bench

import (
	"fmt"
	"math/rand"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

func init() {
	Register(Experiment{
		Name:   "fig2",
		Desc:   "connection concentration: exclusive vs rr vs reuseport vs hermes",
		Cells:  fig2Cells,
		Render: fig2Render,
	})
	Register(Seq("fig3",
		"lag effect: long-lived connections then synchronized surge", Fig3))
	Register(Seq("fig45",
		"per-worker epoll_wait event/processing/blocking distributions", Fig4and5))
	Register(Seq("fig7",
		"NIC queues balanced by RSS while CPU cores stay uneven", Fig7))
	Register(Seq("figA5",
		"CDF of forwarding rules per port", FigA5))
}

var fig2Modes = []l7lb.Mode{l7lb.ModeExclusive, l7lb.ModeExclusiveRR, l7lb.ModeIOUring, l7lb.ModeReuseport, l7lb.ModeHermes}

// fig2Cells reproduces Fig. 2's behaviour: the distribution of long-lived
// connections across workers under exclusive wakeup vs reuseport vs Hermes —
// one cell per mode.
func fig2Cells(opts Options) []Cell {
	spec := workload.Case3(tenantPorts(1))
	spec.ConnRate *= opts.RateScale
	spec.ReqPerConn = workload.Const(1)
	spec.InterReqNS = workload.Const(0)
	spec.FirstReqDelayNS = workload.Const(float64(10 * time.Second)) // stay open
	cells := make([]Cell, len(fig2Modes))
	for i, mode := range fig2Modes {
		cells[i] = Cell{Name: mode.String(), Run: func() any {
			run := opts.run(mode.String(), RunConfig{
				Mode:    mode,
				Workers: 8,
				Seed:    opts.Seed,
				Window:  500 * time.Millisecond,
				Drain:   100 * time.Millisecond,
				Specs:   []workload.Spec{spec},
			})
			counts := run.LB.WorkerConnCounts()
			f := make([]float64, len(counts))
			for j, c := range counts {
				f[j] = float64(c)
			}
			_, sd := stats.MeanStddev(f)
			return []string{mode.String(), fmt.Sprintf("%v", counts), fmt.Sprintf("%.1f", sd)}
		}}
	}
	return cells
}

func fig2Render(opts Options, results []any) string {
	tb := stats.NewTable("Fig 2 — connection distribution across workers (long-lived conns)",
		"mode", "per-worker conns", "stddev")
	for _, r := range results {
		row := r.([]string)
		tb.AddRow(row[0], row[1], row[2])
	}
	return tb.Render()
}

// Fig3 reproduces the lag effect: traffic rate and live connections through
// a port over time, with per-worker CPU stddev spiking at the burst.
func Fig3(opts Options) string {
	lb := opts.newLB("fig3", opts.Seed, lbConfig(l7lb.ModeExclusive, opts.Workers, []uint16{8080}))
	lb.Start()

	spec := workload.DefaultSurge(8080)
	spec.Conns = int(10_000 * opts.RateScale)
	s := workload.NewSurge(lb, spec)
	s.Run()

	tb := stats.NewTable("Fig 3 — traffic rate and #connections through a port (surge at t=4s)",
		"t (s)", "completed/s (k)", "live conns", "CPU util stddev")
	const tick = 250 * time.Millisecond
	var prevDone uint64
	bal := balance{lb: lb}
	for t := tick; t <= 6*time.Second; t += tick {
		lb.Eng.RunUntil(int64(t))
		rate := float64(lb.Completed-prevDone) / tick.Seconds() / 1000
		prevDone = lb.Completed
		sd, live := bal.sample()
		tb.AddRow(fmt.Sprintf("%.2f", t.Seconds()), fmt.Sprintf("%.1f", rate),
			live, fmt.Sprintf("%.3f", sd))
	}
	return tb.Render()
}

// Fig4and5 reproduces Figs. 4 and 5: per-worker CDFs of #events per
// epoll_wait, event processing time, and epoll_wait blocking time under
// epoll-exclusive with a mixed workload.
func Fig4and5(opts Options) string {
	// Region2: case-4 heavy → uneven work.
	rc := opts.regionRun(1, l7lb.ModeExclusive, 30_000*opts.RateScale)
	rc.Mutate = func(c *l7lb.Config) {
		c.RegisteredPorts = opts.RegisteredPorts
		c.DetailedStats = true // the per-worker CDFs are the figure
	}
	run := opts.run("fig45", rc)
	// Pick 4 workers spanning the busy/idle spectrum, like the paper's PIDs
	// (every worker, busiest first, on a device with fewer).
	ws := run.LB.Workers
	byBusy := append([]*l7lb.Worker(nil), ws...)
	for i := 0; i < len(byBusy); i++ {
		for j := i + 1; j < len(byBusy); j++ {
			if byBusy[j].BusyNS(int64(opts.Window+opts.Drain/2)) > byBusy[i].BusyNS(int64(opts.Window+opts.Drain/2)) {
				byBusy[i], byBusy[j] = byBusy[j], byBusy[i]
			}
		}
	}
	picks := byBusy
	if n := len(byBusy); n > 4 {
		picks = []*l7lb.Worker{byBusy[0], byBusy[1], byBusy[n-2], byBusy[n-1]}
	}

	tb := stats.NewTable("Fig 4/5 — per-worker event loop distributions (exclusive)",
		"worker", "events/wait P50", "P99", "proc ms P50", "P99", "block ms P50", "P99")
	for _, w := range picks {
		tb.AddRow(fmt.Sprintf("w%02d (busy %.0f%%)", w.ID, 100*float64(w.BusyNS(int64(opts.Window+opts.Drain/2)))/float64(opts.Window+opts.Drain/2)),
			fmt.Sprintf("%.0f", w.EventsPerWait.Percentile(50)),
			fmt.Sprintf("%.0f", w.EventsPerWait.Percentile(99)),
			stats.FormatMS(w.BatchProcNS.Percentile(50)/1e6),
			stats.FormatMS(w.BatchProcNS.Percentile(99)/1e6),
			stats.FormatMS(w.BlockNS.Percentile(50)/1e6),
			stats.FormatMS(w.BlockNS.Percentile(99)/1e6))
	}
	return tb.Render()
}

// Fig7 reproduces Fig. 7: packets spread evenly over NIC queues by RSS,
// while per-core CPU utilization stays wildly uneven, because per-request
// CPU cost varies and RSS cannot see it.
func Fig7(opts Options) string {
	rss := kernel.NewRSS(opts.Workers)
	// The paper's Fig. 7 device runs the pre-Hermes default, epoll
	// exclusive, whose concentration makes the CPU-side imbalance stark.
	rc := opts.regionRun(1, l7lb.ModeExclusive, 25_000*opts.RateScale)
	rc.Mutate = func(c *l7lb.Config) { c.RegisteredPorts = opts.RegisteredPorts }
	run := opts.run("fig7", rc)
	// Steer the same request population through the RSS model: one packet
	// per ~1460B MSS of request+response bytes.
	rng := rand.New(rand.NewSource(opts.Seed + 17))
	for i := uint64(0); i < run.Completed; i++ {
		hash := rng.Uint32()
		pkts := 1 + int(rng.ExpFloat64()*3)
		for p := 0; p < pkts; p++ {
			rss.Steer(hash, 1460)
		}
	}

	pk := make([]float64, rss.Queues())
	for i, c := range rss.Packets {
		pk[i] = float64(c)
	}
	pktMean, pktSD := stats.MeanStddev(pk)
	cpuMean, cpuSD := stats.MeanStddev(run.WorkerUtil)

	tb := stats.NewTable("Fig 7 — NIC queues even, CPU cores uneven",
		"metric", "mean", "stddev", "CV")
	tb.AddRow("packets per NIC queue", fmt.Sprintf("%.0f", pktMean),
		fmt.Sprintf("%.0f", pktSD), fmt.Sprintf("%.3f", pktSD/pktMean))
	tb.AddRow("CPU util per core", fmt.Sprintf("%.3f", cpuMean),
		fmt.Sprintf("%.3f", cpuSD), fmt.Sprintf("%.3f", cpuSD/cpuMean))
	return tb.Render()
}

// FigA5 reproduces Fig. A5: the CDF of forwarding rules per port.
func FigA5(opts Options) string {
	rng := rand.New(rand.NewSource(opts.Seed))
	rules := workload.RulesPerPort(rng, 20_000)
	var s stats.Sample
	for _, r := range rules {
		s.Add(float64(r))
	}
	tb := stats.NewTable("Fig A5 — CDF of forwarding rules per port", "percentile", "#rules")
	for _, p := range []float64{50, 75, 90, 99, 99.9, 100} {
		tb.AddRow(fmt.Sprintf("P%v", p), fmt.Sprintf("%.0f", s.Percentile(p)))
	}
	return tb.Render()
}
