package bench

import (
	"math/rand"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

func init() {
	Register(Experiment{Name: "fig2", Cells: fig2Cells, Tables: fig2Tables,
		Desc: "connection concentration: exclusive vs rr vs reuseport vs hermes"})
	Register(Experiment{Name: "fig3", Cells: oneCell("fig3", fig3), Tables: cellTables,
		Desc: "lag effect: long-lived connections then synchronized surge"})
	Register(Experiment{Name: "fig45", Cells: oneCell("fig45", fig4and5), Tables: cellTables,
		Desc: "per-worker epoll_wait event/processing/blocking distributions"})
	Register(Experiment{Name: "fig7", Cells: oneCell("fig7", fig7), Tables: cellTables,
		Desc: "NIC queues balanced by RSS while CPU cores stay uneven"})
	Register(Experiment{Name: "figA5", Cells: oneCell("figA5", figA5), Tables: cellTables,
		Desc: "CDF of forwarding rules per port"})
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
			return []any{mode.String(), counts, sd}
		}}
	}
	return cells
}

func fig2Tables(_ Options, results []any) []*stats.Table {
	tb := stats.NewTable("Fig 2 — connection distribution across workers (long-lived conns)",
		stats.Col("mode"), stats.Col("per-worker conns"), stats.Fixed("stddev", 1))
	for _, r := range results {
		tb.AddRow(r.([]any)...)
	}
	return []*stats.Table{tb}
}

// fig3 reproduces the lag effect: traffic rate and live connections through
// a port over time, with per-worker CPU stddev spiking at the burst.
func fig3(opts Options) *stats.Table {
	lb := opts.newLB("fig3", opts.Seed, lbConfig(l7lb.ModeExclusive, opts.Workers, []uint16{8080}))
	lb.Start()

	spec := workload.DefaultSurge(8080)
	spec.Conns = int(10_000 * opts.RateScale)
	s := workload.NewSurge(lb, spec)
	s.Run()

	tb := stats.NewTable("Fig 3 — traffic rate and #connections through a port (surge at t=4s)",
		stats.Fixed("t (s)", 2), stats.Fixed("completed/s (k)", 1), stats.Col("live conns"), stats.Fixed("CPU util stddev", 3))
	const tick = 250 * time.Millisecond
	var prevDone uint64
	bal := balance{lb: lb}
	for t := tick; t <= 6*time.Second; t += tick {
		lb.Eng.RunUntil(int64(t))
		rate := float64(lb.Completed-prevDone) / tick.Seconds() / 1000
		prevDone = lb.Completed
		sd, live := bal.sample()
		tb.AddRow(t.Seconds(), rate, live, sd)
	}
	return tb
}

// fig4and5 reproduces Figs. 4 and 5: per-worker CDFs of #events per
// epoll_wait, event processing time, and epoll_wait blocking time under
// epoll-exclusive with a mixed workload.
func fig4and5(opts Options) *stats.Table {
	// Region2: case-4 heavy → uneven work.
	rc := opts.regionRun(1, l7lb.ModeExclusive, 30_000*opts.RateScale)
	rc.Mutate = func(c *l7lb.Config) {
		c.RegisteredPorts = opts.RegisteredPorts
		c.DetailedStats = true // the per-worker CDFs are the figure
	}
	run := opts.run("fig45", rc)
	// Pick 4 workers spanning the busy/idle spectrum, like the paper's PIDs
	// (every worker, busiest first, on a device with fewer).
	span := int64(opts.Window + opts.Drain/2) // the run's length
	byBusy := append([]*l7lb.Worker(nil), run.LB.Workers...)
	for i := 0; i < len(byBusy); i++ {
		for j := i + 1; j < len(byBusy); j++ {
			if byBusy[j].BusyNS(span) > byBusy[i].BusyNS(span) {
				byBusy[i], byBusy[j] = byBusy[j], byBusy[i]
			}
		}
	}
	picks := byBusy
	if n := len(byBusy); n > 4 {
		picks = []*l7lb.Worker{byBusy[0], byBusy[1], byBusy[n-2], byBusy[n-1]}
	}

	tb := stats.NewTable("Fig 4/5 — per-worker event loop distributions (exclusive)",
		stats.Col("worker"), stats.Fixed("events/wait P50", 0), stats.Fixed("P99", 0),
		stats.MS("proc ms P50"), stats.MS("P99"), stats.MS("block ms P50"), stats.MS("P99"))
	for _, w := range picks {
		tb.AddRow(stats.Textf("w%02d (busy %.0f%%)", w.ID, 100*float64(w.BusyNS(span))/float64(span)),
			w.EventsPerWait.Percentile(50), w.EventsPerWait.Percentile(99),
			w.BatchProcNS.Percentile(50)/1e6, w.BatchProcNS.Percentile(99)/1e6,
			w.BlockNS.Percentile(50)/1e6, w.BlockNS.Percentile(99)/1e6)
	}
	return tb
}

// fig7 reproduces Fig. 7: packets spread evenly over NIC queues by RSS,
// while per-core CPU utilization stays wildly uneven, because per-request
// CPU cost varies and RSS cannot see it.
func fig7(opts Options) *stats.Table {
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
		stats.Col("metric"), stats.Fixed("mean", 3), stats.Fixed("stddev", 3), stats.Fixed("CV", 3))
	// Packet counts print whole.
	tb.AddRow("packets per NIC queue", stats.Textf("%.0f", pktMean), stats.Textf("%.0f", pktSD), pktSD/pktMean)
	tb.AddRow("CPU util per core", cpuMean, cpuSD, cpuSD/cpuMean)
	return tb
}

// figA5 reproduces Fig. A5: the CDF of forwarding rules per port.
func figA5(opts Options) *stats.Table {
	rng := rand.New(rand.NewSource(opts.Seed))
	rules := workload.RulesPerPort(rng, 20_000)
	var s stats.Sample
	for _, r := range rules {
		s.Add(float64(r))
	}
	tb := stats.NewTable("Fig A5 — CDF of forwarding rules per port", stats.Col("percentile"), stats.Fixed("#rules", 0))
	for _, p := range []float64{50, 75, 90, 99, 99.9, 100} {
		tb.AddRow(stats.Textf("P%v", p), s.Percentile(p))
	}
	return tb
}
