package bench

import (
	"hermes/internal/l7lb"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

// The baselines experiment runs every dispatch mode this repo implements —
// the paper's three production alternatives plus the historical and rejected
// designs (§2.2: thundering herd, nginx accept mutex, userspace
// dispatcher; §8: io_uring's FIFO; the unmerged epoll-rr) — on the same
// case-2-style workload at medium load, one cell per mode.
func init() {
	Register(Experiment{Name: "baselines", Cells: baselinesCells, Tables: baselinesTables,
		Desc: "every dispatch mode (incl. herd, accept-mutex, dispatcher, io_uring) on one workload"})
}

func baselinesCells(opts Options) []Cell {
	ports := tenantPorts(opts.Tenants)
	spec := workload.Case2(ports).Scale(opts.RateScale * 1.5)
	cells := make([]Cell, len(AllModes))
	for i, mode := range AllModes {
		cells[i] = Cell{Name: mode.String(), Run: func() any {
			return opts.run(mode.String(), RunConfig{
				Mode:    mode,
				Workers: opts.Workers,
				Seed:    opts.Seed,
				Window:  opts.Window,
				Drain:   opts.Drain,
				Specs:   []workload.Spec{spec},
				Mutate:  func(c *l7lb.Config) { c.RegisteredPorts = opts.RegisteredPorts },
			})
		}}
	}
	return cells
}

func baselinesTables(_ Options, results []any) []*stats.Table {
	tb := stats.NewTable("All dispatch modes — case2-style workload (medium)",
		stats.Col("mode"), stats.MS("avg (ms)"), stats.MS("P99 (ms)"), stats.Fixed("thr (kRPS)", 1),
		stats.Fixed("goodput (kRPS)", 1), stats.Col("notes"))
	notes := map[l7lb.Mode]string{
		l7lb.ModeHerd:        "pre-4.5 epoll: spurious wakeups burn CPU",
		l7lb.ModeExclusive:   "production default before Hermes",
		l7lb.ModeExclusiveRR: "unmerged kernel patch",
		l7lb.ModeAcceptMutex: "nginx userspace lock",
		l7lb.ModeReuseport:   "stateless hash",
		l7lb.ModeDispatcher:  "+1 dedicated dispatcher core",
		l7lb.ModeIOUring:     "FIFO wakeup (§8)",
		l7lb.ModeHermes:      "eBPF program, JIT-compiled",
	}
	for i, mode := range AllModes {
		run := results[i].(*RunResult)
		tb.AddRow(mode.String(), run.AvgMS, run.P99MS, run.ThroughputKRPS, run.GoodputKRPS, notes[mode])
	}
	return []*stats.Table{tb}
}
