package bench

import (
	"hermes/internal/core"
	"hermes/internal/l7lb"
	"hermes/internal/stats"
)

// The ablations experiment runs the design-choice comparisons DESIGN.md calls
// out, on a hang-prone workload where the choices matter, and prints one
// table:
//
//   - filter cascade order (time→conn→event vs alternatives),
//   - scheduler placement (loop end vs loop start),
//   - two-stage filtering vs single-winner sync,
//   - θ/Avg extremes vs the 0.5 optimum.
func init() {
	Register(Experiment{Name: "ablations", Cells: ablationsCells, Tables: ablationsTables,
		Desc: "design-choice ablations: filter order, placement, single-winner, theta, fallback"})
}

type ablationVariant struct {
	name   string
	mutate func(*l7lb.Config)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{name: "baseline (order=time-conn-event, θ=0.5, loop-end, two-stage)"},
		{
			name:   "order=time-event-conn",
			mutate: func(c *l7lb.Config) { c.Hermes.Order = core.OrderTimeEventConn },
		},
		{
			name:   "order=time-only",
			mutate: func(c *l7lb.Config) { c.Hermes.Order = core.OrderTimeOnly },
		},
		{
			name:   "scheduler at loop start",
			mutate: func(c *l7lb.Config) { c.ScheduleAtLoopStart = true },
		},
		{
			name:   "single-winner sync",
			mutate: func(c *l7lb.Config) { c.Hermes.MinWorkers, c.Hermes.Order = 1, core.OrderSingleWinner },
		},
		{
			name:   "θ/Avg = 0",
			mutate: func(c *l7lb.Config) { c.Hermes.ThetaFrac = 0 },
		},
		{
			name:   "θ/Avg = 2.5",
			mutate: func(c *l7lb.Config) { c.Hermes.ThetaFrac = 2.5 },
		},
		{
			name:   "forced reuseport fallback",
			mutate: func(c *l7lb.Config) { c.Hermes.ForceFallback = true },
		},
	}
}

func ablationsCells(opts Options) []Cell {
	variants := ablationVariants()
	cells := make([]Cell, len(variants))
	for i, v := range variants {
		cells[i] = Cell{Name: v.name, Run: func() any {
			rc := opts.regionRun(1, l7lb.ModeHermes, 60_000*opts.RateScale)
			rc.Mutate = v.mutate
			return opts.run(v.name, rc)
		}}
	}
	return cells
}

func ablationsTables(_ Options, results []any) []*stats.Table {
	tb := stats.NewTable("Ablations — Hermes design choices under a hang-prone mix",
		stats.Col("variant"), stats.MS("avg (ms)"), stats.MS("P99 (ms)"), stats.Fixed("thr (kRPS)", 1))
	for i, v := range ablationVariants() {
		run := results[i].(*RunResult)
		tb.AddRow(v.name, run.AvgMS, run.P99MS, run.ThroughputKRPS)
	}
	return []*stats.Table{tb}
}
