package bench

import (
	"fmt"

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
	Register(Experiment{
		Name:   "ablations",
		Desc:   "design-choice ablations: filter order, placement, single-winner, theta, fallback",
		Cells:  ablationsCells,
		Render: ablationsRender,
	})
}

type ablationVariant struct {
	name      string
	mutate    func(*l7lb.Config)
	postBuild func(*l7lb.LB)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{name: "baseline (order=time-conn-event, θ=0.5, loop-end, two-stage)"},
		{
			name:   "order=time-event-conn",
			mutate: func(c *l7lb.Config) { c.FilterOrder = core.OrderTimeEventConn },
		},
		{
			name:   "order=time-only",
			mutate: func(c *l7lb.Config) { c.FilterOrder = core.OrderTimeOnly },
		},
		{
			name:   "scheduler at loop start",
			mutate: func(c *l7lb.Config) { c.ScheduleAtLoopStart = true },
		},
		{
			name:      "single-winner sync",
			mutate:    func(c *l7lb.Config) { c.Hermes.MinWorkers = 1 },
			postBuild: func(lb *l7lb.LB) { lb.Ctl.SetSingleWinner(true) },
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
			name:      "forced reuseport fallback",
			postBuild: func(lb *l7lb.LB) { lb.Ctl.SetForceFallback(true) },
		},
	}
}

func ablationsCells(opts Options) []Cell {
	variants := ablationVariants()
	cells := make([]Cell, len(variants))
	for i, v := range variants {
		cells[i] = Cell{Name: v.name, Run: func() any {
			rc := opts.regionRun(1, l7lb.ModeHermes, 60_000*opts.RateScale)
			rc.Mutate, rc.PostBuild = v.mutate, v.postBuild
			return opts.run(v.name, rc)
		}}
	}
	return cells
}

func ablationsRender(opts Options, results []any) string {
	tb := stats.NewTable("Ablations — Hermes design choices under a hang-prone mix",
		"variant", "avg (ms)", "P99 (ms)", "thr (kRPS)")
	for i, v := range ablationVariants() {
		run := results[i].(*RunResult)
		tb.AddRow(v.name, stats.FormatMS(run.AvgMS), stats.FormatMS(run.P99MS),
			fmt.Sprintf("%.1f", run.ThroughputKRPS))
	}
	return tb.Render()
}
