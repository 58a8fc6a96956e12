package bench

import (
	"fmt"

	"hermes/internal/core"
	"hermes/internal/l7lb"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

// ablationsExperiment runs the design-choice comparisons DESIGN.md calls
// out, on a hang-prone workload where the choices matter, and prints one
// table:
//
//   - filter cascade order (time→conn→event vs alternatives),
//   - scheduler placement (loop end vs loop start),
//   - two-stage filtering vs single-winner sync,
//   - θ/Avg extremes vs the 0.5 optimum.
type ablationsExperiment struct{}

func init() { Register(ablationsExperiment{}) }

func (ablationsExperiment) Name() string { return "ablations" }
func (ablationsExperiment) Desc() string {
	return "design-choice ablations: filter order, placement, single-winner, theta, fallback"
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

func (ablationsExperiment) Cells(opts Options) []Cell {
	ports := tenantPorts(opts.Tenants)
	specs := workload.Regions()[1].Specs(ports, 60_000*opts.RateScale)
	variants := ablationVariants()
	cells := make([]Cell, len(variants))
	for i, v := range variants {
		v := v
		cells[i] = Cell{Name: v.name, Run: func() any {
			rc := RunConfig{
				Mode:      l7lb.ModeHermes,
				Workers:   opts.Workers,
				Ports:     ports,
				Seed:      opts.Seed,
				Window:    opts.Window,
				Drain:     opts.Drain / 2,
				Specs:     specs,
				Mutate:    v.mutate,
				PostBuild: v.postBuild,
			}
			rc.Telemetry, rc.Tracer = opts.observers(v.name)
			run, err := Run(rc)
			if err != nil {
				panic(fmt.Sprintf("bench: ablation %q: %v", v.name, err))
			}
			return run
		}}
	}
	return cells
}

func (ablationsExperiment) Render(opts Options, results []any) string {
	tb := stats.NewTable("Ablations — Hermes design choices under a hang-prone mix",
		"variant", "avg (ms)", "P99 (ms)", "thr (kRPS)")
	for i, v := range ablationVariants() {
		run := results[i].(*RunResult)
		tb.AddRow(v.name, stats.FormatMS(run.AvgMS), stats.FormatMS(run.P99MS),
			fmt.Sprintf("%.1f", run.ThroughputKRPS))
	}
	return tb.Render()
}
