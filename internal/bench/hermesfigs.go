package bench

import (
	"fmt"
	"math"
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/probe"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

func init() {
	Register(Experiment{
		Name:   "fig11",
		Desc:   "delayed probes per day before/after Hermes rollout",
		Cells:  fig11Cells,
		Render: fig11Render,
	})
	Register(Seq("fig12",
		"normalized unit infra cost before/after Hermes", Fig12))
	Register(Experiment{
		Name:   "fig13",
		Desc:   "stddev of CPU util and #conns across workers, 3 modes",
		Cells:  fig13Cells,
		Render: fig13Render,
	})
	Register(Experiment{
		Name:   "fig14",
		Desc:   "coarse-filter pass ratio and scheduler frequency vs load",
		Cells:  fig14Cells,
		Render: fig14Render,
	})
	Register(Experiment{
		Name:   "fig15",
		Desc:   "offset θ/Avg sweep: P99 and throughput",
		Cells:  fig15Cells,
		Render: fig15Render,
	})
}

// measureDelayedRate runs the lag-effect scenario (long-lived connections,
// then a synchronized burst) with a prober and returns the fraction of
// probes delayed beyond 200 ms. Under exclusive wakeup the established
// connections concentrate on a few workers, so the burst swamps them for
// hundreds of milliseconds and probes arriving meanwhile queue behind it;
// Hermes spreads the same connections and absorbs the burst.
func measureDelayedRate(opts Options, mode l7lb.Mode) float64 {
	cfg := lbConfig(mode, opts.Workers, tenantPorts(1))
	cfg.RegisteredPorts = opts.RegisteredPorts
	lb := opts.newLB(mode.String(), opts.Seed, cfg)
	lb.Start()

	spec := workload.DefaultSurge(cfg.Ports[0])
	spec.Conns = int(12_000 * opts.RateScale)
	spec.EstablishWindow = time.Second
	spec.QuietUntil = 1500 * time.Millisecond
	// Size the burst under aggregate capacity (~60%): a balanced fleet
	// absorbs it, while exclusive's one concentrated worker drowns in it —
	// the paper's P999 30ms spike scenario.
	spec.BurstWindow = 300 * time.Millisecond
	spec.BurstCostNS = workload.Exp{MeanVal: 55 * 1000}
	spec.BurstInterReqNS = workload.Exp{MeanVal: 5 * 1000 * 1000}
	sg := workload.NewSurge(lb, spec)
	sg.Run()

	p := probe.NewWorkerProber(lb, cfg.Ports[0], 5*time.Millisecond)
	p.Run(4 * time.Second)
	lb.Eng.RunUntil(int64(8 * time.Second))
	return p.DelayedRate()
}

// fig11Cells reproduces Fig. 11: daily delayed probes before/after the
// Hermes rollout in two regions with different connection drain speeds. The
// per-mode delay rates are measured in simulation (one cell per rollout
// stage); the canary timeline in fig11Render converts them into the daily
// series.
func fig11Cells(opts Options) []Cell {
	rollout := []l7lb.Mode{l7lb.ModeExclusive, l7lb.ModeHermes}
	cells := make([]Cell, len(rollout))
	for i, mode := range rollout {
		cells[i] = Cell{Name: mode.String(), Run: func() any {
			return measureDelayedRate(opts, mode)
		}}
	}
	return cells
}

func fig11Render(opts Options, results []any) string {
	oldRate, newRate := results[0].(float64), results[1].(float64)
	out := fmt.Sprintf("measured delayed-probe rate: exclusive=%.5f hermes=%.6f\n", oldRate, newRate)
	for _, rg := range []struct {
		name     string
		halfLife float64
	}{
		{"Region1 (slow drain: IoT/cloud clients)", 3.0},
		{"Region2 (fast drain: mobile clients)", 0.4},
	} {
		m := probe.CanaryModel{
			DaysBefore:        4,
			RolloutDays:       3,
			DaysAfter:         14,
			ProbesPerDay:      2_000_000,
			OldDelayedRate:    oldRate,
			NewDelayedRate:    newRate,
			DrainHalfLifeDays: rg.halfLife,
		}
		series := m.Series()
		tb := stats.NewTable("Fig 11 — "+rg.name, "day", "delayed probes", "old-version share")
		for _, pt := range series {
			tb.AddRow(pt.Day, fmt.Sprintf("%.0f", pt.Delayed), fmt.Sprintf("%.3f", pt.OldShare))
		}
		before := series[0].Delayed
		after := series[len(series)-1].Delayed
		out += tb.Render()
		out += fmt.Sprintf("last-day reduction: %.2f%%; steady state after full drain: %.2f%% (paper: 99.8%% / 99%%)\n\n",
			100*(1-after/before), 100*(1-newRate/oldRate))
	}
	return out
}

// Fig12 reproduces Fig. 12: normalized unit infrastructure cost per month
// before/after the rollout. Worker hangs forced a 30% CPU safety threshold;
// Hermes raises it to an effective 37% (bounded below 40% by cross-AZ
// disaster-recovery reserves, §6.2), so the same traffic needs fewer VMs.
func Fig12(opts Options) string {
	const (
		months        = 12
		rolloutMonth  = 4
		rampMonths    = 3
		safetyBefore  = 0.30
		safetyAfter   = 0.37
		baseTraffic   = 400.0 // Gbps, arbitrary unit
		monthlyGrowth = 1.03
		vmCapacity    = 2.0 // Gbps at 100% CPU
	)
	tb := stats.NewTable("Fig 12 — normalized unit cost of cloud infra",
		"month", "traffic (Gbps)", "safety", "VMs", "unit cost (norm)")
	var base float64
	minUnit := math.Inf(1)
	for m := 0; m < months; m++ {
		traffic := baseTraffic * math.Pow(monthlyGrowth, float64(m))
		safety := safetyBefore
		if m >= rolloutMonth {
			ramp := float64(m-rolloutMonth+1) / rampMonths
			if ramp > 1 {
				ramp = 1
			}
			safety = safetyBefore + (safetyAfter-safetyBefore)*ramp
		}
		vms := math.Ceil(traffic / (vmCapacity * safety))
		unit := vms / traffic
		if m == 0 {
			base = unit
		}
		norm := unit / base
		if norm < minUnit {
			minUnit = norm
		}
		tb.AddRow(m, fmt.Sprintf("%.0f", traffic), fmt.Sprintf("%.2f", safety),
			fmt.Sprintf("%.0f", vms), fmt.Sprintf("%.3f", norm))
	}
	return tb.Render() + fmt.Sprintf("peak unit-cost reduction: %.1f%% (paper: 18.9%%)\n", 100*(1-minUnit))
}

type fig13Row struct{ cpu, conn string }

// fig13Cells reproduces Fig. 13: the standard deviation of per-worker CPU
// utilization and connection counts across two (compressed) days of
// diurnally modulated production-like traffic, one cell per mode.
func fig13Cells(opts Options) []Cell {
	ports := tenantPorts(opts.Tenants)
	// Two "days", each compressed to 2× the window budget, with a sinusoidal
	// diurnal rate profile sliced into phased generator windows.
	day := 2 * opts.Window
	total := 2 * day
	const slices = 16
	sliceDur := total / slices
	cells := make([]Cell, len(Table3Modes))
	for mi, mode := range Table3Modes {
		cells[mi] = Cell{Name: mode.String(), Run: func() any {
			cfg := lbConfig(mode, opts.Workers, ports)
			cfg.RegisteredPorts = opts.RegisteredPorts
			lb := opts.newLB(mode.String(), opts.Seed, cfg)
			lb.Start()

			region := workload.Regions()[0]
			for s := 0; s < slices; s++ {
				// Two full diurnal cycles across the run.
				level := 0.55 + 0.45*math.Sin(4*math.Pi*float64(s)/slices)
				if level < 0.1 {
					level = 0.1
				}
				for _, sp := range region.Specs(ports, 60_000*opts.RateScale*level) {
					g, err := workload.NewGenerator(lb, sp)
					if err != nil {
						panic(err)
					}
					g.RunWindow(time.Duration(s)*sliceDur, time.Duration(s+1)*sliceDur)
				}
			}

			bal := balance{lb: lb}
			tick := 50 * time.Millisecond
			for t := tick; t <= total; t += tick {
				lb.Eng.RunUntil(int64(t))
				bal.sample()
			}
			return fig13Row{
				cpu:  fmt.Sprintf("%.1f%%", bal.cpuSD.Mean()*100),
				conn: fmt.Sprintf("%.1f", bal.connSD.Mean()),
			}
		}}
	}
	return cells
}

func fig13Render(opts Options, results []any) string {
	tb := stats.NewTable("Fig 13 — balance over 2 compressed days",
		"mode", "CPU util stddev", "#conns stddev")
	for mi, mode := range Table3Modes {
		row := results[mi].(fig13Row)
		tb.AddRow(mode.String(), row.cpu, row.conn)
	}
	return tb.Render() + "paper: CPU SD 26% / 2.7% / 2.7%; conn SD 3200 / 50 / 20 (exclusive/reuseport/hermes)\n"
}

var fig14Levels = []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5}

// fig14Cells reproduces Fig. 14: the fraction of workers passing the coarse
// filter and the scheduler call frequency as load rises — one cell per load
// level.
func fig14Cells(opts Options) []Cell {
	// Region2's case-4/case-2 heavy mix makes worker load genuinely
	// uneven, so the coarse filter has something to filter.
	cells := make([]Cell, len(fig14Levels))
	for i, level := range fig14Levels {
		name := fmt.Sprintf("load%.2fx", level)
		cells[i] = Cell{Name: name, Run: func() any {
			return opts.run(name, opts.regionRun(1, l7lb.ModeHermes, 55_000*opts.RateScale*level))
		}}
	}
	return cells
}

func fig14Render(opts Options, results []any) string {
	tb := stats.NewTable("Fig 14 — coarse filter pass ratio and scheduling frequency vs load",
		"load", "pass ratio", "scheduler calls/s (k)", "kernel syncs/s (k)")
	for i, level := range fig14Levels {
		st := results[i].(*RunResult).LB.Ctl.Stats()
		elapsed := (opts.Window + opts.Drain/2).Seconds()
		tb.AddRow(fmt.Sprintf("%.2fx", level),
			fmt.Sprintf("%.2f", st.AvgPassed/float64(opts.Workers)),
			fmt.Sprintf("%.1f", float64(st.ScheduleCalls)/elapsed/1000),
			fmt.Sprintf("%.1f", float64(st.Syncs)/elapsed/1000))
	}
	return tb.Render()
}

var fig15Thetas = []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5}

// fig15Cells reproduces Fig. 15: sweeping the filter offset θ/Avg and
// reporting average P99 latency and throughput; the paper finds 0.5 optimal.
// One cell per sweep point.
func fig15Cells(opts Options) []Cell {
	cells := make([]Cell, len(fig15Thetas))
	for i, theta := range fig15Thetas {
		name := fmt.Sprintf("theta%.2f", theta)
		cells[i] = Cell{Name: name, Run: func() any {
			// Hang-prone Region2 mix at ~70% utilization: small θ concentrates new
			// connections on the few below-average workers; large θ admits loaded
			// ones. Both ends hurt tail latency (Fig. 15's U-shape).
			rc := opts.regionRun(1, l7lb.ModeHermes, 60_000*opts.RateScale)
			rc.Mutate = func(c *l7lb.Config) { c.Hermes.ThetaFrac = theta }
			return opts.run(name, rc)
		}}
	}
	return cells
}

func fig15Render(opts Options, results []any) string {
	tb := stats.NewTable("Fig 15 — effect of offset θ/Avg",
		"θ/Avg", "avg (ms)", "P99 (ms)", "throughput (kRPS)")
	for i, theta := range fig15Thetas {
		run := results[i].(*RunResult)
		tb.AddRow(fmt.Sprintf("%.2f", theta), stats.FormatMS(run.AvgMS),
			stats.FormatMS(run.P99MS), fmt.Sprintf("%.1f", run.ThroughputKRPS))
	}
	return tb.Render()
}
