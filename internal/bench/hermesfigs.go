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
	Register(Experiment{Name: "fig11", Cells: fig11Cells, Tables: fig11Tables,
		Desc: "delayed probes per day before/after Hermes rollout"})
	Register(Experiment{Name: "fig12", Cells: oneCell("fig12", fig12), Tables: cellTables,
		Desc: "normalized unit infra cost before/after Hermes"})
	Register(Experiment{Name: "fig13", Cells: fig13Cells, Tables: fig13Tables,
		Desc: "stddev of CPU util and #conns across workers, 3 modes"})
	Register(Experiment{Name: "fig14", Cells: fig14Cells, Tables: fig14Tables,
		Desc: "coarse-filter pass ratio and scheduler frequency vs load"})
	Register(Experiment{Name: "fig15", Cells: fig15Cells, Tables: fig15Tables,
		Desc: "offset θ/Avg sweep: P99 and throughput"})
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
// stage); the canary timeline in fig11Tables converts them into the daily
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

func fig11Tables(_ Options, results []any) []*stats.Table {
	oldRate, newRate := results[0].(float64), results[1].(float64)
	var tables []*stats.Table
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
		tb := stats.NewTable("Fig 11 — "+rg.name,
			stats.Col("day"), stats.Fixed("delayed probes", 0), stats.Fixed("old-version share", 3))
		for _, pt := range series {
			tb.AddRow(pt.Day, pt.Delayed, pt.OldShare)
		}
		before := series[0].Delayed
		after := series[len(series)-1].Delayed
		tb.Note("last-day reduction: %.2f%%; steady state after full drain: %.2f%% (paper: 99.8%% / 99%%)",
			100*(1-after/before), 100*(1-newRate/oldRate))
		tb.Note("")
		tables = append(tables, tb)
	}
	tables[0].Lead("measured delayed-probe rate: exclusive=%.5f hermes=%.6f", oldRate, newRate)
	return tables
}

// fig12 reproduces Fig. 12: normalized unit infrastructure cost per month
// before/after the rollout. Worker hangs forced a 30% CPU safety threshold;
// Hermes raises it to an effective 37% (bounded below 40% by cross-AZ
// disaster-recovery reserves, §6.2), so the same traffic needs fewer VMs.
func fig12(Options) *stats.Table {
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
		stats.Col("month"), stats.Fixed("traffic (Gbps)", 0), stats.Fixed("safety", 2), stats.Fixed("VMs", 0),
		stats.Fixed("unit cost (norm)", 3))
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
		tb.AddRow(m, traffic, safety, vms, norm)
	}
	tb.Note("peak unit-cost reduction: %.1f%% (paper: 18.9%%)", 100*(1-minUnit))
	return tb
}

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
			return []any{mode.String(), bal.cpuSD.Mean(), bal.connSD.Mean()}
		}}
	}
	return cells
}

func fig13Tables(_ Options, results []any) []*stats.Table {
	tb := stats.NewTable("Fig 13 — balance over 2 compressed days",
		stats.Col("mode"), stats.Pct("CPU util stddev", 1), stats.Fixed("#conns stddev", 1))
	for _, r := range results {
		tb.AddRow(r.([]any)...)
	}
	tb.Note("paper: CPU SD 26% / 2.7% / 2.7%; conn SD 3200 / 50 / 20 (exclusive/reuseport/hermes)")
	return []*stats.Table{tb}
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

func fig14Tables(opts Options, results []any) []*stats.Table {
	tb := stats.NewTable("Fig 14 — coarse filter pass ratio and scheduling frequency vs load",
		stats.Col("load"), stats.Fixed("pass ratio", 2), stats.Fixed("scheduler calls/s (k)", 1),
		stats.Fixed("kernel syncs/s (k)", 1))
	for i, level := range fig14Levels {
		st := results[i].(*RunResult).LB.Ctl.Stats()
		elapsed := (opts.Window + opts.Drain/2).Seconds()
		tb.AddRow(stats.Textf("%.2fx", level), st.AvgPassed/float64(opts.Workers),
			float64(st.ScheduleCalls)/elapsed/1000, float64(st.Syncs)/elapsed/1000)
	}
	return []*stats.Table{tb}
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

func fig15Tables(_ Options, results []any) []*stats.Table {
	tb := stats.NewTable("Fig 15 — effect of offset θ/Avg",
		stats.Fixed("θ/Avg", 2), stats.MS("avg (ms)"), stats.MS("P99 (ms)"), stats.Fixed("throughput (kRPS)", 1))
	for i, theta := range fig15Thetas {
		run := results[i].(*RunResult)
		tb.AddRow(theta, run.AvgMS, run.P99MS, run.ThroughputKRPS)
	}
	return []*stats.Table{tb}
}
