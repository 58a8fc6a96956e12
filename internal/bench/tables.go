package bench

import (
	"fmt"
	"math/rand"

	"hermes/internal/l7lb"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

func init() {
	Register(Experiment{Name: "table1", Cells: oneCell("table1", table1), Tables: cellTables,
		Desc: "request size and processing-time distributions per region"})
	Register(Experiment{Name: "table2", Cells: table2Cells, Tables: table2Tables,
		Desc: "CPU imbalance within/across devices under epoll-exclusive"})
	Register(Experiment{Name: "table4", Cells: oneCell("table4", table4), Tables: cellTables,
		Desc: "distribution of the 4 cases across regions"})
}

// table1 reproduces Table 1: request size and processing-time distributions
// across the four regional mixes. Sampling is per request from the mixes
// (these are traffic *inputs*; the paper measures them at the LB).
func table1(opts Options) *stats.Table {
	ports := tenantPorts(opts.Tenants)
	rng := rand.New(rand.NewSource(opts.Seed))
	tb := stats.NewTable("Table 1 — request size and processing time distributions",
		stats.Col("Region"), stats.Fixed("size P50 (B)", 0), stats.Fixed("size P90", 0), stats.Fixed("size P99", 0),
		stats.MS("proc P50 (ms)"), stats.MS("proc P90"), stats.MS("proc P99"))
	for _, region := range workload.Regions() {
		var size, proc stats.Sample
		for i := 0; i < 120_000; i++ {
			s, p := region.SampleRequest(rng, ports)
			size.Add(s)
			proc.Add(p / 1e6) // ns → ms
		}
		tb.AddRow(region.Name,
			size.Percentile(50), size.Percentile(90), size.Percentile(99),
			proc.Percentile(50), proc.Percentile(90), proc.Percentile(99))
	}
	return tb
}

// table2Device is one device's CPU balance figures.
type table2Device struct {
	name                      string
	maxUtil, minUtil, avgUtil float64
}

// table2Cells reproduces Table 2: CPU utilization imbalance within a
// device and across devices of a region running epoll-exclusive. Each
// simulated device carries a different tenant mix and load level
// (heterogeneous multi-tenancy is what spreads the averages); the
// per-device max/min core spread comes from exclusive's concentration.
// One cell per simulated device: private engine, private per-device RNG for
// the load level.
func table2Cells(opts Options) []Cell {
	const devices = 24
	cells := make([]Cell, devices)
	for d := 0; d < devices; d++ {
		name := fmt.Sprintf("device%02d", d)
		cells[d] = Cell{Name: name, Run: func() any {
			rng := rand.New(rand.NewSource(opts.Seed + int64(d)*977))
			// Device load level varies widely across a region.
			totalRPS := (4_000 + rng.Float64()*50_000) * opts.RateScale
			rc := opts.regionRun(d%4, l7lb.ModeExclusive, totalRPS)
			rc.Seed += int64(d)
			rc.Mutate = func(c *l7lb.Config) { c.RegisteredPorts = opts.RegisteredPorts }
			run := opts.run(name, rc)
			dev := table2Device{name: name, minUtil: 1}
			var sum float64
			for _, u := range run.WorkerUtil {
				dev.maxUtil = max(dev.maxUtil, u)
				dev.minUtil = min(dev.minUtil, u)
				sum += u
			}
			dev.avgUtil = sum / float64(len(run.WorkerUtil))
			return dev
		}}
	}
	return cells
}

// table2Tables keeps the devices with the largest and the smallest max-min
// spread, and the region's average.
func table2Tables(_ Options, results []any) []*stats.Table {
	worst, best := results[0].(table2Device), results[0].(table2Device)
	avg := table2Device{name: "region-avg"}
	for _, r := range results {
		d := r.(table2Device)
		if d.maxUtil-d.minUtil > worst.maxUtil-worst.minUtil {
			worst = d
		}
		if d.maxUtil-d.minUtil < best.maxUtil-best.minUtil {
			best = d
		}
		avg.maxUtil += d.maxUtil
		avg.minUtil += d.minUtil
		avg.avgUtil += d.avgUtil
	}
	n := float64(len(results))
	avg.maxUtil, avg.minUtil, avg.avgUtil = avg.maxUtil/n, avg.minUtil/n, avg.avgUtil/n

	tb := stats.NewTable("", stats.Col("device"), stats.Pct("max core util", 1), stats.Pct("min core util", 1),
		stats.Pct("max-min", 1), stats.Pct("avg util", 1))
	tb.Title = stats.Textf("Table 2 — CPU imbalance under epoll-exclusive (%d devices)", len(results))
	for _, d := range []table2Device{worst, best, avg} {
		tb.AddRow(d.name, d.maxUtil, d.minUtil, d.maxUtil-d.minUtil, d.avgUtil)
	}
	return []*stats.Table{tb}
}

// table4 reproduces Table 4: the distribution of the four cases across
// regions, plus the average row. The shares are the regional mix definition
// (a measured input in the paper).
func table4(Options) *stats.Table {
	tb := stats.NewTable("Table 4 — distribution of the 4 cases across regions",
		stats.Col(""), stats.Pct("Region1", 2), stats.Pct("Region2", 2), stats.Pct("Region3", 2),
		stats.Pct("Region4", 2), stats.Pct("Avg", 4))
	for ci := 0; ci < 4; ci++ {
		row := []any{stats.Textf("Case%d", ci+1)}
		sum := 0.0
		for _, r := range workload.Regions() {
			share := r.CaseShare[ci] * (1 - r.WebSocketShare)
			row = append(row, share)
			sum += share
		}
		tb.AddRow(append(row, sum/4)...)
	}
	return tb
}
