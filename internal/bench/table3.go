package bench

import (
	"fmt"

	"hermes/internal/l7lb"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

// Table3Cell is one (case, mode, level) measurement.
type Table3Cell struct {
	AvgMS, P99MS, ThrK float64
}

// LevelNames are the paper's replay levels.
var LevelNames = []string{"light", "medium", "heavy"}

// LevelScales are the replay-rate multipliers for the levels (§6.2: traffic
// replayed at 2–3× the original rate).
var LevelScales = []float64{1, 2, 3}

// The table3 experiment reproduces Table 3: the four traffic cases at three
// load levels under epoll-exclusive, reuseport, and Hermes, reporting
// average latency, P99 latency, and throughput. The 4×3×3 grid of
// independent simulations is the widest sweep in the harness, so its cells
// fan out over the worker pool; assembly by (case, level, mode) index
// keeps the rendered table byte-identical to a sequential run.
func init() {
	Register(Experiment{Name: "table3", Cells: table3Cells, Tables: table3Tables,
		Desc: "4 traffic cases x {exclusive,reuseport,hermes} x {light,medium,heavy}"})
}

// table3Cells enumerates the grid in (case, level, mode) order; the cell seed
// is a function of the grid position, so any subset re-runs identically.
func table3Cells(opts Options) []Cell {
	ports := tenantPorts(opts.Tenants)
	cases := workload.Cases(ports)
	nLevels, nModes := len(LevelScales), len(Table3Modes)
	cells := make([]Cell, 0, len(cases)*nLevels*nModes)
	for ci, cs := range cases {
		for li := range LevelScales {
			for mi, mode := range Table3Modes {
				name := fmt.Sprintf("%s/%s/%s", cs.Name, LevelNames[li], mode)
				cells = append(cells, Cell{Name: name, Run: func() any {
					spec := cs.Scale(opts.RateScale * LevelScales[li])
					run := opts.run(name, RunConfig{
						Mode:    mode,
						Workers: opts.Workers,
						Seed:    opts.Seed + int64(ci*100+li*10+mi),
						Window:  opts.Window,
						Drain:   opts.Drain,
						Specs:   []workload.Spec{spec},
						Mutate: func(c *l7lb.Config) {
							c.RegisteredPorts = opts.RegisteredPorts
						},
					})
					return Table3Cell{AvgMS: run.AvgMS, P99MS: run.P99MS, ThrK: run.ThroughputKRPS}
				}})
			}
		}
	}
	return cells
}

// Marked reports whether a cell fails the paper's criterion against the
// best cell of its (case, level): request time >50% above the best or
// throughput >20% below the best.
func Marked(cell Table3Cell, peers []Table3Cell) bool {
	bestAvg, bestThr := cell.AvgMS, cell.ThrK
	for _, p := range peers {
		if p.AvgMS < bestAvg {
			bestAvg = p.AvgMS
		}
		if p.ThrK > bestThr {
			bestThr = p.ThrK
		}
	}
	return cell.AvgMS > bestAvg*1.5 || cell.ThrK < bestThr*0.8
}

// table3Tables lays the grid out as the paper does, one table per case with
// a row per mode and a column group per level; a cell that fails Marked
// against its (case, level) peers carries the mark.
func table3Tables(opts Options, results []any) []*stats.Table {
	nLevels, nModes := len(LevelScales), len(Table3Modes)
	var tables []*stats.Table
	for ci, cs := range workload.Cases(tenantPorts(opts.Tenants)) {
		tb := stats.NewTable("Table 3 — "+cs.Name, stats.Col("mode"),
			stats.MS("L avg"), stats.MS("L p99"), stats.Fixed("L thr(k)", 1),
			stats.MS("M avg"), stats.MS("M p99"), stats.Fixed("M thr(k)", 1),
			stats.MS("H avg"), stats.MS("H p99"), stats.Fixed("H thr(k)", 1))
		peers := make([]Table3Cell, nModes)
		for mi, mode := range Table3Modes {
			row := []any{mode.String()}
			for li := range LevelScales {
				for pi := range peers {
					peers[pi] = results[(ci*nLevels+li)*nModes+pi].(Table3Cell)
				}
				c := peers[mi]
				row = append(row, stats.Mark{Value: c.AvgMS, X: Marked(c, peers)}, c.P99MS, c.ThrK)
			}
			tb.AddRow(row...)
		}
		tb.Note("")
		tables = append(tables, tb)
	}
	return tables
}
