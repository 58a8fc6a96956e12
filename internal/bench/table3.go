package bench

import (
	"fmt"

	"hermes/internal/l7lb"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

// Table3Cell is one (case, mode, level) measurement.
type Table3Cell struct {
	Mode   l7lb.Mode
	AvgMS  float64
	P99MS  float64
	ThrK   float64
	Failed uint64 // requests sent but never completed
}

// Table3Result holds the full grid: [case][level][mode].
type Table3Result struct {
	Cases  []string
	Levels []string
	Modes  []l7lb.Mode
	Cells  [][][]Table3Cell
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
	Register(Experiment{
		Name:  "table3",
		Desc:  "4 traffic cases x {exclusive,reuseport,hermes} x {light,medium,heavy}",
		Cells: table3Cells,
		// Assemble the flat results back into the [case][level][mode] grid.
		Render: func(opts Options, results []any) string {
			return table3Assemble(opts, results).Render()
		},
	})
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
					return Table3Cell{
						Mode:   mode,
						AvgMS:  run.AvgMS,
						P99MS:  run.P99MS,
						ThrK:   run.ThroughputKRPS,
						Failed: run.RequestsSent - run.Completed,
					}
				}})
			}
		}
	}
	return cells
}

func table3Assemble(opts Options, results []any) *Table3Result {
	cases := workload.Cases(tenantPorts(opts.Tenants))
	res := &Table3Result{
		Levels: LevelNames,
		Modes:  Table3Modes,
	}
	nLevels, nModes := len(LevelScales), len(res.Modes)
	res.Cells = make([][][]Table3Cell, len(cases))
	for ci, cs := range cases {
		res.Cases = append(res.Cases, cs.Name)
		res.Cells[ci] = make([][]Table3Cell, nLevels)
		for li := range LevelScales {
			res.Cells[ci][li] = make([]Table3Cell, nModes)
		}
	}
	for j, r := range results {
		ci, li, mi := j/(nLevels*nModes), j/nModes%nLevels, j%nModes
		res.Cells[ci][li][mi] = r.(Table3Cell)
	}
	return res
}

// Table3 runs the full grid and returns the assembled result (tests and
// benchmarks drive the grid through this; the registry path renders it).
func Table3(opts Options) *Table3Result {
	return table3Assemble(opts, runCells(opts, table3Cells(opts)))
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

// Render formats the grid as the paper lays it out.
func (r *Table3Result) Render() string {
	out := ""
	for ci, name := range r.Cases {
		tb := stats.NewTable("Table 3 — "+name,
			"mode", "L avg", "L p99", "L thr(k)", "M avg", "M p99", "M thr(k)", "H avg", "H p99", "H thr(k)")
		for mi, mode := range r.Modes {
			row := []any{mode.String()}
			for li := range r.Levels {
				c := r.Cells[ci][li][mi]
				mark := ""
				if Marked(c, r.Cells[ci][li]) {
					mark = " (x)"
				}
				row = append(row,
					stats.FormatMS(c.AvgMS)+mark,
					stats.FormatMS(c.P99MS),
					fmt.Sprintf("%.1f", c.ThrK),
				)
			}
			tb.AddRow(row...)
		}
		out += tb.Render() + "\n"
	}
	return out
}
