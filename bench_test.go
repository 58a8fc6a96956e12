// Top-level benchmark harness: one testing.B sub-benchmark per registered
// experiment (every table and figure of the paper's evaluation), Table 3 cell
// by cell, Table 5's component code paths, plus the ablation benches DESIGN.md
// calls out. Each iteration runs a scaled-down instance of the experiment; use
// cmd/hermes-bench for full-size paper-style output.
//
//	go test -bench=. -benchmem
package hermes_test

import (
	"sort"
	"testing"
	"time"

	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/l7lb"
	"hermes/internal/workload"
)

// benchOptions shrinks experiments so a -bench run finishes in minutes.
func benchOptions() bench.Options {
	o := bench.DefaultOptions()
	o.Workers = 8
	o.Tenants = 4
	o.Window = 100 * time.Millisecond
	o.Drain = 200 * time.Millisecond
	o.RateScale = 0.25
	return o
}

// runCell measures one Table 3 cell per iteration.
func runCell(b *testing.B, spec workload.Spec, mode l7lb.Mode) {
	b.Helper()
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(bench.RunConfig{
			Mode:    mode,
			Workers: o.Workers,
			Seed:    int64(i + 1),
			Window:  o.Window,
			Drain:   o.Drain,
			Specs:   []workload.Spec{spec},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("no requests completed")
		}
		b.ReportMetric(res.ThroughputKRPS, "kRPS")
		b.ReportMetric(res.P99MS, "p99ms")
	}
}

// BenchmarkExperiment runs every registered experiment end to end, one
// sub-benchmark each: registering an experiment is what benchmarks it. Each
// run must give well-formed tables (stats.Table.Check).
func BenchmarkExperiment(b *testing.B) {
	exps := bench.Experiments()
	names := make([]string, 0, len(exps))
	for name := range exps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := exps[name]
		b.Run(name, func(b *testing.B) {
			o := benchOptions()
			for i := 0; i < b.N; i++ {
				o.Seed = int64(i + 1)
				tables := bench.RunExperiment(e, o)
				if len(tables) == 0 {
					b.Fatal(name + " gave no tables")
				}
				for _, tb := range tables {
					if err := tb.Check(); err != nil {
						b.Fatalf("%s: %v", name, err)
					}
				}
			}
		})
	}
}

func BenchmarkTable3(b *testing.B) {
	ports := []uint16{8080, 8081, 8082, 8083}
	cases := workload.Cases(ports)
	names := []string{"case1", "case2", "case3", "case4"}
	for ci, cs := range cases {
		spec := cs.Scale(benchOptions().RateScale)
		for _, mode := range bench.Table3Modes {
			mode := mode
			b.Run(names[ci]+"/"+mode.String(), func(b *testing.B) {
				runCell(b, spec, mode)
			})
		}
	}
}

// BenchmarkTable5 measures the real component code paths — the ns/op here
// are Table 5's inputs, from the fixtures -exp table5 times.
func BenchmarkTable5(b *testing.B) {
	fixtures, err := bench.OverheadFixtures()
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range fixtures {
		b.Run(f.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.Op(i)
			}
		})
	}
}

// --- ablations (DESIGN.md §4) ---

// BenchmarkAblationFilterOrder compares the paper's time→conn→event cascade
// against the alternatives on a heterogeneous workload.
func BenchmarkAblationFilterOrder(b *testing.B) {
	o := benchOptions()
	spec := workload.Case4([]uint16{8080}).Scale(o.RateScale)
	for _, ord := range []struct {
		name  string
		order core.FilterOrder
	}{
		{"time-conn-event", core.OrderTimeConnEvent},
		{"time-event-conn", core.OrderTimeEventConn},
		{"time-only", core.OrderTimeOnly},
	} {
		ord := ord
		b.Run(ord.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.RunConfig{
					Mode:    l7lb.ModeHermesNative,
					Workers: o.Workers,
					Seed:    int64(i + 1),
					Window:  o.Window,
					Drain:   o.Drain,
					Specs:   []workload.Spec{spec},
					Mutate:  func(c *l7lb.Config) { c.FilterOrder = ord.order },
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.P99MS, "p99ms")
			}
		})
	}
}

// BenchmarkAblationTheta sweeps the offset at the two extremes and the
// optimum (Fig. 15 in bench form).
func BenchmarkAblationTheta(b *testing.B) {
	o := benchOptions()
	spec := workload.Case2([]uint16{8080}).Scale(o.RateScale)
	for _, theta := range []float64{0, 0.5, 2.5} {
		theta := theta
		b.Run(formatTheta(theta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.RunConfig{
					Mode:    l7lb.ModeHermes,
					Workers: o.Workers,
					Seed:    int64(i + 1),
					Window:  o.Window,
					Drain:   o.Drain,
					Specs:   []workload.Spec{spec},
					Mutate:  func(c *l7lb.Config) { c.Hermes.ThetaFrac = theta },
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.P99MS, "p99ms")
			}
		})
	}
}

func formatTheta(t float64) string {
	switch t {
	case 0:
		return "theta-0"
	case 0.5:
		return "theta-0.5"
	default:
		return "theta-2.5"
	}
}

// BenchmarkAblationSingleWinner compares two-stage filtering against
// publishing only the single best worker per sync (§5.3.2: the single
// winner gets every new connection between syncs and overloads).
func BenchmarkAblationSingleWinner(b *testing.B) {
	o := benchOptions()
	spec := workload.Case1([]uint16{8080}).Scale(o.RateScale)
	for _, single := range []bool{false, true} {
		single := single
		name := "two-stage"
		if single {
			name = "single-winner"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.RunConfig{
					Mode:    l7lb.ModeHermes,
					Workers: o.Workers,
					Seed:    int64(i + 1),
					Window:  o.Window,
					Drain:   o.Drain,
					Specs:   []workload.Spec{spec},
					Mutate: func(c *l7lb.Config) {
						if single {
							c.Hermes.MinWorkers = 1
						}
					},
					PostBuild: func(lb *l7lb.LB) {
						if single {
							lb.Ctl.SetSingleWinner(true)
						}
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.P99MS, "p99ms")
			}
		})
	}
}

// BenchmarkAblationSchedulerPlacement compares scheduling at the end of the
// event loop (the paper's choice) against the beginning (§5.3.2: stale
// pre-epoll_wait status).
func BenchmarkAblationSchedulerPlacement(b *testing.B) {
	o := benchOptions()
	spec := workload.Case2([]uint16{8080}).Scale(o.RateScale)
	for _, atStart := range []bool{false, true} {
		atStart := atStart
		name := "loop-end"
		if atStart {
			name = "loop-start"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.RunConfig{
					Mode:    l7lb.ModeHermes,
					Workers: o.Workers,
					Seed:    int64(i + 1),
					Window:  o.Window,
					Drain:   o.Drain,
					Specs:   []workload.Spec{spec},
					Mutate:  func(c *l7lb.Config) { c.ScheduleAtLoopStart = atStart },
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.P99MS, "p99ms")
			}
		})
	}
}
