// Quickstart: build one simulated 16-core L7 LB per dispatch mode, replay
// the same Case-2-style workload (high CPS, heavy-tailed processing time)
// against each, and compare latency and throughput.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/sim"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

func main() {
	const (
		seed    = 42
		workers = 16
		window  = time.Second
		drain   = 2 * time.Second
	)
	ports := []uint16{8080, 8081, 8082, 8083}

	tb := stats.NewTable("Quickstart — case2-style workload, 16 workers",
		stats.Col("mode"), stats.MS("avg (ms)"), stats.MS("P99 (ms)"), stats.Fixed("throughput (kRPS)", 1),
		stats.Fixed("conn stddev", 1))
	for _, mode := range []l7lb.Mode{
		l7lb.ModeExclusive, l7lb.ModeReuseport, l7lb.ModeHermes,
	} {
		eng := sim.NewEngine(seed)
		cfg := l7lb.DefaultConfig(mode)
		cfg.Workers = workers
		cfg.Ports = ports
		lb, err := l7lb.New(eng, cfg)
		if err != nil {
			panic(err)
		}
		lb.Start()

		spec := workload.Case2(ports).Scale(0.5)
		gen, err := workload.NewGenerator(lb, spec)
		if err != nil {
			panic(err)
		}
		gen.Run(window)

		eng.RunUntil(int64(window))
		inWindow := lb.Completed
		eng.RunUntil(int64(window + drain))

		conns := lb.WorkerConnCounts()
		f := make([]float64, len(conns))
		for i, c := range conns {
			f[i] = float64(c)
		}
		_, connSD := stats.MeanStddev(f)

		tb.AddRow(mode.String(), lb.Latency.Mean(), lb.Latency.Percentile(99),
			float64(inWindow)/window.Seconds()/1000, connSD)
	}
	fmt.Print(tb.Render())
	fmt.Println("\nHermes schedules new connections away from busy and hung workers")
	fmt.Println("using the worker status table; reuseport hashes blindly; exclusive")
	fmt.Println("wakeups prefer the most recently registered idle worker.")
}
