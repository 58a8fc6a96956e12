package bench

import (
	"fmt"
	"time"

	"hermes/internal/cluster"
	"hermes/internal/l7lb"
	"hermes/internal/sim"
	"hermes/internal/stats"
)

func init() {
	Register(Experiment{Name: "cluster", Cells: oneCell("cluster", clusterMethodology), Tables: cellTables,
		Desc: "§6.1 methodology: mixed-mode devices behind the Fig. 1 VXLAN/L4 pipeline"})
}

// clusterMethodology reproduces §6.1's evaluation setup end to end through
// the Fig. 1 pipeline: one epoll-exclusive device and one reuseport device
// redeployed alongside Hermes devices in a single cluster, all fed the same
// ECMP-split VXLAN traffic, compared on identical workloads. Each device
// gets half the run's workers, and at least one.
func clusterMethodology(opts Options) *stats.Table {
	eng := sim.NewEngine(opts.Seed)
	tenants := []cluster.Tenant{
		{VNI: 100, PublicPort: 443, L7Port: 9001},
		{VNI: 200, PublicPort: 80, L7Port: 9002},
		{VNI: 300, PublicPort: 443, L7Port: 9003},
	}
	modes := []l7lb.Mode{
		l7lb.ModeExclusive, l7lb.ModeReuseport,
		l7lb.ModeHermes, l7lb.ModeHermes,
		l7lb.ModeHermes, l7lb.ModeHermes,
		l7lb.ModeHermes, l7lb.ModeHermes,
	}
	c, err := cluster.New(eng, cluster.Config{
		Tenants:          tenants,
		DeviceModes:      modes,
		WorkersPerDevice: max(1, opts.Workers/2),
		// The cluster builds its own devices on the one engine they share;
		// this hook is where each gets the observers newLB would give it.
		LB: func(di int, cfg *l7lb.Config) {
			cfg.Telemetry, cfg.Tracer = opts.observers(fmt.Sprintf("dev%d", di))
		},
		Work: cluster.DefaultWorkFactory(60*time.Microsecond, 2*time.Microsecond),
	})
	if err != nil {
		panic(err)
	}
	c.Start()

	rng := eng.Rand()
	window := 2 * opts.Window
	for _, vni := range []uint32{100, 200, 300} {
		cl := c.NewClient(vni)
		n := int(6000 * opts.RateScale)
		for i := 0; i < n; i++ {
			size := 100 + rng.Intn(500)
			if rng.Intn(40) == 0 {
				size = 15_000 // expensive request (~30ms): hangs a worker
			}
			at := time.Duration(float64(window) * float64(i) / float64(n))
			cl.OpenAndRequest(at, 50*time.Microsecond, size, true)
		}
	}
	eng.RunUntil(int64(window) + int64(3*time.Second))

	tb := stats.NewTable("Cluster methodology (§6.1) — mixed-mode devices on shared ECMP traffic",
		stats.Col("device"), stats.Col("mode"), stats.Col("flows served"), stats.MS("avg (ms)"), stats.MS("P99 (ms)"))
	for di, d := range c.Devices {
		tb.AddRow(fmt.Sprintf("dev%d", di), modes[di].String(), d.Completed, d.Latency.Mean(), d.Latency.Percentile(99))
	}
	tb.Note("pipeline: %d flows opened, %d refused, %d bad frames, %d live at end",
		c.FlowsOpened, c.FlowsRefused, c.BadFrames, c.LiveFlows())
	return tb
}
