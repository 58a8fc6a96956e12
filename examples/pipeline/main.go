// Pipeline: the full Fig. 1 ingress path, end to end — clients behind the
// cloud gateway emit VXLAN-encapsulated TCP frames (real bytes, built by
// internal/packet); the L4 LB decapsulates, NATs each tenant's public port
// to its dedicated L7 port, and ECMP-splits flows across a mixed cluster of
// L7 devices (§6.1's methodology: exclusive and reuseport devices deployed
// alongside Hermes ones). A flooding tenant is detected by the count-min
// heavy-hitter detector at the L4 LB and migrated to a sandbox mid-run
// (Appendix C).
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"time"

	"hermes/internal/cluster"
	"hermes/internal/heavyhitter"
	"hermes/internal/l7lb"
	"hermes/internal/sim"
	"hermes/internal/stats"
)

func main() {
	eng := sim.NewEngine(2026)
	tenants := []cluster.Tenant{
		{VNI: 1001, PublicPort: 443, L7Port: 9001},
		{VNI: 1002, PublicPort: 443, L7Port: 9002},
		{VNI: 6666, PublicPort: 80, L7Port: 9003}, // will turn hostile
	}
	modes := []l7lb.Mode{
		l7lb.ModeExclusive, l7lb.ModeReuseport,
		l7lb.ModeHermes, l7lb.ModeHermes, l7lb.ModeHermes, l7lb.ModeHermes,
	}
	c, err := cluster.New(eng, cluster.Config{
		Tenants:          tenants,
		DeviceModes:      modes,
		WorkersPerDevice: 8,
		Work:             cluster.DefaultWorkFactory(80*time.Microsecond, time.Microsecond),
	})
	if err != nil {
		panic(err)
	}
	c.Detector = heavyhitter.NewDetector(0.65, 2000)
	c.Detector.OnDetect = func(vni uint32, est uint32, total uint64) {
		fmt.Printf("t=%.2fs  L4 detector: VNI %d is a heavy hitter (%d of %d SYNs) -> sandbox\n",
			float64(eng.Now())/1e9, vni, est, total)
		c.BlockTenant(vni)
	}
	c.Start()

	// Two steady tenants.
	for _, vni := range []uint32{1001, 1002} {
		cl := c.NewClient(vni)
		for i := 0; i < 2000; i++ {
			cl.OpenAndRequest(time.Duration(i)*time.Millisecond, 100*time.Microsecond,
				200+(i%5)*150, true)
		}
	}
	// The hostile tenant behaves until t=0.5s, then floods.
	hostile := c.NewClient(6666)
	for i := 0; i < 400; i++ {
		hostile.OpenAndRequest(time.Duration(i)*time.Millisecond, 100*time.Microsecond, 200, true)
	}
	for i := 0; i < 20000; i++ {
		hostile.OpenAndRequest(500*time.Millisecond+time.Duration(i)*50*time.Microsecond,
			100*time.Microsecond, 200, true)
	}

	eng.RunUntil(int64(4 * time.Second))

	fmt.Println()
	tb := stats.NewTable("Per-device results (shared ECMP traffic)",
		stats.Col("device"), stats.Col("mode"), stats.Col("flows"), stats.MS("avg (ms)"), stats.MS("P99 (ms)"))
	for di, d := range c.Devices {
		tb.AddRow(fmt.Sprintf("dev%d", di), modes[di].String(), d.Completed, d.Latency.Mean(), d.Latency.Percentile(99))
	}
	fmt.Print(tb.Render())
	fmt.Printf("\npipeline: %d flows opened, %d attack SYNs blocked after migration, %d bad frames\n",
		c.FlowsOpened, c.SYNsBlocked, c.BadFrames)
	fmt.Println("the detector cut the flood at the L4 LB, so the L7 devices only absorbed")
	fmt.Println("its first seconds; steady tenants rode through on the NATed per-tenant ports.")
}
