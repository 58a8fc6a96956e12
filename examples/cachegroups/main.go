// Cachegroups: the group-based scheduling of Fig. A6. Workers are
// partitioned into groups; level-1 selection hashes the destination
// (DIP, Dport) to a group so same-destination traffic stays together
// (cache locality), and level-2 applies the Hermes bitmap within the group
// (load balance). Sweeping the group count trades one against the other:
// one group is standard Hermes, one worker per group degenerates to
// reuseport.
//
//	go run ./examples/cachegroups
package main

import (
	"fmt"
	"time"

	"hermes/internal/core"
	"hermes/internal/kernel"
	"hermes/internal/sim"
	"hermes/internal/stats"
)

func main() {
	const (
		workers = 16
		conns   = 40_000
		dests   = 64 // distinct backend destinations
	)

	tb := stats.NewTable("Fig A6 — locality vs balance across group counts",
		stats.Col("groups"), stats.Col("span"), stats.Fixed("avg workers per destination", 1),
		stats.Fixed("conn stddev across workers", 1))
	for _, groups := range []int{1, 2, 4, 8, 16} {
		eng := sim.NewEngine(5)
		ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
		rg, err := ns.ListenReuseport(8080, workers, 1<<20)
		if err != nil {
			panic(err)
		}
		hcfg := core.DefaultConfig()
		hcfg.MinWorkers = 1 // span-1 groups must still dispatch (reuseport-degenerate case)
		gc, err := core.New(workers, hcfg,
			core.WithGroups(groups), core.WithGroupKey(core.GroupByLocalityHash))
		if err != nil {
			panic(err)
		}
		if err := gc.AttachEBPF(rg); err != nil {
			panic(err)
		}
		now := int64(time.Second)
		for w := 0; w < workers; w++ {
			h := gc.NewWorkerHook(w)
			h.LoopEnter(now)
			h.ScheduleAndSync(now)
		}

		// Each connection targets one of `dests` destinations; track which
		// workers serve each destination.
		perDest := make([]map[int]bool, dests)
		for i := range perDest {
			perDest[i] = map[int]bool{}
		}
		perWorker := make([]float64, workers)
		prevLens := make([]int, workers)
		rng := eng.Rand()
		for i := 0; i < conns; i++ {
			d := rng.Intn(dests)
			tuple := kernel.FourTuple{
				SrcIP:   rng.Uint32(),
				SrcPort: uint16(1024 + i%60000),
				DstIP:   uint32(0x0a00_1000 + d),
				DstPort: 8080,
			}
			if _, ok := ns.DeliverSYN(tuple, nil); !ok {
				continue
			}
			// Attribute the connection to whichever socket's queue grew.
			for wi, s := range rg.Sockets() {
				if q := s.QueueLen(); q != prevLens[wi] {
					prevLens[wi] = q
					perWorker[wi]++
					perDest[d][wi] = true
					break
				}
			}
		}

		var spreadSum float64
		for _, ws := range perDest {
			spreadSum += float64(len(ws))
		}
		_, sd := stats.MeanStddev(perWorker)
		tb.AddRow(groups, workers/groups, spreadSum/float64(dests), sd)
	}
	fmt.Print(tb.Render())
	fmt.Println("\nFewer groups → better balance (low stddev) but every destination's")
	fmt.Println("traffic touches many workers; more groups → destinations pin to few")
	fmt.Println("workers (cache-friendly) at the cost of balance. The grouping")
	fmt.Println("granularity is the knob (Fig. A6).")
}
