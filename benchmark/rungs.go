package main

import (
	"runtime"
	"time"
)

const rungPasses = 3 // each rung reports the median of this many timed passes

// runRungs walks the ladder: every rung warms up, then runs a fixed number of
// iterations rungPasses times, and reports the median ns/op as <name>_ns and
// the allocations per op of the last pass as <name>_allocs.
func runRungs(m map[string]float64) error {
	for _, rg := range rungTable() {
		body, err := rg.setup()
		if err != nil {
			return err
		}
		iters := scaled(rg.iters, 100)
		body(iters/10 + 1)
		var ns []float64
		var allocs float64
		for p := 0; p < rungPasses; p++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t := time.Now()
			body(iters)
			ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(iters))
			runtime.ReadMemStats(&m1)
			allocs = float64(m1.Mallocs-m0.Mallocs) / float64(iters)
		}
		m[rg.name+"_ns"] = median(ns)
		m[rg.name+"_allocs"] = allocs
	}
	return nil
}
