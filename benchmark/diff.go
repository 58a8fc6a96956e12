package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// series collects each metric's values per workload from one -out file; a
// file written with -repeat K holds K values per metric.
func readSeries(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
	}
	return out, nil
}

// verdict judges new against base for one metric. With repeats in either
// file, a spread wider than the bound means the runs cannot resolve a change
// of that size: the answer is then unresolved, never same.
func verdict(m metricSpec, base, cur []float64) (ratio float64, v string) {
	b, c := median(base), median(cur)
	if b == 0 {
		return math.NaN(), "unresolved"
	}
	ratio = c / b
	worse := ratio - 1
	if m.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case m.Bound == 0:
		return ratio, "-"
	case math.Max(spread(base), spread(cur)) > m.Bound:
		return ratio, "unresolved"
	case worse > m.Bound:
		return ratio, "worse"
	case worse < -m.Bound:
		return ratio, "better"
	}
	return ratio, "same"
}

// runDiff prints one row per workload × metric and fails on any "worse".
// Bounds, units and directions come from BENCHMARK.json.
func runDiff(spec *benchSpec, basePath, newPath string) error {
	base, err := readSeries(basePath)
	if err != nil {
		return err
	}
	cur, err := readSeries(newPath)
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Printf("%-24s %-36s %14s %14s %8s %6s %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			bv, cv := base[w.Name][m.Name], cur[w.Name][m.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			r, v := verdict(m, bv, cv)
			if v == "worse" {
				regressed++
			}
			fmt.Printf("%-24s %-36s %14.6g %14.6g %8.4f %6.2f %s\n", w.Name, m.Name, median(bv), median(cv), r, m.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", regressed)
	}
	return nil
}
