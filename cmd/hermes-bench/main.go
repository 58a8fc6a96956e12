// Command hermes-bench regenerates the paper's tables and figures against
// the simulated stack. Run a single experiment with -exp, or everything:
//
//	hermes-bench -exp table3
//	hermes-bench -exp all -seed 7
//	hermes-bench -exp table3 -parallel 8 -metrics table3.json
//	hermes-bench -exp scale -parallel 1 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// Output is plain text, one paper-style table or series per experiment.
// Independent experiment cells (each owns its own engine and seed) fan out
// over -parallel worker goroutines; results are assembled in cell order, so
// the output is byte-identical at every -parallel setting.
//
// -metrics additionally dumps the cross-layer telemetry catalog
// (docs/TELEMETRY.md) as JSON keyed by experiment and cell. Recording
// never perturbs the simulation: rendered output is byte-identical with
// and without it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"hermes/internal/bench"
	"hermes/internal/tracing"
)

// die ends the run with one line on stderr: exit 2 for a flag the run cannot
// honour, 1 for an artefact it could not write.
func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids, all, or list (prints the ids)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		workers  = flag.Int("workers", 16, "workers per LB device")
		window   = flag.Duration("window", time.Second, "measurement window (virtual time)")
		scale    = flag.Float64("scale", 0.5, "workload rate scale")
		tenants  = flag.Int("tenants", 8, "tenant ports per LB")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "cell-level fan-out (independent sims per experiment); 1 = sequential")
		metrics  = flag.String("metrics", "", "write per-cell telemetry dumps (JSON) to this path")

		spans      = flag.String("spans", "", "record one cell's spans (docs/TRACING.md) and write the span dump hermesctl reads to this path")
		spanCell   = flag.String("span-cell", "", "cell to record (default: the experiment's first cell; see -exp list)")
		spanSample = flag.Int("span-sample", 1, "head-sample 1 in N connections (1 = every connection)")
		spanTail   = flag.Duration("span-tail", 0, "also keep any connection with a request at least this slow (0 = off)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path (go tool pprof; see docs/PERF.md)")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this path after the run")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			die(1, "create cpu profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(1, "start cpu profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				die(1, "create mem profile: %v", err)
			}
			runtime.GC() // flush dead objects so the profile shows live + cumulative allocs accurately
			if err := pprof.WriteHeapProfile(f); err != nil {
				die(1, "write mem profile: %v", err)
			}
			f.Close()
		}()
	}

	opts := bench.DefaultOptions()
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Window = *window
	opts.RateScale = *scale
	opts.Tenants = *tenants
	opts.Parallel = *parallel
	if err := opts.Validate(); err != nil {
		die(2, "%v", err)
	}

	experiments := bench.Experiments()
	all := make([]string, 0, len(experiments))
	for name := range experiments {
		all = append(all, name)
	}
	sort.Strings(all)
	if *exp == "list" {
		for _, n := range all {
			if cells := experiments[n].Cells(opts); len(cells) > 1 {
				fmt.Printf("%s\t(%d parallel cells)\n", n, len(cells))
			} else {
				fmt.Printf("%s\t(sequential)\n", n)
			}
		}
		return
	}
	names := all
	if *exp != "all" {
		names = strings.Split(*exp, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
			if _, ok := experiments[names[i]]; !ok {
				die(2, "unknown experiment %q (try -exp list)", names[i])
			}
		}
	}

	if *spans != "" {
		// Span recording is scoped to one cell of one experiment: resolve
		// the designated cell up front (before any fan-out) so the choice
		// is deterministic at every -parallel setting.
		if len(names) != 1 {
			die(2, "-spans records a single experiment: pass one -exp name")
		}
		cell := *spanCell
		if cell == "" {
			cell = experiments[names[0]].Cells(opts)[0].Name
		}
		tcfg := tracing.DefaultConfig()
		tcfg.SampleEvery = *spanSample
		tcfg.TailLatencyNS = int64(*spanTail)
		opts.Spans = bench.NewSpanRecorder(cell, tcfg)
	}

	dumps := make(map[string]*bench.MetricsCollector)
	for _, name := range names {
		e := experiments[name]
		if *metrics != "" {
			opts.Metrics = bench.NewMetricsCollector()
			dumps[name] = opts.Metrics
		}
		start := time.Now()
		tables := bench.RunExperiment(e, opts)
		fmt.Printf("### %s — %s (wall %.1fs)\n", name, e.Desc, time.Since(start).Seconds())
		for _, tb := range tables {
			fmt.Print(tb.Render())
		}
		fmt.Println()
	}

	if *metrics != "" {
		buf, err := json.MarshalIndent(dumps, "", "  ")
		if err != nil {
			die(1, "marshal metrics: %v", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*metrics, buf, 0o644); err != nil {
			die(1, "write metrics: %v", err)
		}
	}

	if *spans != "" {
		// Written the way -metrics is, whole or not at all; the error for a
		// designated cell that never ran names the cells that did.
		var buf bytes.Buffer
		err := opts.Spans.WriteDump(&buf)
		if err == nil {
			err = os.WriteFile(*spans, buf.Bytes(), 0o644)
		}
		if err != nil {
			die(1, "write spans: %v", err)
		}
	}
}
