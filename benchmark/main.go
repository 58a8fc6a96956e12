// Command benchmark is the one command every performance claim about this
// repository is measured with. BENCHMARK.json at the repository root names
// its workloads and metrics; README.md in this directory defines them.
//
//	go run ./benchmark -workload <name> -seed N -seconds S -trace 0|1
//	go run ./benchmark -workload all -seed N [-repeat K] [-out f.json]
//	go run ./benchmark -rungs
//	go run ./benchmark -diff base.json new.json
//
// With one workload named, the last line of standard output is one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. Everything else goes to
// standard error. A failed correctness check makes the exit code non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single source of workload names, metric
// names, units, directions and bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	root string // directory BENCHMARK.json was found in
}

// loadSpec finds BENCHMARK.json in the working directory (go run from the
// repository root) or its parent (go test inside benchmark/).
func loadSpec() (*benchSpec, error) {
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		s := &benchSpec{root: dir}
		if err := json.Unmarshal(b, s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: run from the repository root")
}

func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

var workloads = map[string]func(runOpts) (*result, error){
	"sim-churn":             runSimChurn,
	"sim-table3":            runSimTable3,
	"proxy-churn":           func(o runOpts) (*result, error) { return runProxy(o, false) },
	"proxy-keepalive-mixed": func(o runOpts) (*result, error) { return runProxy(o, true) },
}

// runWorkload runs one workload and makes its metric set exactly the one
// BENCHMARK.json lists: a traced run adds the rung ladder and reports 0 for
// per-layer metrics the workload never exercises.
func runWorkload(spec *benchSpec, name string, o runOpts) (*result, error) {
	fn := workloads[name]
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	steal0, total0, haveSteal := cpuJiffies()
	r, err := fn(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if steal1, total1, ok := cpuJiffies(); ok && haveSteal && total1 > total0 {
		// Not a metric: it tells a reader whether the host, not the code, moved the numbers.
		r.notef("host: the hypervisor took %.1f%% of all CPU time during this run", 100*(steal1-steal0)/(total1-total0))
	}
	if o.trace {
		if err := runRungs(r.Metrics); err != nil {
			return nil, fmt.Errorf("rungs: %w", err)
		}
	}
	want := map[string]bool{}
	for _, m := range spec.metrics(o.trace) {
		want[m.Name] = true
		v, ok := r.Metrics[m.Name]
		if !ok && !o.trace {
			return nil, fmt.Errorf("%s did not measure %s", name, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if r.Correct {
				return nil, fmt.Errorf("%s: %s is not a number", name, m.Name)
			}
			v = 0 // nothing completed: the failed check is the result
		}
		r.Metrics[m.Name] = v
	}
	for k := range r.Metrics {
		if !want[k] {
			return nil, fmt.Errorf("%s measured %s, which BENCHMARK.json does not list", name, k)
		}
	}
	return r, nil
}

// writeTrace writes the traced run's spans under benchmark/out/.
func writeTrace(r *result, rec *recorder, seed int64) {
	dir := filepath.Join(specRoot, "benchmark", "out")
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", r.Workload, seed))
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = rec.writeJSONL(path)
	}
	if err != nil {
		r.notef("trace not written: %v", err)
		return
	}
	r.notef("trace: %s", path)
}

var specRoot = "."

// report prints a run for people (standard error) and, as the last line of
// standard output, for the driver.
func report(spec *benchSpec, r *result) error {
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "# %s: %s\n", r.Workload, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range spec.metrics(r.Trace) {
		v := r.Metrics[m.Name]
		fmt.Fprintf(os.Stderr, "%-24s %-36s %16.6g %s\n", r.Workload, m.Name, v, m.Unit)
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// outFile is what -out writes and -diff reads.
type outFile struct {
	Host    host      `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*result `json:"runs"`
}

func (f *outFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChild runs one workload in a fresh process, so peak_rss_mb and the
// allocator's state belong to that workload alone, and reads back the result line.
func runChild(name string, o runOpts) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   bool
		Attempted uint64
		Failed    uint64
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	r := &result{Workload: name, Trace: o.trace, Correct: line.Correct, Attempted: line.Attempted,
		Failed: line.Failed, Metrics: map[string]float64{}}
	for k, v := range line.Metrics {
		r.Metrics[k] = v.Value
	}
	return r, nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics")
		out      = flag.String("out", "", "also write the results to this JSON file")
		rungs    = flag.Bool("rungs", false, "run only the rung ladder")
		repeat   = flag.Int("repeat", 1, "run the set this many times and report each metric's spread")
		diff     = flag.Bool("diff", false, "compare two -out files: -diff base.json new.json")
	)
	flag.Parse()
	if err := run(*workload, runOpts{*seed, *seconds, *trace != 0}, *out, *rungs, *repeat, *diff, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, o runOpts, out string, rungs bool, repeat int, diff bool, args []string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	specRoot = spec.root
	if diff {
		if len(args) != 2 {
			return fmt.Errorf("-diff takes two files")
		}
		return runDiff(spec, args[0], args[1])
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	// The generator is this one process: as many threads as processors, four at most.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	file := &outFile{Host: fingerprint(), Seed: o.seed, Seconds: o.seconds}
	if file.Host.Busy {
		fmt.Fprintf(os.Stderr, "# warning: load average %.2f at start is above nproc/2; numbers are suspect\n", file.Host.Load1)
	}

	switch {
	case rungs:
		r := &result{Workload: "rungs", Trace: true, Correct: true, Attempted: 1, Metrics: map[string]float64{}}
		if err := runRungs(r.Metrics); err != nil {
			return err
		}
		for _, k := range sortedKeys(r.Metrics) {
			fmt.Printf("%-36s %14.4g\n", k, r.Metrics[k])
		}
		file.Runs = append(file.Runs, r)
	case workload == "all" || repeat > 1:
		names := []string{workload}
		if workload == "all" {
			names = names[:0]
			for _, w := range spec.Workloads {
				names = append(names, w.Name)
			}
		}
		for rep := 0; rep < repeat; rep++ {
			for _, name := range names {
				r, err := runChild(name, o)
				if err != nil {
					return err
				}
				file.Runs = append(file.Runs, r)
			}
		}
		summarize(spec, file.Runs, o.trace)
	default:
		r, err := runWorkload(spec, workload, o)
		if err != nil {
			return err
		}
		if err := report(spec, r); err != nil {
			return err
		}
		file.Runs = append(file.Runs, r)
	}
	if out != "" {
		if err := file.write(out); err != nil {
			return err
		}
	}
	for _, r := range file.Runs {
		if !r.Correct || r.Failed > 0 {
			return fmt.Errorf("%s: a correctness check failed", r.Workload)
		}
	}
	return nil
}

// summarize prints one row per workload × metric over all repeats: the median
// and, with more than one repeat, the spread the bounds are judged against.
func summarize(spec *benchSpec, runs []*result, trace bool) {
	byWorkload := map[string][]*result{}
	for _, r := range runs {
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	fmt.Printf("%-24s %-36s %16s %-8s %8s %8s\n", "workload", "metric", "median", "unit", "spread", "bound")
	for _, w := range spec.Workloads {
		rs := byWorkload[w.Name]
		if len(rs) == 0 {
			continue
		}
		for _, m := range spec.metrics(trace) {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = r.Metrics[m.Name]
			}
			sp, bound := "-", "-"
			if len(vals) > 1 {
				sp = fmt.Sprintf("%.4f", spread(vals))
			}
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.2f", m.Bound)
			}
			fmt.Printf("%-24s %-36s %16.6g %-8s %8s %8s\n", w.Name, m.Name, median(vals), m.Unit, sp, bound)
		}
	}
}
