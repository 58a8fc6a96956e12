package bench

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/stats"
	"hermes/internal/tracing"
	"hermes/internal/workload"
)

// fastOptions shrinks runs enough for unit tests while keeping load ratios.
func fastOptions() Options {
	o := DefaultOptions()
	o.Workers = 8
	o.Tenants = 4
	o.Window = 200 * time.Millisecond
	o.Drain = 400 * time.Millisecond
	o.RateScale = 0.25
	return o
}

func TestRunCountersConsistent(t *testing.T) {
	o := fastOptions()
	spec := workload.Case1(tenantPorts(o.Tenants)).Scale(o.RateScale)
	res, err := Run(RunConfig{
		Mode:    l7lb.ModeHermes,
		Workers: o.Workers,
		Seed:    1,
		Window:  o.Window,
		Drain:   o.Drain,
		Specs:   []workload.Spec{spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestsSent == 0 || res.Completed == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	if res.Completed < res.CompletedInWindow {
		t.Fatal("drain lost completions")
	}
	if res.Completed > res.RequestsSent {
		t.Fatal("completed more than sent")
	}
	if res.ThroughputKRPS <= 0 || res.AvgMS <= 0 || res.P99MS < res.AvgMS {
		t.Fatalf("stats wrong: %+v", res)
	}
	if len(res.WorkerUtil) != o.Workers {
		t.Fatalf("util len %d", len(res.WorkerUtil))
	}
	for i, u := range res.WorkerUtil {
		if u < 0 || u > 1.000001 {
			t.Fatalf("worker %d util %v out of [0,1]", i, u)
		}
	}
}

// The balance sampler (once a sampler inside Run, hence the name) on the
// workload it exists for: exclusive wakeup with long-lived connections piles
// them onto few workers, and the per-sample stddevs must show it.
func TestRunSamplingProducesStddevs(t *testing.T) {
	o := fastOptions()
	lb := o.newLB("balance", 2, lbConfig(l7lb.ModeExclusive, o.Workers, tenantPorts(o.Tenants)))
	lb.Start()
	g, err := workload.NewGenerator(lb, workload.Case3(tenantPorts(o.Tenants)).Scale(o.RateScale))
	if err != nil {
		t.Fatal(err)
	}
	g.Run(o.Window)
	bal := balance{lb: lb}
	const tick = 20 * time.Millisecond
	samples := 0
	for at := tick; at <= o.Window; at += tick {
		lb.Eng.RunUntil(int64(at))
		if cpuSD, live := bal.sample(); cpuSD < 0 || cpuSD > 1 || live < 0 {
			t.Fatalf("sample at %v: busy-fraction stddev %v, %d open", at, cpuSD, live)
		}
		samples++
	}
	if bal.cpuSD.N() != samples || bal.connSD.N() != samples {
		t.Fatalf("%d samples taken, %d/%d recorded", samples, bal.cpuSD.N(), bal.connSD.N())
	}
	if bal.connSD.Mean() <= 0 {
		t.Fatalf("exclusive with long conns must show conn imbalance, got %v", bal.connSD.Mean())
	}
}

// The requests a spec offers are the mean of a random count: about every
// second seed sends more, and a reservation of exactly the mean then regrows
// the whole latency slice near the end of the cell (that made sim-table3's
// peak_rss_mb depend on the seed). latencyReserve's headroom must cover them.
func TestLatencyReserveCoversEverySeed(t *testing.T) {
	specs := []workload.Spec{workload.Case2(tenantPorts(8))}
	window := 4 * time.Second
	offered := specs[0].OfferedRPS() * window.Seconds()
	reserve := latencyReserve(specs, window)
	above := 0
	for seed := int64(1); seed <= 8; seed++ {
		res, err := Run(RunConfig{
			Mode: l7lb.ModeReuseport, Workers: 16, Seed: seed,
			Window: window, Drain: 2 * time.Second, Specs: specs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != res.RequestsSent {
			t.Fatalf("seed %d: %d of %d requests completed", seed, res.Completed, res.RequestsSent)
		}
		if int(res.Completed) > reserve {
			t.Errorf("seed %d: %d samples recorded, %d reserved: the sample regrew", seed, res.Completed, reserve)
		}
		if float64(res.Completed) > offered {
			above++
		}
	}
	if above == 0 {
		t.Errorf("no seed of 8 sent more than the %.0f requests offered: the test no longer shows why the headroom is there", offered)
	}
	if n := latencyReserve(specs, 1000*time.Second); n != 0 {
		t.Errorf("an estimate past maxLatencyReserve reserved %d samples, want 0", n)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(RunConfig{Mode: l7lb.ModeHermes, Workers: 0, Window: time.Millisecond}); err == nil {
		t.Fatal("invalid run accepted")
	}
}

func TestMarkedCriterion(t *testing.T) {
	peers := []Table3Cell{
		{AvgMS: 1.0, ThrK: 100},
		{AvgMS: 1.6, ThrK: 99},
		{AvgMS: 1.1, ThrK: 79},
	}
	if Marked(peers[0], peers) {
		t.Fatal("best cell marked")
	}
	if !Marked(peers[1], peers) {
		t.Fatal(">50% latency not marked")
	}
	if !Marked(peers[2], peers) {
		t.Fatal(">20% throughput loss not marked")
	}
}

// render is the text hermes-bench prints for an experiment's tables.
func render(tables []*stats.Table) string {
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Render())
	}
	return b.String()
}

// runExp runs the named experiment and returns its tables.
func runExp(t testing.TB, name string, o Options) []*stats.Table {
	t.Helper()
	e, ok := Experiments()[name]
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	return RunExperiment(e, o)
}

func TestTable1Shape(t *testing.T) {
	tb := runExp(t, "table1", fastOptions())[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, cols := range [][3]string{
		{"size P50 (B)", "size P90", "size P99"},
		{"proc P50 (ms)", "proc P90", "proc P99"},
	} {
		p50, p90, p99 := tb.Floats(cols[0]), tb.Floats(cols[1]), tb.Floats(cols[2])
		for r := range tb.Rows {
			if !(p50[r] <= p90[r] && p90[r] <= p99[r]) {
				t.Fatalf("%v %v percentiles not monotone: %v %v %v", tb.Rows[r][0], cols, p50[r], p90[r], p99[r])
			}
		}
	}
	// Table 1's signature: Region3's P99 dwarfs the others (WebSockets)
	// while its P50 stays moderate.
	if proc := tb.Floats("proc P99"); tb.Rows[2][0] != "Region3" || proc[2] < 10*proc[0] {
		t.Fatalf("%v P99 %v should dwarf %v's %v", tb.Rows[2][0], proc[2], tb.Rows[0][0], proc[0])
	}
}

func TestTable2Shape(t *testing.T) {
	tb := runExp(t, "table2", fastOptions())[0]
	if got := tb.Title.Args; len(got) != 1 || got[0] != 24 {
		t.Fatalf("devices = %v", got)
	}
	if len(tb.Rows) != 3 || tb.Rows[2][0] != "region-avg" {
		t.Fatalf("rows %v: want worst, best, region-avg", tb.Rows)
	}
	spread := tb.Floats("max-min")
	if spread[0] < spread[1] {
		t.Fatal("worst/best inverted")
	}
	// Exclusive should produce a real intra-device spread somewhere.
	if spread[0] < 0.05 {
		t.Fatalf("no imbalance found: %v", tb.Rows[0])
	}
	maxU, minU := tb.Floats("max core util"), tb.Floats("min core util")
	for r := range tb.Rows {
		if maxU[r] > 1.000001 || minU[r] < 0 {
			t.Fatalf("util out of range: %v", tb.Rows[r])
		}
	}
}

func TestTable3GridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table3 grid is expensive")
	}
	tables := runExp(t, "table3", fastOptions())
	if len(tables) != 4 {
		t.Fatalf("cases = %d", len(tables))
	}
	for ci, tb := range tables {
		if len(tb.Rows) != len(Table3Modes) {
			t.Fatalf("case %d modes = %d", ci, len(tb.Rows))
		}
		for _, level := range []string{"L", "M", "H"} {
			for mi, thr := range tb.Floats(level + " thr(k)") {
				if !(thr > 0) {
					t.Fatalf("case %d level %s %v: zero throughput", ci, level, Table3Modes[mi])
				}
			}
		}
	}
	// Case 3's signature survives even scaled down: exclusive's average
	// latency is the worst of the three modes at light load.
	if title := tables[2].Title.String(); !strings.Contains(title, "case3") {
		t.Fatalf("third table is %q", title)
	}
	avg := tables[2].Floats("L avg")
	if !(avg[0] > avg[1] && avg[0] > avg[2]) {
		t.Fatalf("case3 light: exclusive %v should exceed reuseport %v and hermes %v", avg[0], avg[1], avg[2])
	}
}

func TestMeasureOverheadsSane(t *testing.T) {
	// The "Dispatcher (VM)" column times the path a SYN takes, which is the
	// compiled program (Program.Compiled): a dispatch program that no longer
	// compiles must fail here, not turn up as the interpreter's number.
	if _, err := OverheadFixtures(); err != nil {
		t.Fatalf("dispatch fixture did not build and compile: %v", err)
	}
	o := MeasureOverheads(20_000)
	if o.CounterNS <= 0 || o.SchedulerNS <= 0 || o.DispatchVMNS <= 0 || o.DispatchInterpNS <= 0 || o.DispatchNativeNS <= 0 {
		t.Fatalf("non-positive overheads: %+v", o)
	}
	if o.SyscallNS < NominalSyscallNS {
		t.Fatalf("syscall below nominal: %v", o.SyscallNS)
	}
	// The compiled program runs ~150 source instructions; native is a
	// handful of ops.
	if o.DispatchNativeNS > o.DispatchVMNS {
		t.Fatalf("native dispatch %v slower than VM %v", o.DispatchNativeNS, o.DispatchVMNS)
	}
	if o.CounterNS > 10_000 || o.SchedulerNS > 100_000 {
		t.Fatalf("implausible overheads: %+v", o)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	exps := Experiments()
	want := []string{
		"table1", "table2", "table3", "table4", "table5",
		"fig2", "fig3", "fig45", "fig7", "fig11", "fig12", "fig13",
		"fig14", "fig15", "figA5", "walkthrough", "ablations", "cluster", "baselines",
		"faults", "scale",
	}
	for _, name := range want {
		e, ok := exps[name]
		if !ok {
			t.Errorf("experiment %q missing", name)
			continue
		}
		if e.Name != name {
			t.Errorf("experiment %q registered under Name %q", name, e.Name)
		}
		if e.Desc == "" {
			t.Errorf("experiment %q has no description", name)
		}
	}
	if len(exps) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(exps), len(want))
	}
}

// The cheap experiments pass the structural check at the default fleet; this
// runs under -short, where the whole-registry check below is skipped.
func TestCheapExperimentsProduceOutput(t *testing.T) {
	o := fastOptions()
	exps := Experiments()
	for _, name := range []string{"table4", "fig12", "figA5", "walkthrough", "fig2"} {
		checkTables(t, name, RunExperiment(exps[name], o))
	}
}

func TestFig12HitsPaperReduction(t *testing.T) {
	note := runExp(t, "fig12", fastOptions())[0].Notes[0]
	if got := note.Args[0].(float64); math.Abs(got-18.9) >= 0.05 {
		t.Fatalf("fig12 peak unit-cost reduction %v%%, want 18.9%% (%s)", got, note)
	}
}

// forEachCell is the harness's fan-out primitive: every index must be
// visited exactly once, at any pool size (including pools wider than the
// cell count and the sequential fallback).
func TestForEachCellVisitsEachIndexOnce(t *testing.T) {
	for _, tc := range []struct{ parallel, n int }{
		{1, 17}, {4, 17}, {32, 17}, {0, 17}, {8, 1}, {8, 0}, {-1, 5},
	} {
		visits := make([]int32, tc.n)
		forEachCell(tc.parallel, tc.n, func(i int) {
			atomic.AddInt32(&visits[i], 1)
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("parallel=%d n=%d: index %d visited %d times",
					tc.parallel, tc.n, i, v)
			}
		}
	}
}

// parallelTestOptions shrinks the sweep experiments enough that running the
// same grid at several pool widths stays test-sized.
func parallelTestOptions(parallel int) Options {
	o := fastOptions()
	o.Window = 50 * time.Millisecond
	o.Drain = 100 * time.Millisecond
	o.Parallel = parallel
	return o
}

// The harness's headline guarantee: cell-level parallelism never changes a
// byte of experiment output. Same seed ⇒ identical rendered text whether
// cells run on one goroutine or eight.
func TestParallelByteIdenticalOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is expensive")
	}
	exps := Experiments()
	for _, name := range []string{"table3", "table2", "baselines", "fig15"} {
		seq := render(RunExperiment(exps[name], parallelTestOptions(1)))
		par := render(RunExperiment(exps[name], parallelTestOptions(8)))
		if seq != par {
			t.Errorf("%s: output differs between -parallel 1 and -parallel 8\n--- seq ---\n%s\n--- par ---\n%s",
				name, seq, par)
		}
	}
}

// scale's host-timing lines are the one place wall-clock leaks into rendered
// output; everything else in the section must be byte-identical across
// -parallel once the `wall X.Xs` tokens are normalized (the same rule the CI
// smoke applies with sed).
func TestScaleParallelByteIdenticalOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is expensive")
	}
	wall := regexp.MustCompile(`wall [0-9.]+s( ratio [0-9.]+x)?`)
	e := Experiments()["scale"]
	seq := wall.ReplaceAllString(render(RunExperiment(e, parallelTestOptions(1))), "wall Xs")
	par := wall.ReplaceAllString(render(RunExperiment(e, parallelTestOptions(8))), "wall Xs")
	if seq != par {
		t.Errorf("scale: output differs between -parallel 1 and -parallel 8\n--- seq ---\n%s\n--- par ---\n%s",
			seq, par)
	}
}

// Every experiment must enumerate well-formed cells: the parallel sweeps
// their full grids, the sequential ones exactly one cell, and every cell a
// unique non-empty name (metric dumps key on it).
func TestRegistryCellCounts(t *testing.T) {
	o := fastOptions()
	wantParallel := map[string]int{
		"table2":    24,
		"table3":    4 * len(LevelScales) * len(Table3Modes),
		"fig2":      5,
		"fig11":     2,
		"fig13":     len(Table3Modes),
		"fig14":     6,
		"fig15":     8,
		"baselines": len(AllModes),
		"ablations": 8,
		"faults":    len(faultsScenarios) * len(Table3Modes),
		"scale":     len(scaleFleets) * len(scaleTiers) * len(Table3Modes),

		"walkthrough": len(Table3Modes),
	}
	for name, e := range Experiments() {
		cells := e.Cells(o)
		if want, ok := wantParallel[name]; ok {
			if len(cells) != want {
				t.Errorf("%s: %d cells, want %d", name, len(cells), want)
			}
		} else if len(cells) != 1 {
			t.Errorf("%s: sequential experiments enumerate 1 cell, got %d", name, len(cells))
		}
		seen := make(map[string]bool, len(cells))
		for i, c := range cells {
			if c.Name == "" || c.Run == nil {
				t.Errorf("%s cell %d incomplete", name, i)
			}
			if seen[c.Name] {
				t.Errorf("%s: duplicate cell name %q", name, c.Name)
			}
			seen[c.Name] = true
		}
	}
}

// BenchmarkHarnessParallel tracks the wall-clock effect of cell fan-out on
// the widest sweep (table3). On a multi-core host parallel=GOMAXPROCS should
// approach a core-count speedup over parallel=1; on one core they tie.
func BenchmarkHarnessParallel(b *testing.B) {
	for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel=%d", p), func(b *testing.B) {
			o := parallelTestOptions(p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if thr := runExp(b, "table3", o)[3].Floats("H thr(k)"); len(thr) != len(Table3Modes) {
					b.Fatalf("case4 heavy throughputs %v", thr)
				}
			}
		})
	}
}

// The repo promises bit-for-bit reproducibility: identical seeds must give
// identical measurements across independent runs.
func TestRunDeterministicAcrossInvocations(t *testing.T) {
	o := fastOptions()
	spec := workload.Case2(tenantPorts(o.Tenants)).Scale(o.RateScale)
	once := func() *RunResult {
		res, err := Run(RunConfig{
			Mode:    l7lb.ModeHermes,
			Workers: o.Workers,
			Seed:    123,
			Window:  o.Window,
			Drain:   o.Drain,
			Specs:   []workload.Spec{spec},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := once(), once()
	if a.Completed != b.Completed || a.AvgMS != b.AvgMS || a.P99MS != b.P99MS ||
		a.ThroughputKRPS != b.ThroughputKRPS {
		t.Fatalf("same-seed runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.WorkerUtil {
		if a.WorkerUtil[i] != b.WorkerUtil[i] {
			t.Fatalf("worker %d util diverged", i)
		}
	}
}

// The options come from the command line: a value no experiment can run on is
// an error from Validate, never a panic from inside a cell.
func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options refused: %v", err)
	}
	for name, mutate := range map[string]func(*Options){
		"workers 0":     func(o *Options) { o.Workers = 0 },
		"tenants 0":     func(o *Options) { o.Tenants = 0 },
		"tenants 401":   func(o *Options) { o.Tenants = o.RegisteredPorts + 1 },
		"window 0":      func(o *Options) { o.Window = 0 },
		"window -1s":    func(o *Options) { o.Window = -time.Second },
		"scale 0":       func(o *Options) { o.RateScale = 0 },
		"scale NaN":     func(o *Options) { o.RateScale = math.NaN() },
		"parallel -1":   func(o *Options) { o.Parallel = -1 },
		"workers -3":    func(o *Options) { o.Workers = -3 },
		"tenants -1":    func(o *Options) { o.Tenants = -1 },
		"scale -0.5":    func(o *Options) { o.RateScale = -0.5 },
		"no port table": func(o *Options) { o.RegisteredPorts = 0 },
	} {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// noDevice are the experiments that sample distributions or time code paths
// and simulate no device: nothing in them to observe, and nothing that is
// indexed by worker.
var noDevice = map[string]bool{"table1": true, "table4": true, "table5": true, "fig12": true, "figA5": true}

// tinyOptions keeps a test that runs every experiment test-sized.
func tinyOptions() Options {
	o := parallelTestOptions(0)
	o.Window, o.Drain = 10*time.Millisecond, 20*time.Millisecond
	return o
}

// Every option Validate accepts must give well-formed tables: at least one,
// every table with rows as wide as its header and no NaN or infinite number.
// The smallest fleets are where an experiment that indexes workers by
// position (fig45 picked the two busiest and the two idlest) used to die, and
// where a ratio over an empty worker set turns NaN.
func TestEveryExperimentRendersOnSmallFleets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment three times")
	}
	for workers := 1; workers <= 3; workers++ {
		o := tinyOptions()
		o.Workers = workers
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
		for name, e := range Experiments() {
			if noDevice[name] && workers > 1 {
				continue // once is enough: table1 alone sorts 480 000 samples
			}
			checkTables(t, fmt.Sprintf("%s at %d workers", name, workers), RunExperiment(e, o))
		}
	}
}

// checkTables is the structural check every experiment's output must pass.
func checkTables(t *testing.T, label string, tables []*stats.Table) {
	t.Helper()
	if len(tables) == 0 {
		t.Errorf("%s: no tables", label)
	}
	for _, tb := range tables {
		if err := tb.Check(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}

// The cluster splits the run's workers over its eight devices, and a device
// never gets none: at one worker each device has one (an unset count would
// have cluster.New give each sixteen).
func TestClusterGivesEveryDeviceAWorker(t *testing.T) {
	o := tinyOptions()
	o.Workers = 1
	o.Metrics = NewMetricsCollector()
	RunExperiment(Experiments()["cluster"], o)
	for d := 0; d < 8; d++ {
		cell := fmt.Sprintf("dev%d", d)
		ms := o.Metrics.Snapshot(cell).Get("l7lb.worker.requests_served")
		if ms == nil {
			t.Fatalf("%s recorded no l7lb.worker.requests_served", cell)
		}
		if len(ms.Values) != 1 {
			t.Errorf("%s has %d workers at -workers 1, want 1", cell, len(ms.Values))
		}
	}
}

// The one cell builder's guarantee: every experiment that simulates a device
// records when asked — each of its metrics cells holds the kernel's catalog,
// and the flight recorder armed on its first cell gets used.
func TestEveryDeviceCellIsObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for name, e := range Experiments() {
		if noDevice[name] {
			continue
		}
		o := tinyOptions()
		spanCell := e.Cells(o)[0].Name
		if name == "cluster" {
			spanCell = "dev0" // one cell, eight devices: each records under its own name
		}
		o.Metrics = NewMetricsCollector()
		o.Spans = NewSpanRecorder(spanCell, tracing.DefaultConfig())
		RunExperiment(e, o)
		cells := o.Metrics.CellNames()
		if len(cells) == 0 {
			t.Errorf("%s: no metrics cell recorded", name)
		}
		for _, cell := range cells {
			if o.Metrics.Snapshot(cell).Get("kernel.accept_queue.enqueued") == nil {
				t.Errorf("%s: cell %q has no kernel.accept_queue.enqueued", name, cell)
			}
		}
		if !o.Spans.Recorded() {
			t.Errorf("%s: cell %q never asked for its tracer", name, spanCell)
		}
	}
}
