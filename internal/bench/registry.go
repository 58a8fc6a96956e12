package bench

// The harness models every reproduction the same way: an Experiment
// enumerates independent simulation Cells, the runner fans the cells out
// over the worker pool, and Render assembles the results — by cell index,
// so output is byte-identical at any -parallel setting. Experiments
// register themselves from their own file's init(); adding one touches no
// central table.

// Cell is one independent simulation: a private engine, a private seed,
// nothing mutable shared with any other cell. Run returns the cell's raw
// result for the experiment's Render to assemble.
type Cell struct {
	// Name identifies the cell within its experiment (metric dumps key on
	// it).
	Name string
	// Run executes the cell and returns its result.
	Run func() any
}

// Experiment is one runnable table/figure reproduction, as data: to add one,
// Register an Experiment value from the file that holds its cells.
type Experiment struct {
	// Name is the registry key (the DESIGN.md experiment ID).
	Name string
	// Desc is a one-line description shown in harness output.
	Desc string
	// Cells enumerates the independent simulation cells for the options.
	// A single cell marks an inherently sequential experiment (single sim,
	// shared RNG stream, or — like table5 — wall-clock microbenchmarks
	// that concurrency would skew).
	Cells func(o Options) []Cell
	// Render assembles the rendered text from the per-cell results,
	// indexed exactly as Cells returned them.
	Render func(o Options, results []any) string
}

var registry = map[string]Experiment{}

// Register adds an experiment to the registry; experiment files call it
// from init(). Duplicate names are a programming error.
func Register(e Experiment) {
	if _, dup := registry[e.Name]; dup {
		panic("bench: duplicate experiment " + e.Name)
	}
	registry[e.Name] = e
}

// Experiments returns the registry of all reproducible artifacts, keyed by
// the DESIGN.md experiment IDs.
func Experiments() map[string]Experiment {
	out := make(map[string]Experiment, len(registry))
	for name, e := range registry {
		out[name] = e
	}
	return out
}

// RunExperiment executes an experiment end to end: enumerate cells, fan
// them out over o.Parallel goroutines, assemble in cell order, render.
func RunExperiment(e Experiment, o Options) string {
	return e.Render(o, runCells(o, e.Cells(o)))
}

// runCells executes cells over the pool and returns results by cell index.
func runCells(o Options, cells []Cell) []any {
	results := make([]any, len(cells))
	forEachCell(o.Parallel, len(cells), func(i int) {
		results[i] = cells[i].Run()
	})
	return results
}

// Seq wraps an inherently sequential experiment — one that owns a single
// sim or a shared RNG stream end to end — as a one-cell Experiment.
func Seq(name, desc string, run func(Options) string) Experiment {
	return Experiment{
		Name: name,
		Desc: desc,
		Cells: func(o Options) []Cell {
			return []Cell{{Name: name, Run: func() any { return run(o) }}}
		},
		Render: func(_ Options, results []any) string { return results[0].(string) },
	}
}
