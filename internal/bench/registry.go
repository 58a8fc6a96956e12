package bench

import "hermes/internal/stats"

// The harness models every reproduction the same way: an Experiment
// enumerates independent simulation Cells, the runner fans the cells out
// over the worker pool, and Tables assembles the results into typed result
// tables — by cell index, so output is byte-identical at any -parallel
// setting. stats.Table.Render is where any of it becomes text. Experiments
// register themselves from their own file's init(); adding one touches no
// central table.

// Cell is one independent simulation: a private engine, a private seed,
// nothing mutable shared with any other cell. Run returns the cell's typed
// result (its rows, or a whole table) for the experiment's Tables to
// assemble.
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
	// A single cell marks an inherently sequential experiment (oneCell).
	Cells func(o Options) []Cell
	// Tables assembles the result tables from the per-cell results,
	// indexed exactly as Cells returned them.
	Tables func(o Options, results []any) []*stats.Table
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
// them out over o.Parallel goroutines, and assemble the results in cell order
// into the experiment's tables.
func RunExperiment(e Experiment, o Options) []*stats.Table {
	cells := e.Cells(o)
	results := make([]any, len(cells))
	forEachCell(o.Parallel, len(cells), func(i int) {
		results[i] = cells[i].Run()
	})
	return e.Tables(o, results)
}

// oneCell is the Cells of an experiment that runs as a single cell named
// after it: one sim or one RNG stream end to end, or — like table5 —
// wall-clock microbenchmarks that concurrency would skew. The cell builds
// its own table; cellTables hands it on.
func oneCell(name string, run func(Options) *stats.Table) func(Options) []Cell {
	return func(o Options) []Cell {
		return []Cell{{Name: name, Run: func() any { return run(o) }}}
	}
}

// cellTables is the Tables of an experiment whose cells each return their
// own table.
func cellTables(_ Options, results []any) []*stats.Table {
	tables := make([]*stats.Table, len(results))
	for i, r := range results {
		tables[i] = r.(*stats.Table)
	}
	return tables
}
