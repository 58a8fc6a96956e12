package bench

import (
	"fmt"
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/sim"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
	"hermes/internal/workload"
)

// Options are the shared experiment knobs. The defaults trade the paper's
// 32-core, minutes-long production runs for 16-core, ~1-second simulated
// windows that preserve the load ratios (utilization fractions) of each
// scenario.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Workers per LB device.
	Workers int
	// Tenants is the number of tenant ports.
	Tenants int
	// Window is the measurement window.
	Window time.Duration
	// Drain is post-window settle time.
	Drain time.Duration
	// RateScale rescales workload connection rates (case specs are sized
	// for 32 workers; 16 workers take 0.5).
	RateScale float64
	// RegisteredPorts is the total tenant port count bound on each device
	// (the O(#ports) dispatch-overhead parameter, §6.2 Case 1).
	RegisteredPorts int
	// Parallel caps the worker pool for cell-level fan-out (independent
	// simulations within one experiment). 0 means GOMAXPROCS; 1 forces
	// sequential execution. Output is byte-identical at any setting.
	Parallel int
	// Metrics, when set, collects one telemetry registry per experiment
	// cell (hermes-bench -metrics). Nil disables recording; rendered
	// experiment output is byte-identical either way.
	Metrics *MetricsCollector
	// Spans, when set, arms the per-connection flight recorder for its
	// designated cell (hermes-bench -spans). Nil disables recording;
	// rendered experiment output is byte-identical either way.
	Spans *SpanRecorder
}

// DefaultOptions returns the standard experiment shape.
func DefaultOptions() Options {
	return Options{
		Seed:            1,
		Workers:         16,
		Tenants:         8,
		Window:          time.Second,
		Drain:           2 * time.Second,
		RateScale:       0.5,
		RegisteredPorts: 400,
	}
}

// Validate rejects option values no experiment can run on. They arrive from
// the command line, so the answer is an error, not a panic inside a cell.
func (o Options) Validate() error {
	switch {
	case o.Workers < 1:
		return fmt.Errorf("bench: %d workers per device, need at least 1", o.Workers)
	case o.Tenants < 1 || o.Tenants > o.RegisteredPorts:
		return fmt.Errorf("bench: %d tenant ports, need 1..%d (the ports a device registers)", o.Tenants, o.RegisteredPorts)
	case o.Window <= 0:
		return fmt.Errorf("bench: measurement window %v, need more than 0", o.Window)
	case !(o.RateScale > 0):
		return fmt.Errorf("bench: rate scale %v, need more than 0", o.RateScale)
	case o.Parallel < 0:
		return fmt.Errorf("bench: parallel %d, need 0 (GOMAXPROCS) or more", o.Parallel)
	}
	return nil
}

// lbConfig is the one place harness knobs become an l7lb.Config: the mode's
// defaults plus the fleet size and the tenant ports. RegisteredPorts (the
// O(#ports) dispatch overhead) stays 0 unless the experiment models it.
func lbConfig(mode l7lb.Mode, workers int, ports []uint16) l7lb.Config {
	cfg := l7lb.DefaultConfig(mode)
	cfg.Workers = workers
	cfg.Ports = ports
	return cfg
}

// observers is the one place a cell gets its observer pair: its registry in
// the -metrics collector and, if it is the designated -spans cell, the flight
// recorder. Both are nil — not recorded — when the run did not ask.
func (o Options) observers(cell string) (*telemetry.Registry, *tracing.Tracer) {
	return o.Metrics.Registry(cell), o.Spans.Tracer(cell)
}

// newDevice holds the package's only l7lb.New: every simulated device runs on
// a private engine seeded for its cell.
func newDevice(seed int64, cfg l7lb.Config) (*l7lb.LB, error) {
	return l7lb.New(sim.NewEngine(seed), cfg)
}

// newLB builds the named cell's device with the observers the run asked for.
// A cell that drives its own traffic gets its device here, one that replays
// workload specs gets it from run below, and there is no third way: that is
// why every device records. The configs are the experiments' own, so one
// that l7lb refuses is a bug, and fatal.
func (o Options) newLB(cell string, seed int64, cfg l7lb.Config) *l7lb.LB {
	cfg.Telemetry, cfg.Tracer = o.observers(cell)
	lb, err := newDevice(seed, cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: cell %q: %v", cell, err))
	}
	return lb
}

// run is Run for the named cell: same observers, and a refused config is
// fatal for the reason newLB gives.
func (o Options) run(cell string, rc RunConfig) *RunResult {
	rc.Telemetry, rc.Tracer = o.observers(cell)
	res, err := Run(rc)
	if err != nil {
		panic(fmt.Sprintf("bench: cell %q: %v", cell, err))
	}
	return res
}

// regionRun is the RunConfig of a cell that replays one regional mix
// (workload.Regions()[region]; 1 is Region2, whose case-4/case-2 heavy
// requests are what hang a worker) on the run's fleet: totalRPS over the
// tenant ports for one window and half a drain.
func (o Options) regionRun(region int, mode l7lb.Mode, totalRPS float64) RunConfig {
	return RunConfig{
		Mode:    mode,
		Workers: o.Workers,
		Seed:    o.Seed,
		Window:  o.Window,
		Drain:   o.Drain / 2,
		Specs:   workload.Regions()[region].Specs(tenantPorts(o.Tenants), totalRPS),
	}
}

// Table3Modes are the three production alternatives the paper compares.
var Table3Modes = []l7lb.Mode{l7lb.ModeExclusive, l7lb.ModeReuseport, l7lb.ModeHermes}

// AllModes adds the extended baselines this repo also implements.
var AllModes = []l7lb.Mode{
	l7lb.ModeHerd, l7lb.ModeExclusive, l7lb.ModeExclusiveRR, l7lb.ModeAcceptMutex,
	l7lb.ModeIOUring, l7lb.ModeReuseport, l7lb.ModeDispatcher,
	l7lb.ModeHermes,
}
