package bench

import (
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
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

// lbConfig is the one place harness Options become an l7lb.Config: the
// mode's defaults plus the run-wide knobs (fleet size, registered ports).
// Experiments that pin a knob — a 3-worker walkthrough, a figure without the
// registered-port overhead — pass an Options carrying only what they want.
func (o Options) lbConfig(mode l7lb.Mode, ports []uint16) l7lb.Config {
	cfg := l7lb.DefaultConfig(mode)
	cfg.Workers = o.Workers
	cfg.Ports = ports
	cfg.RegisteredPorts = o.RegisteredPorts
	return cfg
}

// observers is the one place a cell gets its observer pair: its registry in
// the -metrics collector and, if it is the designated -spans cell, the flight
// recorder. Both are nil — not recorded — when the run did not ask.
func (o Options) observers(cell string) (telemetry.Sink, *tracing.Tracer) {
	return o.Metrics.Sink(cell), o.Spans.Tracer(cell)
}

// Table3Modes are the three production alternatives the paper compares.
var Table3Modes = []l7lb.Mode{l7lb.ModeExclusive, l7lb.ModeReuseport, l7lb.ModeHermes}

// AllModes adds the extended baselines this repo also implements.
var AllModes = []l7lb.Mode{
	l7lb.ModeHerd, l7lb.ModeExclusive, l7lb.ModeExclusiveRR, l7lb.ModeAcceptMutex,
	l7lb.ModeIOUring, l7lb.ModeReuseport, l7lb.ModeDispatcher,
	l7lb.ModeHermes, l7lb.ModeHermesNative,
}
