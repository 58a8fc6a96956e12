// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§2.3, §6), all driving the same simulated LB
// stack and printing paper-style tables/series. Every experiment takes an
// explicit seed and runs on virtual time, so results are reproducible
// bit-for-bit.
//
// Absolute milliseconds and kRPS depend on this repo's cost model, not the
// authors' testbed; the shapes — which mode wins each case, where the
// crossovers sit, the relative stddevs — are the reproduction target (see
// EXPERIMENTS.md).
package bench

import (
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
	"hermes/internal/workload"
)

// RunConfig describes one measurement run.
type RunConfig struct {
	// Mode is the dispatch mechanism under test.
	Mode l7lb.Mode
	// Workers is the LB core count.
	Workers int
	// Seed drives all randomness.
	Seed int64
	// Window is the traffic generation window.
	Window time.Duration
	// Drain is extra virtual time after the window for in-flight requests.
	Drain time.Duration
	// Specs are the traffic models replayed concurrently. The device listens
	// on the first one's tenant ports (every spec of a run targets the same).
	Specs []workload.Spec
	// Telemetry, when set, is handed to the LB (l7lb.Config.Telemetry):
	// the cross-layer metric catalog records into it. Nil disables
	// recording.
	Telemetry *telemetry.Registry
	// Tracer, when set, is handed to the LB (l7lb.Config.Tracer): the
	// per-connection flight recorder records into it. Nil disables
	// recording. The caller flushes/exports after the run.
	Tracer *tracing.Tracer
	// Mutate optionally adjusts the LB config before construction, the
	// Hermes policy (Config.Hermes) included.
	Mutate func(*l7lb.Config)
}

// RunResult carries a run's measurements.
type RunResult struct {
	// LB is the device after the run (counters, samples, workers).
	LB *l7lb.LB

	// RequestsSent / Completed are totals over the whole run.
	RequestsSent uint64
	Completed    uint64
	// CompletedInWindow is completions before the drain began.
	CompletedInWindow uint64
	// AvgMS / P99MS summarize end-to-end latency.
	AvgMS float64
	P99MS float64
	// ThroughputKRPS is CompletedInWindow over the window.
	ThroughputKRPS float64
	// GoodputKRPS discounts completions whose end-to-end latency exceeded
	// ClientTimeout (default 1s) — the 499-timeout accounting production
	// throughput numbers reflect. Approximated as ThroughputKRPS scaled by
	// the in-budget completion fraction.
	GoodputKRPS float64
	// WorkerUtil is per-worker busy fraction over the window+drain.
	WorkerUtil []float64
}

// maxLatencyReserve caps what Run reserves for a cell's latency samples up
// front: 1 Mi float64s, 8 MiB. The largest cells in the repo offer 288 000
// (`-exp all`) and 672 000 (the benchmark's sim-table3) requests.
const maxLatencyReserve = 1 << 20

// latencyReserve is how many latency samples Run makes room for: the requests
// the specs offer over the window, plus an eighth. The offer is the mean of a
// random count (Poisson arrivals × ReqPerConn) that every second seed exceeds,
// and one sample past the reservation regrows the whole slice; an eighth is
// over five standard deviations for every cell of 100 000 requests or more in
// the repo (the widest, Case3 over 1 s, has 2.3 %). An estimate past
// maxLatencyReserve (a heavy-tailed ReqPerConn has an infinite mean) reserves
// nothing and the sample grows as it always did.
func latencyReserve(specs []workload.Spec, window time.Duration) int {
	var offered float64
	for _, spec := range specs {
		offered += spec.OfferedRPS() * window.Seconds()
	}
	if n := offered + offered/8; n <= maxLatencyReserve {
		return int(n)
	}
	return 0
}

// Run executes one measurement.
func Run(rc RunConfig) (*RunResult, error) {
	var ports []uint16
	if len(rc.Specs) > 0 {
		ports = rc.Specs[0].Ports
	}
	cfg := lbConfig(rc.Mode, rc.Workers, ports)
	cfg.Telemetry, cfg.Tracer = rc.Telemetry, rc.Tracer
	if rc.Mutate != nil {
		rc.Mutate(&cfg)
	}
	lb, err := newDevice(rc.Seed, cfg)
	if err != nil {
		return nil, err
	}
	lb.Start()

	res := &RunResult{LB: lb}
	var gens []*workload.Generator
	for _, spec := range rc.Specs {
		g, err := workload.NewGenerator(lb, spec)
		if err != nil {
			return nil, err
		}
		g.Run(rc.Window)
		gens = append(gens, g)
	}
	// One latency sample per completed request: room for all of them now,
	// instead of append doubling its way there.
	lb.Latency.Reserve(latencyReserve(rc.Specs, rc.Window))

	eng := lb.Eng
	eng.RunUntil(int64(rc.Window))
	res.CompletedInWindow = lb.Completed
	eng.RunUntil(int64(rc.Window + rc.Drain))

	for _, g := range gens {
		res.RequestsSent += g.RequestsSent
	}
	res.Completed = lb.Completed
	res.AvgMS = lb.Latency.Mean()
	res.P99MS = lb.Latency.Percentile(99)
	res.ThroughputKRPS = float64(res.CompletedInWindow) / rc.Window.Seconds() / 1000
	if res.Completed > 0 {
		timeoutMS := 1000.0 // 1s client budget
		late := float64(lb.Latency.CountAbove(timeoutMS))
		res.GoodputKRPS = res.ThroughputKRPS * (1 - late/float64(res.Completed))
	}
	elapsed := float64(rc.Window + rc.Drain)
	res.WorkerUtil = make([]float64, 0, len(lb.Workers))
	for _, w := range lb.Workers {
		res.WorkerUtil = append(res.WorkerUtil, float64(w.BusyNS(eng.Now()))/elapsed)
	}
	return res, nil
}

// ports returns n consecutive tenant ports starting at 8080.
func tenantPorts(n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(8080 + i)
	}
	return out
}
