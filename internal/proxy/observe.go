package proxy

import (
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// Instruments is the proxy's one observer bundle: the proxy.* catalog in
// docs/TELEMETRY.md and the flight-recorder handles of docs/TRACING.md
// (workers take their own track from the same tracer). All handles are
// nil-safe: a zero Instruments records nothing.
type Instruments struct {
	// RequestsServed counts proxied requests per worker.
	RequestsServed *telemetry.CounterVec
	// RequestLatencyNS observes end-to-end request latency.
	RequestLatencyNS *telemetry.Histogram
	// UpstreamErrors counts failed upstream exchanges (after retries).
	UpstreamErrors *telemetry.Counter

	// BackendRequests / BackendErrors / BackendActive are per-backend
	// request, error, and in-flight counts; BackendDials counts the upstream
	// connections opened per backend (requests − dials is the reuse count).
	BackendRequests *telemetry.CounterVec
	BackendErrors   *telemetry.CounterVec
	BackendActive   *telemetry.GaugeVec
	BackendDials    *telemetry.CounterVec
	// BackendHealthy is 1 while the backend is healthy.
	BackendHealthy *telemetry.GaugeVec

	// HealthProbes / HealthProbeFailures count active probes.
	HealthProbes        *telemetry.Counter
	HealthProbeFailures *telemetry.Counter
	// HealthTransitions counts the prober's health verdict flips (either
	// direction).
	HealthTransitions *telemetry.Counter

	// CircuitOpens / CircuitHalfOpens / CircuitCloses count breaker
	// transitions; CircuitRejections counts picks refused by open circuits
	// (the request went elsewhere or got 503).
	CircuitOpens      *telemetry.Counter
	CircuitHalfOpens  *telemetry.Counter
	CircuitCloses     *telemetry.Counter
	CircuitRejections *telemetry.Counter

	// RetryAttempts counts retry attempts; RetryRecovered requests saved by
	// a retry; RetryExhausted requests that failed every allowed attempt.
	RetryAttempts  *telemetry.Counter
	RetryRecovered *telemetry.Counter
	RetryExhausted *telemetry.Counter

	// Unavailable counts requests refused 503 because no backend was
	// pickable — the moment backend health gates the steering decision.
	Unavailable *telemetry.Counter

	// DrainForcedCloses counts connections force-closed because graceful
	// shutdown exceeded its drain deadline.
	DrainForcedCloses *telemetry.Counter

	// AcceptErrors counts failed accepts the acceptor backed off from and
	// survived (EMFILE and the like).
	AcceptErrors *telemetry.Counter

	// ktr records each steering decision; ptr health probes and backend
	// availability transitions, on the kernel track — backends are peers of
	// the steering decision, not of any one worker.
	ktr *tracing.KernelTrace
	ptr *tracing.ProxyTrace
}

// newInstruments registers the proxy.* catalog on reg and takes the proxy's
// trace handles from tr (nil tr → nil handles, which no-op).
func newInstruments(reg *telemetry.Registry, tr *tracing.Tracer, workers, backends int) Instruments {
	m := func(name, unit string) telemetry.Metric {
		return telemetry.Metric{Name: name, Layer: "proxy", Unit: unit}
	}
	return Instruments{
		ktr: tr.KernelTrace(),
		ptr: tr.ProxyTrace(),

		RequestsServed:   reg.CounterVec(m("proxy.worker.requests_served", "reqs"), workers),
		RequestLatencyNS: reg.Histogram(m("proxy.request_latency_ns", "ns"), telemetry.DurationBuckets()),
		UpstreamErrors:   reg.Counter(m("proxy.upstream_errors", "errors")),

		BackendRequests: reg.CounterVec(m("proxy.backend.requests", "reqs"), backends),
		BackendErrors:   reg.CounterVec(m("proxy.backend.errors", "errors"), backends),
		BackendActive:   reg.GaugeVec(m("proxy.backend.active", "reqs"), backends),
		BackendDials:    reg.CounterVec(m("proxy.backend.dials", "conns"), backends),
		BackendHealthy:  reg.GaugeVec(m("proxy.backend.healthy", "bool"), backends),

		HealthProbes:        reg.Counter(m("proxy.health.probes", "probes")),
		HealthProbeFailures: reg.Counter(m("proxy.health.probe_failures", "probes")),
		HealthTransitions:   reg.Counter(m("proxy.health.transitions", "flips")),

		CircuitOpens:      reg.Counter(m("proxy.circuit.opens", "transitions")),
		CircuitHalfOpens:  reg.Counter(m("proxy.circuit.half_opens", "transitions")),
		CircuitCloses:     reg.Counter(m("proxy.circuit.closes", "transitions")),
		CircuitRejections: reg.Counter(m("proxy.circuit.rejections", "picks")),

		RetryAttempts:  reg.Counter(m("proxy.retry.attempts", "attempts")),
		RetryRecovered: reg.Counter(m("proxy.retry.recovered", "reqs")),
		RetryExhausted: reg.Counter(m("proxy.retry.exhausted", "reqs")),

		Unavailable:       reg.Counter(m("proxy.unavailable", "reqs")),
		DrainForcedCloses: reg.Counter(m("proxy.drain.forced_closes", "conns")),
		AcceptErrors:      reg.Counter(m("proxy.accept_errors", "errors")),
	}
}
