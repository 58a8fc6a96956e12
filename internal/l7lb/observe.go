package l7lb

import (
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// This file is the LB's one observer seam. It owns the l7lb.* metric catalog
// (docs/TELEMETRY.md) and the workers' flight-recorder tracks
// (docs/TRACING.md), and it is where Config.Telemetry and Config.Tracer are
// handed to the layers beneath, each of which registers its own names. With
// both unset nothing is attached and every hook site costs one nil check.

// workerObs is one worker's share of the observers: its slots of the
// per-worker vectors, the LB-wide histograms, and its trace track.
type workerObs struct {
	served, accepted    *telemetry.Counter
	openConns           *telemetry.Gauge
	acceptWait, latency *telemetry.Histogram
	tr                  *tracing.WorkerTrace
}

// observe attaches the configured observers to the kernel and (Hermes modes)
// the controller, and registers the LB's own rows. It runs before any
// listener, epoll instance or dispatch program exists, so all of them are
// observed from their first event. Every per-worker vector has one slot per
// simulated core: worker i takes lb.obs[i], and ModeDispatcher's dispatcher
// core the last one, past the executors.
func (lb *LB) observe() {
	sink, tr := lb.Cfg.Telemetry, lb.Cfg.Tracer
	if sink == nil && tr == nil {
		return
	}
	n := lb.Cfg.Workers
	if lb.Cfg.Mode == ModeDispatcher {
		n++
	}
	lb.NS.Observe(sink, tr, n)
	if lb.Ctl != nil {
		// The selection maps have no clock; their sync instants are stamped
		// with the engine's virtual time.
		lb.Ctl.Observe(sink, tr, lb.Eng.Now)
	}
	m := func(name, unit, help string) telemetry.Metric {
		return telemetry.Metric{Name: name, Layer: "l7lb", Unit: unit, Help: help}
	}
	served := sink.CounterVec(m("l7lb.worker.requests_served", "reqs",
		"requests completed per worker"), n)
	accepted := sink.CounterVec(m("l7lb.worker.conns_accepted", "conns",
		"connections accepted per worker"), n)
	acceptWait := sink.Histogram(m("l7lb.accept_wait_ns", "ns",
		"accept-queue wait (handshake completion to accept)"), telemetry.DurationBuckets())
	latency := sink.Histogram(m("l7lb.request_latency_ns", "ns",
		"end-to-end request latency"), telemetry.DurationBuckets())
	openConns := sink.GaugeVec(m("l7lb.worker.open_conns", "conns",
		"live connection count per worker, as of its last loop entry"), n)
	lb.obs = make([]workerObs, n)
	for i := range lb.obs {
		lb.obs[i] = workerObs{
			served: served.At(i), accepted: accepted.At(i), openConns: openConns.At(i),
			acceptWait: acceptWait, latency: latency, tr: tr.WorkerTrace(i),
		}
	}
}
