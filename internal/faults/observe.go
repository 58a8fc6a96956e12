package faults

import (
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// This file is the fault layer's one observer seam: the faults.* metric
// catalog (docs/TELEMETRY.md) lives here, and Injector.Observe /
// Watchdog.Observe are the only places it is switched on. Fault injection is
// opt-in, so the harness that builds an injector attaches it, not the LB
// config. Unobserved, a hook site costs one nil check.

type injectorObs struct {
	injected *telemetry.CounterVec
	restarts *telemetry.Counter
	tr       *tracing.FaultTrace
}

// Observe counts injected faults (one slot per fault kind) and scheduled
// restarts on sink, and emits each as a fault instant on tr — on the victim's
// track, or the kernel track for LB-wide faults. Either may be nil. Both data
// paths count under these names: the real proxy observes its injector when
// it has a schedule.
func (inj *Injector) Observe(sink *telemetry.Registry, tr *tracing.Tracer) {
	if sink == nil && tr == nil {
		return
	}
	o := &injectorObs{tr: tr.FaultTrace()}
	o.injected = sink.CounterVec(telemetry.Metric{
		Name: "faults.injected", Layer: "faults", Unit: "events",
		Help: "injected fault events by kind (hang, crash, slow, shrinkq, syncstall, probeloss)"}, numSchedulable)
	o.restarts = sink.Counter(telemetry.Metric{
		Name: "faults.worker.restarts", Layer: "faults", Unit: "events",
		Help: "crashed workers brought back by a scheduled restart"})
	inj.obs = o
}

type watchdogObs struct {
	detections, restarts *telemetry.Counter
	tr                   *tracing.FaultTrace
}

// Observe counts detections and watchdog-driven restarts on sink and emits
// each as a fault instant on the victim's track of tr. Either may be nil.
// Safe on a nil watchdog (non-Hermes modes have none).
func (d *Watchdog) Observe(sink *telemetry.Registry, tr *tracing.Tracer) {
	if d == nil || (sink == nil && tr == nil) {
		return
	}
	o := &watchdogObs{tr: tr.FaultTrace()}
	o.detections = sink.Counter(telemetry.Metric{
		Name: "faults.watchdog.detections", Layer: "faults", Unit: "events",
		Help: "workers flagged hung by WST loop-enter staleness"})
	o.restarts = sink.Counter(telemetry.Metric{
		Name: "faults.watchdog.restarts", Layer: "faults", Unit: "events",
		Help: "watchdog-driven crash+restart recoveries"})
	d.obs = o
}
