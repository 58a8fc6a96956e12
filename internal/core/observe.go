package core

import (
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// This file is the core layer's one observer seam: the core.* metric catalog
// (docs/TELEMETRY.md) and the control loop's flight-recorder handle live
// here, and Controller.Observe is the only place they are switched on — for
// the simulated LB and the real proxy alike. Unobserved, a hook site costs one
// nil check.

// MetricSyncBatched names the row that exists exactly where the Hermes
// control loop runs; `hermesctl check metrics` asserts it.
const MetricSyncBatched = "core.schedule.sync_batched"

type observer struct {
	sink *telemetry.Registry // kept for the programs AttachEBPF compiles later

	recomputes, syncs, syncBatched, wstReads, emptySets *telemetry.Counter
	passed                                              *telemetry.Histogram

	tr *tracing.ScheduleTrace
}

// Observe switches observation on for the controller and the eBPF objects it
// owns: Algorithm 1 decisions are counted on sink and traced as schedule
// instants on tr, every group's selection map is observed (its sync instants
// stamped by now, since a map has no clock), and so is each program a later
// AttachEBPF compiles. sink or tr may be nil; now may be nil when tr is. Call
// it before the workers start: the handles are read without synchronisation.
func (c *Controller) Observe(sink *telemetry.Registry, tr *tracing.Tracer, now func() int64) {
	if sink == nil && tr == nil {
		return
	}
	o := &observer{sink: sink, tr: tr.ScheduleTrace()}
	m := func(name, unit, help string) telemetry.Metric {
		return telemetry.Metric{Name: name, Layer: "core", Unit: unit, Help: help}
	}
	o.recomputes = sink.Counter(m("core.schedule.recomputes", "passes",
		"schedule_and_sync invocations (Algorithm 1 runs)"))
	o.syncs = sink.Counter(m("core.schedule.syncs", "syscalls",
		"successful kernel selection-map updates"))
	o.wstReads = sink.Counter(m("core.schedule.wst_reads", "rows",
		"Worker Status Table rows read by scheduling passes"))
	o.emptySets = sink.Counter(m("core.schedule.empty_sets", "passes",
		"passes selecting nobody (kernel hash fallback)"))
	o.syncBatched = sink.Counter(m(MetricSyncBatched, "passes",
		"schedule_and_sync calls coalesced onto a quantum's cached result"))
	o.passed = sink.Histogram(m("core.schedule.passed", "workers",
		"workers surviving the whole cascade per pass"), telemetry.CountBuckets(64))
	c.obs = o
	mt := tr.MapTrace(now)
	for gi := range c.groups {
		c.groups[gi].sel.Observe(sink, mt)
	}
}
