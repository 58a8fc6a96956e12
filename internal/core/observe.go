package core

import (
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// This file is the core layer's one observer seam: the core.* metric catalog
// (docs/TELEMETRY.md) and the control loop's flight-recorder handle live
// here, and Controller.Observe is the only place they are switched on — for
// the simulated LB and the real proxy alike.

// MetricSyncBatched names the row that exists exactly where the Hermes
// control loop runs; `hermesctl check metrics` asserts it.
const MetricSyncBatched = "core.schedule.sync_batched"

// ledger is the controller's one count of what its scheduling passes did:
// the core.schedule.* rows. New registers them on a registry of the
// controller's own, Observe on the caller's sink instead, and Stats reads
// them back.
type ledger struct {
	recomputes, syncs, syncBatched, wstReads, emptySets *telemetry.Counter
	passed                                              *telemetry.Histogram
}

// passedBuckets is core.schedule.passed's layout, built once for every ledger.
var passedBuckets = telemetry.CountBuckets(64)

func newLedger(reg *telemetry.Registry) ledger {
	m := func(name, unit, help string) telemetry.Metric {
		return telemetry.Metric{Name: name, Layer: "core", Unit: unit, Help: help}
	}
	return ledger{
		recomputes: reg.Counter(m("core.schedule.recomputes", "passes",
			"schedule_and_sync invocations (Algorithm 1 runs)")),
		syncs: reg.Counter(m("core.schedule.syncs", "syscalls",
			"successful kernel selection-map updates")),
		wstReads: reg.Counter(m("core.schedule.wst_reads", "rows",
			"Worker Status Table rows read by scheduling passes")),
		emptySets: reg.Counter(m("core.schedule.empty_sets", "passes",
			"passes selecting nobody (kernel hash fallback)")),
		syncBatched: reg.Counter(m(MetricSyncBatched, "passes",
			"schedule_and_sync calls coalesced onto a quantum's cached result")),
		passed: reg.Histogram(m("core.schedule.passed", "workers",
			"workers surviving the whole cascade per pass"), passedBuckets),
	}
}

// Observe switches observation on for the controller and the eBPF objects it
// owns: the ledger moves onto sink, Algorithm 1 decisions are traced as
// schedule instants on tr, every group's selection map is observed (its sync
// instants stamped by now, since a map has no clock), and so is each program
// a later DispatchProgram compiles. sink or tr may be nil; now may be nil when
// tr is. Call it before the workers start: the handles are read without
// synchronisation, and counts made before it stay on the old ledger.
func (c *Controller) Observe(sink *telemetry.Registry, tr *tracing.Tracer, now func() int64) {
	if sink != nil {
		c.led, c.sink = newLedger(sink), sink
	}
	c.tr = tr.ScheduleTrace()
	mt := tr.MapTrace(now)
	for gi := range c.groups {
		c.groups[gi].sel.Observe(sink, mt)
	}
}
