package l7lb

// This file wires the per-connection flight recorder (docs/TRACING.md) into
// the kernel, eBPF, and core layers — the tracing twin of wireTelemetry.
// All trace handles are obtained here and in newWorker, once, at build
// time; with Config.Tracer unset every handle is nil and recording no-ops.

func wireTracing(lb *LB) {
	tr := lb.Cfg.Tracer
	if tr == nil {
		return
	}
	lb.NS.InstrumentTrace(tr.KernelTrace())
	if lb.Ctl != nil {
		lb.Ctl.InstrumentTrace(tr.ScheduleTrace())
		// The selection map has no clock; bind its sync instants to the
		// engine's virtual time.
		mt := tr.MapTrace(lb.Eng.Now)
		for _, m := range lb.Ctl.SelMaps() {
			m.InstrumentTrace(mt)
		}
	}
	// Per-worker handles are wired in newWorker (and newDispatcher, which
	// takes the track one past the executors).
}
