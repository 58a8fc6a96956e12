package l7lb

import (
	"hermes/internal/core"
	"hermes/internal/kernel"
	"hermes/internal/telemetry"
)

// This file wires the cross-layer metric catalog (docs/TELEMETRY.md) into
// the kernel, eBPF, core, and worker layers. All instrument handles are
// obtained here, once, at build time; the layers only ever touch handles.
// With Config.Telemetry unset every handle is nil and recording no-ops.

// timelineDepth is the per-worker ring depth for sampled timelines.
const timelineDepth = 512

// lbInstruments holds the LB-level telemetry handles. Zero value = all nil
// = disabled.
type lbInstruments struct {
	// kernel layer, indexed by worker id.
	epWakeups  *telemetry.CounterVec
	epSpurious *telemetry.CounterVec
	epTimeouts *telemetry.CounterVec
	epEvents   *telemetry.CounterVec
	epWaitNS   *telemetry.Histogram

	qEnqueued  *telemetry.CounterVec
	qDropped   *telemetry.CounterVec
	qDepthPeak *telemetry.GaugeVec

	// l7lb layer.
	served     *telemetry.CounterVec
	accepted   *telemetry.CounterVec
	acceptWait *telemetry.Histogram
	latency    *telemetry.Histogram
	openConns  *telemetry.TimelineVec
}

func wireTelemetry(lb *LB) {
	sink := lb.Cfg.Telemetry
	if sink == nil {
		return
	}
	n := lb.Cfg.Workers
	t := &lb.tel

	t.epWakeups = sink.CounterVec(telemetry.Metric{
		Name: "kernel.epoll.wakeups", Layer: "kernel", Unit: "wakeups",
		Help: "completed epoll_wait calls per worker, including timeouts"}, n)
	t.epSpurious = sink.CounterVec(telemetry.Metric{
		Name: "kernel.epoll.spurious_wakeups", Layer: "kernel", Unit: "wakeups",
		Help: "wakeups that delivered zero events per worker (herd waste)"}, n)
	t.epTimeouts = sink.CounterVec(telemetry.Metric{
		Name: "kernel.epoll.timeouts", Layer: "kernel", Unit: "wakeups",
		Help: "epoll_wait timeouts per worker"}, n)
	t.epEvents = sink.CounterVec(telemetry.Metric{
		Name: "kernel.epoll.events", Layer: "kernel", Unit: "events",
		Help: "events delivered per worker"}, n)
	t.epWaitNS = sink.Histogram(telemetry.Metric{
		Name: "kernel.epoll.wait_ns", Layer: "kernel", Unit: "ns",
		Help: "time blocked per epoll_wait (0 for immediate returns)"}, telemetry.DurationBuckets())

	t.qEnqueued = sink.CounterVec(telemetry.Metric{
		Name: "kernel.accept_queue.enqueued", Layer: "kernel", Unit: "conns",
		Help: "connections enqueued per worker's listen socket (slot 0 for shared sockets)"}, n)
	t.qDropped = sink.CounterVec(telemetry.Metric{
		Name: "kernel.accept_queue.dropped", Layer: "kernel", Unit: "conns",
		Help: "connections dropped on accept-queue overflow"}, n)
	t.qDepthPeak = sink.GaugeVec(telemetry.Metric{
		Name: "kernel.accept_queue.depth_peak", Layer: "kernel", Unit: "conns",
		Help: "high-water accept-queue depth per worker's listen socket"}, n)

	lb.NS.Instrument(kernel.WakeInstruments{
		Herd: sink.Counter(telemetry.Metric{
			Name: "kernel.wakeups.herd", Layer: "kernel", Unit: "wakes",
			Help: "thundering-herd wake-everyone decisions"}),
		LIFO: sink.Counter(telemetry.Metric{
			Name: "kernel.wakeups.exclusive_lifo", Layer: "kernel", Unit: "wakes",
			Help: "EPOLLEXCLUSIVE LIFO wake decisions"}),
		RR: sink.Counter(telemetry.Metric{
			Name: "kernel.wakeups.exclusive_rr", Layer: "kernel", Unit: "wakes",
			Help: "epoll-rr wake decisions"}),
		FIFO: sink.Counter(telemetry.Metric{
			Name: "kernel.wakeups.exclusive_fifo", Layer: "kernel", Unit: "wakes",
			Help: "io_uring-style FIFO wake decisions"}),
	})

	if len(lb.groups) > 0 {
		gi := kernel.GroupInstruments{
			Steered: sink.CounterVec(telemetry.Metric{
				Name: "kernel.reuseport.steered", Layer: "kernel", Unit: "conns",
				Help: "connections dispatched to each worker's reuseport socket"}, n),
			ProgHits: sink.Counter(telemetry.Metric{
				Name: "kernel.reuseport.prog_hits", Layer: "kernel", Unit: "conns",
				Help: "dispatches decided by the attached program/selector"}),
			HashPicks: sink.Counter(telemetry.Metric{
				Name: "kernel.reuseport.hash_picks", Layer: "kernel", Unit: "conns",
				Help: "plain reuseport hash dispatches (no selector attached)"}),
			Fallbacks: sink.Counter(telemetry.Metric{
				Name: "kernel.reuseport.fallbacks", Layer: "kernel", Unit: "conns",
				Help: "selector declines that fell back to hashing"}),
			ProgErrors: sink.Counter(telemetry.Metric{
				Name: "kernel.reuseport.prog_errors", Layer: "kernel", Unit: "errors",
				Help: "selector execution errors (also fall back)"}),
		}
		for _, g := range lb.groups {
			g.Instrument(gi)
			for i, s := range g.Sockets() {
				s.Instrument(kernel.QueueInstruments{
					Enqueued:  t.qEnqueued.At(i),
					Dropped:   t.qDropped.At(i),
					DepthPeak: t.qDepthPeak.At(i),
				})
			}
		}
	}
	for _, s := range lb.shared {
		// One shared socket serves every worker; its queue metrics live in
		// slot 0.
		s.Instrument(kernel.QueueInstruments{
			Enqueued:  t.qEnqueued.At(0),
			Dropped:   t.qDropped.At(0),
			DepthPeak: t.qDepthPeak.At(0),
		})
	}

	if lb.Ctl != nil {
		lb.Ctl.Instrument(core.Instruments{
			Recomputes: sink.Counter(telemetry.Metric{
				Name: "core.schedule.recomputes", Layer: "core", Unit: "passes",
				Help: "schedule_and_sync invocations (Algorithm 1 runs)"}),
			Syncs: sink.Counter(telemetry.Metric{
				Name: "core.schedule.syncs", Layer: "core", Unit: "syscalls",
				Help: "successful kernel selection-map updates"}),
			WSTReads: sink.Counter(telemetry.Metric{
				Name: "core.schedule.wst_reads", Layer: "core", Unit: "rows",
				Help: "Worker Status Table rows read by scheduling passes"}),
			EmptySets: sink.Counter(telemetry.Metric{
				Name: "core.schedule.empty_sets", Layer: "core", Unit: "passes",
				Help: "passes selecting nobody (kernel hash fallback)"}),
			SyncBatched: sink.Counter(telemetry.Metric{
				Name: "core.schedule.sync_batched", Layer: "core", Unit: "passes",
				Help: "schedule_and_sync calls coalesced onto a quantum's cached result"}),
			Passed: sink.Histogram(telemetry.Metric{
				Name: "core.schedule.passed", Layer: "core", Unit: "workers",
				Help: "workers surviving the whole cascade per pass"}, telemetry.CountBuckets(64)),
		})
		upd := sink.Counter(telemetry.Metric{
			Name: "ebpf.selmap.updates", Layer: "ebpf", Unit: "syscalls",
			Help: "userspace selection-map update operations"})
		lkp := sink.Counter(telemetry.Metric{
			Name: "ebpf.selmap.lookups", Layer: "ebpf", Unit: "ops",
			Help: "selection-map element reads (kernel + userspace)"})
		for _, m := range lb.Ctl.SelMaps() {
			m.Instrument(upd, lkp)
		}
		// JIT counters exist only in ModeHermes — the one mode that attaches
		// bytecode and compiles it. Creating them conditionally (not just
		// leaving them at zero) lets the metrics checker assert they are
		// absent everywhere else. wireTelemetry runs after AttachEBPF, so the
		// compiled form is already installed here; a nil Compiled means the
		// compiler declined and the group runs interpreted.
		if lb.Cfg.Mode == ModeHermes {
			jitRuns := sink.Counter(telemetry.Metric{
				Name: "ebpf.jit.runs", Layer: "ebpf", Unit: "runs",
				Help: "dispatch decisions executed by the compiled (JIT) program"})
			jitPrograms := sink.Counter(telemetry.Metric{
				Name: "ebpf.jit.programs", Layer: "ebpf", Unit: "programs",
				Help: "programs lowered to native closure chains"})
			jitInsns := sink.Counter(telemetry.Metric{
				Name: "ebpf.jit.insns", Layer: "ebpf", Unit: "insns",
				Help: "source bytecode instructions across compiled programs"})
			jitClosures := sink.Counter(telemetry.Metric{
				Name: "ebpf.jit.closures", Layer: "ebpf", Unit: "closures",
				Help: "native closures after idiom fusion (vs insns: fusion ratio)"})
			for _, g := range lb.groups {
				if c := g.Compiled(); c != nil {
					c.Instrument(jitRuns)
					jitPrograms.Inc()
					jitInsns.Add(uint64(c.Insns()))
					jitClosures.Add(uint64(c.Closures()))
				}
			}
		}
	}

	t.served = sink.CounterVec(telemetry.Metric{
		Name: "l7lb.worker.requests_served", Layer: "l7lb", Unit: "reqs",
		Help: "requests completed per worker"}, n)
	t.accepted = sink.CounterVec(telemetry.Metric{
		Name: "l7lb.worker.conns_accepted", Layer: "l7lb", Unit: "conns",
		Help: "connections accepted per worker"}, n)
	t.acceptWait = sink.Histogram(telemetry.Metric{
		Name: "l7lb.accept_wait_ns", Layer: "l7lb", Unit: "ns",
		Help: "accept-queue wait (handshake completion to accept)"}, telemetry.DurationBuckets())
	t.latency = sink.Histogram(telemetry.Metric{
		Name: "l7lb.request_latency_ns", Layer: "l7lb", Unit: "ns",
		Help: "end-to-end request latency"}, telemetry.DurationBuckets())
	t.openConns = sink.TimelineVec(telemetry.Metric{
		Name: "l7lb.worker.open_conns", Layer: "l7lb", Unit: "conns",
		Help: "live connection count per worker, sampled at loop entry"}, n, timelineDepth)
}
