package core

import (
	"fmt"
	"sync/atomic"

	"hermes/internal/bitops"
	"hermes/internal/ebpf"
	"hermes/internal/kernel"
	"hermes/internal/shm"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// syncCache coalesces schedule_and_sync calls within one syncQuantum:
// the first caller of a quantum runs the full Snapshot → Schedule → map-sync
// pipeline and publishes its result here; later callers return it directly,
// skipping the O(workers) WST scan and the map-update syscall. Fields are
// independent atomics read without a lock: a torn read across a concurrent
// refill can pair one fill's bitmap with another's counts, both synced within
// the last quantum — exactly the staleness the quantum already admits. Two
// fillers' stores may interleave too; one computed under an older policy
// generation is repaired by its filler's rerun (scheduleAndSync). Ordering
// matters only in that the filler stores lastNS last: a reader that observes
// the new timestamp observes payload stores no older than it.
type syncCache struct {
	lastNS atomic.Int64  // virtual time of the last real sync
	gen    atomic.Uint64 // 1 + the policy generation it was computed under; 0 = never filled
	bitmap atomic.Uint64
	meta   atomic.Uint64 // total | passed<<16 | alive<<32
}

// load returns the cached result if it is still valid at nowNS under policy
// generation gen.
func (sc *syncCache) load(nowNS int64, gen uint64) (ScheduleResult, bool) {
	last := sc.lastNS.Load()
	if sc.gen.Load() != gen+1 || nowNS < last || nowNS-last >= int64(syncQuantum) {
		return ScheduleResult{}, false
	}
	meta := sc.meta.Load()
	return ScheduleResult{
		Bitmap: bitops.Bitmap64(sc.bitmap.Load()),
		Total:  int(meta & 0xffff),
		Passed: int(meta >> 16 & 0xffff),
		Alive:  int(meta >> 32 & 0xffff),
	}, true
}

// store publishes a freshly computed-and-synced result.
func (sc *syncCache) store(nowNS int64, gen uint64, res ScheduleResult) {
	sc.gen.Store(gen + 1)
	sc.bitmap.Store(uint64(res.Bitmap))
	sc.meta.Store(uint64(res.Total)&0xffff | uint64(res.Passed)&0xffff<<16 | uint64(res.Alive)&0xffff<<32)
	sc.lastNS.Store(nowNS)
}

// group is one ≤64-worker control loop (§7): its own Worker Status Table and
// kernel-facing selection map, updated only by its own workers, plus the
// per-group halves of sync batching and the availability veto. Groups are
// independent — group A's cache never serves group B's workers.
type group struct {
	wst   *shm.WST
	sel   *ebpf.ArrayMap
	cache syncCache
	avail atomic.Uint64 // bit i clear = slot i vetoed from every published bitmap
}

// Controller owns a fleet's Hermes state: G ≥ 1 worker groups of at most 64
// workers each, and one policy for all of them. G = 1 is the paper's
// standard deployment; G > 1 is its answer to the 64-bit atomic<int> limit
// (§7) — the kernel dispatcher first hashes a connection to a group, then
// bitmap-selects within it. With GroupByLocalityHash as the level-1 key the
// same mechanism is the cache-locality mode of Fig. A6: same-destination
// traffic stays in one group (locality) while load still spreads within the
// group (balance); one worker per group degenerates to plain reuseport.
type Controller struct {
	// Policy, held once for the fleet as one immutable value. polGen counts
	// policy mutations and vetoes; a group's cached result (syncQuantum) is
	// only served while the generation it was computed under is still
	// current.
	cfg    atomic.Pointer[Config]
	polGen atomic.Uint64

	key     GroupKey
	workers int
	span    int // worker id = group*span + slot; only the last group may hold fewer
	groups  []group

	led  ledger                 // the core.schedule.* rows, Stats' only source
	sink *telemetry.Registry    // Observe's sink, for programs DispatchProgram compiles; nil until then
	tr   *tracing.ScheduleTrace // nil unless Observe got a tracer
}

// New creates Hermes state for n workers in ceil(n/64) groups, or exactly
// WithGroups(g) equal-span groups (locality tuning: the grouping granularity
// controls the locality/balance trade-off, Fig. A6). Global worker ids are
// dense: worker g*span+i is slot i of group g.
func New(n int, cfg Config, opts ...Option) (*Controller, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	span := shm.GroupSize
	switch {
	case o.groups > 0:
		if n < o.groups || n%o.groups != 0 {
			return nil, fmt.Errorf("core: cannot split %d workers into %d equal groups", n, o.groups)
		}
		if span = n / o.groups; span > shm.GroupSize {
			return nil, fmt.Errorf("core: group span %d exceeds %d", span, shm.GroupSize)
		}
	case n < 1:
		return nil, fmt.Errorf("core: worker count %d < 1", n)
	}
	c := &Controller{key: o.key, workers: n, span: span, led: newLedger(telemetry.NewRegistry())}
	c.cfg.Store(&cfg)
	c.groups = make([]group, (n+span-1)/span)
	for gi := range c.groups {
		g := &c.groups[gi]
		g.wst = shm.NewWST(min(span, n-gi*span))
		g.sel = ebpf.NewArrayMap(1)
		g.avail.Store(^uint64(0))
	}
	return c, nil
}

// NewController is New without options.
func NewController(n int, cfg Config) (*Controller, error) { return New(n, cfg) }

// SetWorkerAvailable vetoes (ok=false) or re-admits (ok=true) one worker,
// by global id, in every bitmap its group publishes. The veto is ANDed onto
// Algorithm 1's result after the cascade, so an external availability signal
// — backend health, circuit state, a drain in progress — flows through the
// same selection map the kernel dispatch program reads: worker-load steering
// and availability become one decision. Vetoing a whole group yields that
// group's empty set, i.e. the kernel's reuseport-hash fallback (Algorithm 2),
// never a black hole. Takes effect on the next schedule_and_sync even
// mid-quantum.
func (c *Controller) SetWorkerAvailable(id int, ok bool) error {
	if id < 0 || id >= c.Workers() {
		return fmt.Errorf("core: worker %d outside 0..%d", id, c.Workers()-1)
	}
	avail, slot := &c.groups[id/c.span].avail, id%c.span
	for {
		old := avail.Load()
		next := old | 1<<uint(slot)
		if !ok {
			next = old &^ (1 << uint(slot))
		}
		if old == next {
			return nil
		}
		if avail.CompareAndSwap(old, next) {
			c.polGen.Add(1)
			return nil
		}
	}
}

// AvailableMask returns group gi's availability veto mask (bit i set = the
// group's worker i eligible).
func (c *Controller) AvailableMask(gi int) uint64 { return c.groups[gi].avail.Load() }

// Config returns the controller's current configuration.
func (c *Controller) Config() Config { return *c.cfg.Load() }

// SetConfig replaces the scheduling policy at runtime — the dynamic policy
// updates the paper's HTTP control interface performs (Appendix C), the
// reuseport fallback and the ablations' cascade orders among them. The
// update is one atomic pointer swap: in-flight scheduling passes finish on
// the old policy, subsequent passes use the new one, and a change takes
// effect on the next schedule_and_sync even mid-quantum. MinWorkers is compiled
// into the dispatch program: the simulated kernel keeps the program it
// attached, and the real proxy's acceptor re-attaches before its next pick.
func (c *Controller) SetConfig(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	c.cfg.Store(&cfg)
	c.polGen.Add(1)
	return nil
}

// Snapshot appends every worker's published metrics to dst, in global worker
// order (diagnostics, the watchdog).
func (c *Controller) Snapshot(dst []shm.Metrics) []shm.Metrics {
	for gi := range c.groups {
		dst = c.groups[gi].wst.Snapshot(dst)
	}
	return dst
}

// Selection returns the bitmap group gi's selection map holds: what the
// kernel dispatch program reads.
func (c *Controller) Selection(gi int) uint64 {
	bm, _ := c.groups[gi].sel.UserLookup(0)
	return bm
}

// SelMap exposes group 0's kernel-facing selection map (M_sel) — the only
// one when the fleet fits one group.
func (c *Controller) SelMap() *ebpf.ArrayMap { return c.groups[0].sel }

// SelMaps returns every group's selection map, in group order.
func (c *Controller) SelMaps() []*ebpf.ArrayMap {
	out := make([]*ebpf.ArrayMap, len(c.groups))
	for gi := range c.groups {
		out[gi] = c.groups[gi].sel
	}
	return out
}

// Workers returns the total worker count.
func (c *Controller) Workers() int { return c.workers }

// Groups returns the group count.
func (c *Controller) Groups() int { return len(c.groups) }

// DispatchProgram builds and verifies the Algorithm 2 bytecode over this
// controller's selection maps at the live MinWorkers, sock(i) in global worker
// i's sockarray slot, and observes its compiled form on Observe's sink. The
// simulated reuseport hook (AttachEBPF) and the real proxy's acceptor run it.
func (c *Controller) DispatchProgram(sock func(i int) ebpf.SockRef) (*ebpf.Program, error) {
	maps := make([]GroupMaps, len(c.groups))
	for gi := range c.groups {
		span := c.groups[gi].wst.Workers()
		sa := ebpf.NewSockArray(span)
		for slot := 0; slot < span; slot++ {
			if err := sa.Put(uint32(slot), sock(gi*c.span+slot)); err != nil {
				return nil, err
			}
		}
		maps[gi] = GroupMaps{Sel: c.groups[gi].sel, Socks: sa}
	}
	prog, err := BuildDispatchProgram(maps, c.Config().MinWorkers, c.key)
	if err != nil {
		return nil, err
	}
	if c.sink != nil {
		// Compilation is cached per program: this is the form the caller runs.
		if cp, err := prog.Compiled(); err == nil {
			cp.Observe(c.sink)
		}
	}
	return prog, nil
}

// AttachEBPF installs DispatchProgram at the reuseport group's
// SO_ATTACH_REUSEPORT_EBPF hook. Socket i must belong to global worker i.
func (c *Controller) AttachEBPF(rg *kernel.ReuseportGroup) error {
	socks, err := c.socketsOf(rg)
	if err != nil {
		return err
	}
	prog, err := c.DispatchProgram(func(i int) ebpf.SockRef { return socks[i] })
	if err == nil {
		rg.AttachProgram(prog)
	}
	return err
}

// AttachNative installs the native-Go dispatch twin on the reuseport group:
// the spec the bytecode is checked against and the yardstick for the JIT.
// Like the bytecode it compiles in the MinWorkers current at attach time.
func (c *Controller) AttachNative(rg *kernel.ReuseportGroup) error {
	socks, err := c.socketsOf(rg)
	if err != nil {
		return err
	}
	min := c.Config().MinWorkers
	rg.AttachNative(func(hash, localityHash uint32) (*kernel.Socket, bool) {
		w, ok := c.selectWorker(hash, localityHash, min)
		if !ok {
			return nil, false
		}
		return socks[w], true
	})
	return nil
}

// socketsOf returns the reuseport group's sockets, one per worker.
func (c *Controller) socketsOf(rg *kernel.ReuseportGroup) ([]*kernel.Socket, error) {
	socks := rg.Sockets()
	if len(socks) != c.Workers() {
		return nil, fmt.Errorf("core: group has %d sockets, controller has %d workers",
			len(socks), c.Workers())
	}
	return socks, nil
}

// NewWorkerHook returns global worker id's instrumentation handle — the few
// lines Hermes adds to the epoll event loop (Fig. 9). The embedded scheduler
// operates on the worker's own group only.
func (c *Controller) NewWorkerHook(id int) *WorkerHook {
	g := &c.groups[id/c.span]
	return &WorkerHook{c: c, g: g, id: id, w: g.wst.Writer(id % c.span)}
}

// scheduleAndSync is the shared implementation behind schedule_and_sync()
// for every worker of group g; any goroutine may call it. A pass whose publish
// finds that a policy change landed since it loaded the generation computes
// and publishes again, without the cache, so a pass that read an old policy
// cannot leave its result standing (the publish rule, DESIGN.md §4).
func (c *Controller) scheduleAndSync(g *group, nowNS int64) ScheduleResult {
	gen, res, ok := c.cached(g, nowNS)
	for !ok {
		var batching bool
		res, batching = c.compute(g, nowNS)
		gen, ok = c.publish(g, nowNS, gen, res, batching)
	}
	return res
}

// cached loads the generation a pass computes under and serves the quantum's
// cached result when one is valid under it.
func (c *Controller) cached(g *group, nowNS int64) (gen uint64, res ScheduleResult, ok bool) {
	gen = c.polGen.Load()
	if c.cfg.Load().batches() {
		if res, ok = g.cache.load(nowNS, gen); ok {
			c.led.syncBatched.Inc()
		}
	}
	return gen, res, ok
}

// compute runs Algorithm 1 and the veto over a stack snapshot of g's WST,
// under one load of the policy. batching is the policy's batches().
func (c *Controller) compute(g *group, nowNS int64) (res ScheduleResult, batching bool) {
	cfg := c.cfg.Load()
	var rows [shm.GroupSize]shm.Metrics
	ms := g.wst.Snapshot(rows[:0])
	if cfg.ForceFallback {
		res = ScheduleResult{Total: len(ms)} // empty set → kernel hash fallback
	} else {
		res = Schedule(nowNS, ms, *cfg, cfg.Order)
	}

	// Availability veto (SetWorkerAvailable): drop vetoed workers from the
	// published set. Applied after the cascade so the veto and the load
	// filters land in the same bitmap; all-ones (the default) skips the
	// branch entirely, keeping the unvetoed path bit-for-bit unchanged.
	if mask := g.avail.Load(); mask != ^uint64(0) {
		if bm := uint64(res.Bitmap) & mask; bm != uint64(res.Bitmap) {
			res.Bitmap = bitops.Bitmap64(bm)
			res.Passed = bitops.PopCount64(bm)
		}
	}

	c.led.recomputes.Inc()
	c.led.wstReads.Add(uint64(len(ms)))
	c.led.passed.Observe(int64(res.Passed))
	if res.Passed == 0 {
		c.led.emptySets.Inc()
	}
	return res, cfg.batches()
}

// publish writes res to g's selection map, the one published copy, then, if
// the map took it and it may batch, to the cache. It returns the generation
// now in force and whether res was computed under it.
func (c *Controller) publish(g *group, nowNS int64, gen uint64, res ScheduleResult, batching bool) (uint64, bool) {
	if err := g.sel.Update(0, uint64(res.Bitmap)); err == nil {
		c.led.syncs.Inc()
		if batching {
			g.cache.store(nowNS, gen, res)
		}
	}
	now := c.polGen.Load()
	return now, now == gen
}

// Stats is a snapshot of scheduling counters, summed over every group.
type Stats struct {
	ScheduleCalls uint64  // schedule_and_sync invocations that recomputed
	Syncs         uint64  // successful kernel map updates (syscalls)
	Batched       uint64  // invocations coalesced into a quantum's cached result
	AvgPassed     float64 // mean workers passing the whole cascade
	EmptySets     uint64  // passes that selected nobody (kernel fallback)
}

// Stats reads the scheduling ledger: the core.schedule.* rows.
func (c *Controller) Stats() Stats {
	l := &c.led
	s := Stats{
		ScheduleCalls: l.recomputes.Load(),
		Syncs:         l.syncs.Load(),
		Batched:       l.syncBatched.Load(),
		EmptySets:     l.emptySets.Load(),
	}
	if n := l.passed.Count(); n > 0 {
		s.AvgPassed = float64(l.passed.Sum()) / float64(n)
	}
	return s
}

// WorkerHook is one worker's view of Hermes: metric publication plus the
// embedded scheduler. Methods map 1:1 onto the Fig. 9 instrumentation. Every
// method is one or more atomic operations on shared state, so a hook is safe
// for concurrent use: the real proxy's connection goroutines share their
// worker's hook.
type WorkerHook struct {
	c  *Controller
	g  *group
	id int // global worker id (the trace track)
	w  shm.Writer
}

// LoopEnter publishes the event-loop entry timestamp (shm_avail_update,
// Fig. 9 line 12).
func (h *WorkerHook) LoopEnter(nowNS int64) { h.w.SetLoopEnter(nowNS) }

// EventsFetched adds the epoll_wait batch size to the pending-event count
// (Fig. 9 line 14).
func (h *WorkerHook) EventsFetched(n int) {
	if n > 0 {
		h.w.AddBusy(int64(n))
	}
}

// EventHandled decrements the pending-event count (Fig. 9 line 18).
func (h *WorkerHook) EventHandled() { h.w.AddBusy(-1) }

// ConnOpened increments the accumulated-connection count (Fig. 9 line 25).
func (h *WorkerHook) ConnOpened() { h.w.AddConn(1) }

// ConnClosed decrements the accumulated-connection count (Fig. 9 line 37).
func (h *WorkerHook) ConnClosed() { h.w.AddConn(-1) }

// ScheduleAndSync runs Algorithm 1 over this worker's group and synchronizes
// the group bitmap to the kernel — the schedule_and_sync() call at the end of
// the event loop (Fig. 9 line 20). One recompute per group per syncQuantum
// serves every group member's call.
func (h *WorkerHook) ScheduleAndSync(nowNS int64) ScheduleResult {
	res := h.c.scheduleAndSync(h.g, nowNS)
	if tr := h.c.tr; tr != nil {
		tr.Pass(h.id, nowNS, res.Passed, res.Total)
	}
	return res
}

// Metrics returns this worker's own published metrics (diagnostics).
func (h *WorkerHook) Metrics() shm.Metrics { return h.w.Read() }
