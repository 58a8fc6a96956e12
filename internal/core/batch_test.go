package core

import (
	"sync"
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/sim"
)

// Within one quantum only the first schedule_and_sync recomputes and syncs;
// the rest coalesce onto its result. Past the quantum boundary the next call
// recomputes.
func TestSyncBatchingCoalescesWithinQuantum(t *testing.T) {
	const workers = 4
	c, err := NewController(workers, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hooks := make([]*WorkerHook, workers)
	for i := range hooks {
		hooks[i] = c.NewWorkerHook(i)
		hooks[i].LoopEnter(0)
	}

	first := hooks[0].ScheduleAndSync(0)
	if first.Passed != workers {
		t.Fatalf("first pass selected %d of %d", first.Passed, workers)
	}
	for i := 1; i < workers; i++ {
		res := hooks[i].ScheduleAndSync(50_000) // +50µs: same quantum
		if res != first {
			t.Fatalf("worker %d got %+v, want cached %+v", i, res, first)
		}
	}
	st := c.Stats()
	if st.ScheduleCalls != 1 || st.Syncs != 1 {
		t.Fatalf("within quantum: %d recomputes, %d syncs, want 1 and 1", st.ScheduleCalls, st.Syncs)
	}
	if st.Batched != workers-1 {
		t.Fatalf("batched %d calls, want %d", st.Batched, workers-1)
	}

	// Quantum expired: next call recomputes and re-syncs.
	hooks[1].ScheduleAndSync(100_000)
	st = c.Stats()
	if st.ScheduleCalls != 2 || st.Syncs != 2 {
		t.Fatalf("after quantum: %d recomputes, %d syncs, want 2 and 2", st.ScheduleCalls, st.Syncs)
	}
}

// The cached result must reflect reality at the time it was computed — and
// must NOT mask state changes past the quantum. A worker hanging right after
// a sync is the dangerous case: the quantum bounds how long its bit stays
// published, and syncQuantum < HangThreshold keeps that window safe.
func TestSyncBatchingQuantumBoundsStaleness(t *testing.T) {
	const workers = 3
	cfg := DefaultConfig()
	c, err := NewController(workers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hooks := make([]*WorkerHook, workers)
	for i := range hooks {
		hooks[i] = c.NewWorkerHook(i)
		hooks[i].LoopEnter(0)
	}
	if res := hooks[0].ScheduleAndSync(0); res.Passed != workers {
		t.Fatalf("selected %d of %d", res.Passed, workers)
	}

	// Worker 2 never re-enters its loop. Within the quantum, cached results
	// still include it (bounded staleness, by design).
	hang := int64(cfg.HangThreshold) * 2
	for i := 0; i < 2; i++ {
		hooks[i].LoopEnter(hang)
	}
	if res := hooks[0].ScheduleAndSync(int64(syncQuantum) - 1); res.Passed != workers {
		t.Fatalf("mid-quantum cache dropped workers: %d of %d", res.Passed, workers)
	}
	// Past the quantum the recompute sees the hang.
	res := hooks[0].ScheduleAndSync(hang)
	if res.Passed != workers-1 || res.Bitmap.Has(2) {
		t.Fatalf("post-quantum pass kept hung worker: passed=%d bitmap=%b", res.Passed, uint64(res.Bitmap))
	}
	if bm, _ := c.SelMap().Lookup(0); bm&(1<<2) != 0 {
		t.Fatalf("hung worker still in kernel map: %b", bm)
	}
}

// Policy flips (fallback, single-winner, config swaps) must take effect on
// the very next call even when a quantum's cached result is still fresh —
// the live-policy tests flip these at one virtual instant.
func TestSyncBatchingPolicyFlipInvalidates(t *testing.T) {
	const workers = 4
	c, err := NewController(workers, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := c.NewWorkerHook(0)
	h.LoopEnter(0)

	if res := h.ScheduleAndSync(0); res.Passed != workers {
		t.Fatalf("selected %d of %d", res.Passed, workers)
	}
	setPolicy(t, c, func(cfg *Config) { cfg.ForceFallback = true })
	if res := h.ScheduleAndSync(1); res.Passed != 0 {
		t.Fatalf("fallback not applied mid-quantum: passed=%d", res.Passed)
	}
	if bm, _ := c.SelMap().Lookup(0); bm != 0 {
		t.Fatalf("kernel map not emptied by fallback: %b", bm)
	}
	setPolicy(t, c, func(cfg *Config) { cfg.ForceFallback = false })
	// Same instant: the pre-fallback cache entry (same timestamp, same
	// quantum) must not resurface — its generation is stale.
	if res := h.ScheduleAndSync(2); res.Passed != workers {
		t.Fatalf("stale pre-fallback cache served after re-enable: passed=%d", res.Passed)
	}

	// Fallback/single-winner results themselves never populate the cache:
	// two consecutive fallback calls both recompute.
	setPolicy(t, c, func(cfg *Config) { cfg.ForceFallback = true })
	h.ScheduleAndSync(3)
	h.ScheduleAndSync(4)
	st := c.Stats()
	if st.Batched != 0 {
		t.Fatalf("override-mode calls were batched: %d", st.Batched)
	}
}

// Grouped deployments batch per group: one recompute per group per quantum,
// and group A's cache never serves group B's workers.
func TestSyncBatchingGroupedPerGroup(t *testing.T) {
	const workers, groups = 8, 2
	gc, err := New(workers, DefaultConfig(), WithGroups(groups))
	if err != nil {
		t.Fatal(err)
	}
	hooks := make([]*WorkerHook, workers)
	for i := range hooks {
		hooks[i] = gc.NewWorkerHook(i)
		hooks[i].LoopEnter(0)
	}
	// Hang one worker in group 1 so the two groups compute different bitmaps.
	for i, h := range hooks {
		if i != 7 {
			h.LoopEnter(int64(2 * gc.Config().HangThreshold))
		}
	}
	now := int64(2 * gc.Config().HangThreshold)
	for i, h := range hooks {
		res := h.ScheduleAndSync(now + int64(i)) // all within one quantum
		span := workers / groups
		want := span
		if i >= span {
			want = span - 1 // group 1 lost its hung member
		}
		if res.Passed != want {
			t.Fatalf("worker %d: passed %d, want %d", i, res.Passed, want)
		}
	}
	// One sync per group, the rest batched.
	bm0, _ := gc.SelMaps()[0].Lookup(0)
	bm1, _ := gc.SelMaps()[1].Lookup(0)
	if bm0 != 0b1111 || bm1 != 0b0111 {
		t.Fatalf("group bitmaps: %b %b", bm0, bm1)
	}
	if st := gc.Stats(); st.ScheduleCalls != groups || st.Syncs != groups || st.Batched != workers-groups {
		t.Fatalf("per-group batching: calls=%d syncs=%d batched=%d", st.ScheduleCalls, st.Syncs, st.Batched)
	}
}

// multiGroupFixture is a 128-worker (two-group) batched controller with every
// worker fresh at `now` and worker 70 (group 1, slot 6) carrying enough
// connections to fail the conn filter.
func multiGroupFixture(t *testing.T) (c *Controller, hooks []*WorkerHook, now int64) {
	t.Helper()
	c, err := New(128, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	now = int64(time.Second)
	hooks = make([]*WorkerHook, 128)
	for i := range hooks {
		hooks[i] = c.NewWorkerHook(i)
		hooks[i].LoopEnter(now)
	}
	for i := 0; i < 100; i++ {
		hooks[70].ConnOpened()
	}
	return c, hooks, now
}

// Above 64 workers every policy mutation must change the very next
// schedule_and_sync of the affected group, even inside a sync quantum: the
// per-group caches are keyed by the fleet's one policy generation.
func TestMultiGroupPolicyFlipsMidQuantum(t *testing.T) {
	c, hooks, now := multiGroupFixture(t)
	const slot70 = 70 - 64
	g0, g1 := hooks[3], hooks[65]
	tick := func(h *WorkerHook) ScheduleResult {
		now++ // 1 ns per call: all within one quantum
		return h.ScheduleAndSync(now)
	}
	if res := tick(g0); res.Passed != 64 {
		t.Fatalf("group 0 baseline: %+v", res)
	}
	if res := tick(g1); res.Passed != 63 || res.Bitmap.Has(slot70) {
		t.Fatalf("group 1 baseline must drop loaded worker 70: %+v", res)
	}
	if res := tick(hooks[100]); res.Passed != 63 || c.Stats().Batched != 1 {
		t.Fatalf("second group-1 call in the quantum was not served from cache: %+v", res)
	}

	setPolicy(t, c, func(cfg *Config) { cfg.Order = OrderTimeOnly })
	if res := tick(g1); res.Passed != 64 {
		t.Fatalf("order change served stale mid-quantum: %+v", res)
	}
	setPolicy(t, c, func(cfg *Config) { cfg.Order = OrderTimeConnEvent })
	if res := tick(g1); res.Passed != 63 {
		t.Fatalf("order change back served stale mid-quantum: %+v", res)
	}

	setPolicy(t, c, func(cfg *Config) { cfg.ForceFallback = true })
	if res := tick(g1); res.Passed != 0 || res.Total != 64 {
		t.Fatalf("forced fallback ignored mid-quantum: %+v", res)
	}
	setPolicy(t, c, func(cfg *Config) { cfg.ForceFallback = false })

	cfg := c.Config()
	cfg.ThetaFrac = 1000 // offset wide enough to re-admit worker 70
	if err := c.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if res := tick(g1); res.Passed != 64 {
		t.Fatalf("SetConfig served stale mid-quantum: %+v", res)
	}

	// Veto by global id: the bit clears in worker 70's own group map only.
	if err := c.SetWorkerAvailable(70, false); err != nil {
		t.Fatal(err)
	}
	if res := tick(g1); res.Passed != 63 || res.Bitmap.Has(slot70) {
		t.Fatalf("SetWorkerAvailable(70,false) ignored mid-quantum: %+v", res)
	}
	tick(g0)
	bm0, _ := c.SelMaps()[0].Lookup(0)
	bm1, _ := c.SelMaps()[1].Lookup(0)
	if bm0 != ^uint64(0) || bm1 != ^uint64(0)&^(1<<slot70) {
		t.Fatalf("veto leaked across groups: group0=%#x group1=%#x", bm0, bm1)
	}
	if err := c.SetWorkerAvailable(128, false); err == nil {
		t.Fatal("out-of-range worker id accepted")
	}

	// Vetoing all of group 1 empties its map: connections hashed there take
	// the kernel's reuseport-hash fallback, group 0 keeps directed dispatch,
	// and nothing is dropped.
	for id := 64; id < 128; id++ {
		if err := c.SetWorkerAvailable(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if res := tick(g1); res.Passed != 0 || res.Bitmap != 0 {
		t.Fatalf("fully vetoed group still selects: %+v", res)
	}
	ns := kernel.NewNetStack(sim.NewEngine(1), kernel.WakeExclusiveLIFO)
	rg, err := ns.ListenReuseport(80, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachEBPF(rg); err != nil {
		t.Fatal(err)
	}
	const syns = 2000
	for i := uint32(0); i < syns; i++ {
		ns.DeliverSYN(kernel.FourTuple{SrcIP: i * 7, SrcPort: uint16(i), DstIP: i % 50, DstPort: 80}, nil)
	}
	queued := 0
	for _, s := range rg.Sockets() {
		queued += s.QueueLen()
	}
	if rg.ProgDispatched == 0 || rg.Fallbacks == 0 || rg.ProgDispatched+rg.Fallbacks != syns || queued != syns {
		t.Fatalf("vetoed group black-holed traffic: prog=%d fallbacks=%d errors=%d queued=%d",
			rg.ProgDispatched, rg.Fallbacks, rg.ProgErrors, queued)
	}
}

// Workers in real-goroutine deployments run their hooks concurrently with
// the control plane; under -race this pins that every policy field is
// synchronised at any fleet size.
func TestMultiGroupConcurrentPolicyFlips(t *testing.T) {
	c, hooks, now := multiGroupFixture(t)
	var wg sync.WaitGroup
	for _, id := range []int{0, 31, 63, 64, 70, 127} {
		wg.Add(1)
		go func(h *WorkerHook) {
			defer wg.Done()
			for i := int64(0); i < 500; i++ {
				h.LoopEnter(now + i)
				h.ScheduleAndSync(now + i)
			}
		}(hooks[id])
	}
	cfg := c.Config()
	for i := 0; i < 200; i++ {
		cfg.Order = FilterOrder(i % 4)
		cfg.ForceFallback = i%7 == 0
		cfg.ThetaFrac = float64(i%5) / 2
		if err := c.SetConfig(cfg); err != nil {
			t.Error(err)
		}
		if err := c.SetWorkerAvailable(70, i%2 == 0); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()

	// Settled policy: the last flips win on the next call of each group.
	setPolicy(t, c, func(cfg *Config) { cfg.ForceFallback, cfg.Order = false, OrderTimeOnly })
	if err := c.SetWorkerAvailable(70, false); err != nil {
		t.Fatal(err)
	}
	if res := hooks[64].ScheduleAndSync(now + 500); res.Passed != 63 || res.Bitmap.Has(70-64) {
		t.Fatalf("group 1 after concurrent flips: %+v", res)
	}
	if res := hooks[0].ScheduleAndSync(now + 500); res.Passed != 64 {
		t.Fatalf("group 0 after concurrent flips: %+v", res)
	}
}

// HangThreshold must exceed the sync quantum: a quantum's cached bitmap must
// not mask a hang. The quantum sits well inside the staleness the loop
// already tolerates, EpollTimeout.
func TestSyncQuantumValidation(t *testing.T) {
	cfg := DefaultConfig()
	if syncQuantum >= cfg.EpollTimeout {
		t.Fatalf("sync quantum %v not below EpollTimeout %v", syncQuantum, cfg.EpollTimeout)
	}
	cfg.HangThreshold = syncQuantum
	if err := cfg.Validate(); err == nil {
		t.Fatal("HangThreshold equal to the sync quantum accepted")
	}
	cfg.HangThreshold = 2 * syncQuantum
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// One hook may be shared by many goroutines — the real proxy's connections
// share their worker's — so its scheduler keeps no per-hook scratch. Under
// -race this pins that; the ledger must account for every call.
func TestWorkerHookSharedAcrossGoroutines(t *testing.T) {
	const goroutines, calls = 8, 400
	c, err := NewController(4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := c.NewWorkerHook(0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				now := int64(i*goroutines+g) * int64(syncQuantum) / 4 // a fresh quantum every few calls
				h.LoopEnter(now)
				h.EventsFetched(2)
				h.ScheduleAndSync(now)
				h.EventHandled()
				h.EventHandled()
			}
		}(g)
	}
	wg.Wait()
	if m := h.Metrics(); m.Busy != 0 {
		t.Fatalf("busy = %d after balanced fetches and handles", m.Busy)
	}
	st := c.Stats()
	if st.ScheduleCalls+st.Batched != goroutines*calls || st.Syncs != st.ScheduleCalls || st.ScheduleCalls == 0 {
		t.Fatalf("ledger lost calls: %+v, want %d recomputed or batched", st, goroutines*calls)
	}
}

// The batched fast path must not allocate (it sits in every worker's event
// loop).
func TestSyncBatchedPathZeroAlloc(t *testing.T) {
	c, err := NewController(4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := c.NewWorkerHook(0)
	h.LoopEnter(0)
	h.ScheduleAndSync(0)
	now := int64(1)
	if allocs := testing.AllocsPerRun(100, func() {
		h.ScheduleAndSync(now)
		now++
	}); allocs != 0 {
		t.Fatalf("batched schedule_and_sync allocates %v/op, want 0", allocs)
	}
}
