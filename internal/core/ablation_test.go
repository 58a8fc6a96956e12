package core

import (
	"testing"
	"time"

	"hermes/internal/shm"
)

func TestScheduleSingleWinnerPicksLeastLoaded(t *testing.T) {
	cfg := DefaultConfig()
	now := int64(time.Second)
	ms := freshMetrics(4, now)
	ms[0].Conn = 5
	ms[1].Conn = 2
	ms[2].Conn = 2
	ms[2].Busy = 3
	ms[3].Conn = 9
	// Worker 1 ties worker 2 on conns but has fewer pending events.
	res := Schedule(now, ms, cfg, OrderSingleWinner)
	if res.Passed != 1 || !res.Bitmap.Has(1) {
		t.Fatalf("single winner: %+v", res)
	}
	if res.Alive != 4 {
		t.Fatalf("alive = %d", res.Alive)
	}
}

func TestScheduleSingleWinnerSkipsHung(t *testing.T) {
	cfg := DefaultConfig()
	now := int64(time.Second)
	ms := freshMetrics(3, now)
	ms[0].Conn = 0 // best, but hung:
	ms[0].LoopEnterNS = now - int64(cfg.HangThreshold) - 1
	ms[1].Conn = 7
	ms[2].Conn = 4
	res := Schedule(now, ms, cfg, OrderSingleWinner)
	if !res.Bitmap.Has(2) || res.Passed != 1 {
		t.Fatalf("hung worker not skipped: %+v", res)
	}
	// All hung → empty.
	for i := range ms {
		ms[i].LoopEnterNS = now - int64(cfg.HangThreshold) - 1
	}
	if res := Schedule(now, ms, cfg, OrderSingleWinner); res.Passed != 0 {
		t.Fatalf("all-hung single winner: %+v", res)
	}
	// Degenerate inputs.
	if res := Schedule(now, nil, cfg, OrderSingleWinner); res.Passed != 0 {
		t.Fatal("nil metrics")
	}
	if res := Schedule(now, make([]shm.Metrics, 65), cfg, OrderSingleWinner); res.Passed != 0 {
		t.Fatal("oversized metrics")
	}
}

func TestControllerSingleWinnerPublishesOneBit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Order = OrderSingleWinner
	c, err := NewController(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(time.Second)
	hooks := make([]*WorkerHook, 4)
	for i := range hooks {
		hooks[i] = c.NewWorkerHook(i)
		hooks[i].LoopEnter(now)
		hooks[i].ConnOpened()
	}
	hooks[0].ConnOpened() // worker 0 now heaviest
	res := hooks[0].ScheduleAndSync(now)
	if res.Passed != 1 {
		t.Fatalf("single-winner published %d bits", res.Passed)
	}
	if res.Bitmap.Has(0) {
		t.Fatal("heaviest worker selected as single winner")
	}
	if got, _ := c.SelMap().Lookup(0); got != uint64(res.Bitmap) {
		t.Fatal("kernel map out of sync")
	}
}

func TestMultiGroupFilterOrderAndHookCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Order = OrderTimeOnly
	gc, err := New(96, cfg)
	if err != nil {
		t.Fatal(err)
	}

	h := gc.NewWorkerHook(70) // group 1, slot 6
	h.LoopEnter(100)
	h.EventsFetched(4)
	h.EventHandled()
	h.ConnOpened()
	h.ConnOpened()
	h.ConnClosed()
	h.EventsFetched(-3) // ignored

	// The metrics must land in group 1's table, slot 6.
	snap := gc.groups[1].wst.Snapshot(nil)
	m := snap[6]
	if m.LoopEnterNS != 100 || m.Busy != 3 || m.Conn != 1 {
		t.Fatalf("group 1 hook metrics: %+v", m)
	}
	// Group 0 untouched.
	for i, m := range gc.groups[0].wst.Snapshot(nil) {
		if m.Busy != 0 || m.Conn != 0 {
			t.Fatalf("group 0 slot %d polluted: %+v", i, m)
		}
	}

	// ScheduleAndSync publishes only the worker's own group.
	res := h.ScheduleAndSync(100)
	if res.Total != 32 { // group 1 of 96 workers spans 64..95 → 32 workers
		t.Fatalf("schedule total = %d, want 32", res.Total)
	}
	if v, _ := gc.SelMaps()[1].Lookup(0); v != uint64(res.Bitmap) {
		t.Fatal("group 1 selmap not synced")
	}
	if v, _ := gc.SelMap().Lookup(0); v != 0 {
		t.Fatal("group 0 selmap polluted")
	}
}
