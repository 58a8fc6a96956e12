package core

import (
	"testing"
	"time"
)

// The availability veto is ANDed onto Algorithm 1's result: vetoed workers
// vanish from the published bitmap immediately (mid-quantum — the veto bumps
// the policy generation, invalidating the sync cache) and come back when
// restored. The all-ones default changes nothing.
func TestControllerAvailabilityVeto(t *testing.T) {
	ctl, err := NewController(3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ctl.AvailableMask(0) != ^uint64(0) {
		t.Fatalf("default mask = %b, want all ones", ctl.AvailableMask(0))
	}
	now := int64(time.Second)
	hooks := []*WorkerHook{ctl.NewWorkerHook(0), ctl.NewWorkerHook(1), ctl.NewWorkerHook(2)}
	for _, h := range hooks {
		h.LoopEnter(now)
	}
	res := hooks[0].ScheduleAndSync(now)
	if res.Passed != 3 {
		t.Fatalf("baseline schedule: %+v", res)
	}

	if err := ctl.SetWorkerAvailable(1, false); err != nil {
		t.Fatal(err)
	}
	// Same instant, inside the sync quantum: the veto must still take effect
	// because it invalidates the cached result.
	res = hooks[0].ScheduleAndSync(now)
	if res.Bitmap.Has(1) || res.Passed != 2 {
		t.Fatalf("vetoed worker still selected: %+v", res)
	}
	if bm, _ := ctl.SelMap().Lookup(0); bm&(1<<1) != 0 {
		t.Fatalf("published selmap still has vetoed worker: %b", bm)
	}

	if err := ctl.SetWorkerAvailable(1, true); err != nil {
		t.Fatal(err)
	}
	res = hooks[0].ScheduleAndSync(now)
	if !res.Bitmap.Has(1) || res.Passed != 3 {
		t.Fatalf("restored worker missing: %+v", res)
	}

	// Vetoing everyone publishes the empty set — the kernel hash fallback —
	// rather than wedging on a stale bitmap.
	for i := 0; i < 3; i++ {
		if err := ctl.SetWorkerAvailable(i, false); err != nil {
			t.Fatal(err)
		}
	}
	res = hooks[0].ScheduleAndSync(now)
	if res.Passed != 0 || res.Bitmap != 0 {
		t.Fatalf("all-vetoed schedule: %+v", res)
	}

	if err := ctl.SetWorkerAvailable(3, false); err == nil {
		t.Error("out-of-range veto accepted")
	}
	if err := ctl.SetWorkerAvailable(-1, false); err == nil {
		t.Error("negative worker veto accepted")
	}
}
