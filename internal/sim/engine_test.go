package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var hits []int64
	e.At(10, func() {
		hits = append(hits, e.Now())
		e.After(5*time.Nanosecond, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(10, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should fail")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if e.Executed != 0 {
		t.Fatalf("Executed = %d, want 0", e.Executed)
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(10, func() {})
	e.Run()
	if tm.Cancel() {
		t.Fatal("cancel after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []int64
	for _, at := range []int64{5, 10, 15, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(10)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 5,10", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 || e.Now() != 100 {
		t.Fatalf("fired = %v, Now = %d", fired, e.Now())
	}
}

func TestRunUntilIdleAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("Now = %d, want 42", e.Now())
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(time.Millisecond)
	e.RunFor(time.Millisecond)
	if e.Now() != 2*int64(time.Millisecond) {
		t.Fatalf("Now = %d", e.Now())
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestNegativeAfterClamps(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		e.After(-time.Second, func() {}) // clamps to now
	})
	e.Run()
	if e.Now() != 10 {
		t.Fatalf("Now = %d", e.Now())
	}
}

func TestDeterministicRNG(t *testing.T) {
	a, b := NewEngine(7), NewEngine(7)
	for i := 0; i < 100; i++ {
		if a.Rand().Uint64() != b.Rand().Uint64() {
			t.Fatal("same-seed engines diverged")
		}
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine(1)
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("Pending after step = %d", e.Pending())
	}
}

// TestCancelRemovesEagerly verifies the heap-leak fix: a cancelled timer
// leaves the event queue immediately instead of lingering until popped.
func TestCancelRemovesEagerly(t *testing.T) {
	e := NewEngine(1)
	tms := make([]Timer, 100)
	for i := range tms {
		tms[i] = e.At(int64(i+1), func() {})
	}
	for i, tm := range tms {
		if i%2 == 0 {
			tm.Cancel()
		}
	}
	if e.Pending() != 50 {
		t.Fatalf("Pending = %d after cancelling half, want 50 (eager removal)", e.Pending())
	}
	e.Run()
	if e.Executed != 50 {
		t.Fatalf("Executed = %d, want 50", e.Executed)
	}
}

// Every event taken from the engine's slab is pending or back on the free
// list, whichever queue (ring, calendar, heap) it was filed in and whether it
// fired or was cancelled.
func TestLiveEventsArePending(t *testing.T) {
	e := NewEngine(1)
	check := func(when string) {
		t.Helper()
		if n, p := e.LiveEvents(), e.Pending(); n != p {
			t.Fatalf("%s: %d events out of the slab, %d pending", when, n, p)
		}
	}
	var tms []Timer
	for i := 0; i < 3*slabChunk; i++ {
		at := []int64{0, int64(i + 1), int64(i+1) * int64(calSpan)}[i%3] // ring, near, far
		tms = append(tms, e.At(at, func() {}))
	}
	check("scheduled")
	for i := 0; i < len(tms); i += 4 {
		tms[i].Cancel()
	}
	check("a quarter cancelled")
	for i := 0; i < slabChunk; i++ {
		e.Step()
	}
	check("some fired")
	e.Run()
	check("drained")
	if e.Pending() != 0 {
		t.Fatalf("%d events pending after Run", e.Pending())
	}
}

// logHandler is an object event: it appends its id to a shared log.
type logHandler struct {
	id  int
	log *[]int
}

func (h *logHandler) Fire() { *h.log = append(*h.log, h.id) }

// Objects (Schedule) and funcs (At, After) take the one event path, so they
// interleave in (at, seq) order on every queue: the ring (the current
// instant), the calendar (a near one) and the far heap, and an instant filed
// in the heap that later, nearer schedulings add to through the calendar.
func TestObjectAndFuncEventsShareOneOrder(t *testing.T) {
	e := NewEngine(1)
	type key struct {
		at int64
		id int
	}
	var got []int
	var want []key // scheduling order: id is the seq
	add := func(at int64) {
		id := len(want)
		want = append(want, key{at, id})
		switch id % 3 {
		case 0:
			e.Schedule(at, &logHandler{id: id, log: &got})
		case 1:
			e.At(at, func() { got = append(got, id) })
		default:
			e.After(time.Duration(at-e.Now()), func() { got = append(got, id) })
		}
	}
	far := 3 * calSpan
	for i := 0; i < 4; i++ {
		add(far)
		add(700)
		add(0)
		add(700 + calSpan/2)
	}
	// Just before far, schedule more of far (now near) and of the current
	// instant, by object and by func.
	e.At(far-300, func() {
		for i := 0; i < 3; i++ {
			add(far)
			add(e.Now())
		}
	})
	e.Run()
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) {
		t.Fatalf("fired %d events, scheduled %d", len(got), len(want))
	}
	for i, k := range want {
		if got[i] != k.id {
			t.Fatalf("event %d fired id %d, want %d (at %d): order %v", i, got[i], k.id, k.at, got)
		}
	}
}

// Scheduling allocates nothing once the engine's storage is warm, whether the
// event is an object or a func adapted by At, on the ring, the calendar or
// the far heap.
func TestScheduleAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	var n int
	h := &logHandler{log: new([]int)}
	fn := func() { n++ }
	for _, d := range []int64{0, 1000, 2 * calSpan} {
		e.Schedule(e.Now()+d, h) // warm the ring, the slab and the heap
		e.Step()
		*h.log = make([]int, 0, 4096)
		if a := testing.AllocsPerRun(1000, func() {
			e.Schedule(e.Now()+d, h)
			e.Step()
		}); a != 0 {
			t.Errorf("Schedule(now+%d, object): %.1f allocs per event, want 0", d, a)
		}
		if a := testing.AllocsPerRun(1000, func() {
			e.At(e.Now()+d, fn)
			e.Step()
		}); a != 0 {
			t.Errorf("At(now+%d, func): %.1f allocs per event, want 0", d, a)
		}
	}
}

// TestStaleHandleCannotCancelRecycledEvent guards the free list: a handle to
// a fired timer must not affect a new event that reuses its pooled storage.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine(1)
	stale := e.At(1, func() {})
	e.Step() // fires; event returns to the free list
	fired := false
	fresh := e.At(2, func() { fired = true }) // reuses the pooled event
	if stale.Cancel() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if stale.Pending() || stale.When() != 0 {
		t.Fatal("stale handle reports the recycled event as its own")
	}
	if !fresh.Pending() || fresh.When() != 2 {
		t.Fatal("fresh handle invalidated by stale one")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Cancel() || tm.Pending() || tm.When() != 0 {
		t.Fatal("zero Timer should be a no-op handle")
	}
}

// TestGoldenSequence locks the engine's observable semantics in one script:
// ordering across times, FIFO tie-break at one instant, cancellation (before
// and mid-run), nested scheduling, and clock reads inside callbacks.
func TestGoldenSequence(t *testing.T) {
	e := NewEngine(42)
	var trace []string
	hit := func(tag string) func() {
		return func() { trace = append(trace, fmt.Sprintf("%s@%d", tag, e.Now())) }
	}
	e.At(30, hit("c"))
	e.At(10, hit("a1"))
	e.At(10, hit("a2")) // same instant: FIFO after a1
	doomed := e.At(20, hit("never"))
	e.At(10, func() {
		trace = append(trace, fmt.Sprintf("a3@%d", e.Now()))
		doomed.Cancel() // cancel a pending event from inside a callback
		e.After(15, hit("nested"))
	})
	e.At(40, hit("d"))
	victim := e.At(35, hit("gone"))
	victim.Cancel() // cancel before the run starts
	e.Run()

	want := []string{"a1@10", "a2@10", "a3@10", "nested@25", "c@30", "d@40"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q (full: %v)", i, trace[i], want[i], trace)
		}
	}
	if e.Executed != 6 {
		t.Fatalf("Executed = %d, want 6", e.Executed)
	}
}

// TestHeapStressOrdering pushes a large shuffled schedule with interleaved
// cancellations through the calendar and checks global firing order.
func TestHeapStressOrdering(t *testing.T) {
	e := NewEngine(7)
	const n = 5000
	perm := e.Rand().Perm(n)
	tms := make([]Timer, n)
	for _, p := range perm {
		p := p
		tms[p] = e.At(int64(p)*3+1, func() {
			// no-op; order is checked via the engine clock below
		})
	}
	cancelled := 0
	for i := 0; i < n; i += 7 {
		if tms[i].Cancel() {
			cancelled++
		}
	}
	last := int64(-1)
	for e.Step() {
		if e.Now() < last {
			t.Fatalf("clock went backwards: %d after %d", e.Now(), last)
		}
		last = e.Now()
	}
	if int(e.Executed) != n-cancelled {
		t.Fatalf("Executed = %d, want %d", e.Executed, n-cancelled)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, func() {})
		e.Step()
	}
}

// BenchmarkEngineSchedule measures steady-state schedule+fire with a
// realistically deep heap (one pending timeout per simulated worker), the
// pattern the LB worker loops generate.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ { // standing timers keep the heap non-trivial
		e.After(time.Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, fn)
		e.Step()
	}
}

// BenchmarkEngineCancel measures the epoll-timeout pattern: schedule a
// timeout, race it, cancel it (eager heap removal + event reuse).
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(time.Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.After(time.Millisecond, fn)
		tm.Cancel()
	}
}

// BenchmarkEngineHold is the classic hold model on the near queue: with n
// standing timers, fire the earliest and schedule one more, a delay drawn from
// a fixed table of service-time-like gaps (exponential, mean 20 µs, under
// 1 ms). The depths are what a sim-table3 cell's near queue holds — median 6
// to 25, at most 47 — and 900, a far deeper one.
func BenchmarkEngineHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var delays [1024]time.Duration
	for i := range delays {
		delays[i] = time.Duration(min(1+rng.ExpFloat64()*20e3, 999e3))
	}
	fn := func() {}
	for _, n := range []int{8, 25, 64, 900} {
		b.Run(fmt.Sprintf("near=%d", n), func(b *testing.B) {
			e := NewEngine(1)
			for i := 0; i < n; i++ {
				e.After(delays[i%len(delays)], fn)
			}
			for i := 0; i < 4*n; i++ { // reach the steady spread before timing
				e.Step()
				e.After(delays[i%len(delays)], fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
				e.After(delays[i%len(delays)], fn)
			}
		})
	}
}

// BenchmarkEngineParkedTimers is the shape a hermes cell gives the queue: 256
// workers each parked on a 5 ms epoll timeout, and per iteration one of those
// timeouts armed and cancelled, one near event fired, and two events
// scheduled for the instant it fires at.
func BenchmarkEngineParkedTimers(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	const timeout = 5 * time.Millisecond
	var parked [256]Timer
	for i := range parked {
		parked[i] = e.After(timeout, fn)
		e.RunFor(timeout / 256)
	}
	near := func() {
		e.After(0, fn)
		e.After(0, fn)
	}
	iter := func(i int) {
		w := i % len(parked)
		parked[w].Cancel()
		parked[w] = e.After(timeout, fn)
		e.After(time.Microsecond, near)
		e.Step()
		e.Step()
		e.Step()
	}
	for i := range parked { // grow the ring and the free list before timing
		iter(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter(i)
	}
}
