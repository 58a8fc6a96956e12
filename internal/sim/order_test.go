package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// The engine's contract is one sentence — events fire in (at, seq) order —
// and its queue is three structures. orderProgram runs a byte string as a
// program of At / After(0) / After(d) / Cancel / Step / RunUntil calls, bursts
// of one instant and cancellations of the earliest event, issued from the
// driver and from inside handlers, against both the engine and a
// reference that is nothing but that sentence: a slice scanned for its
// (at, seq) minimum. Every fired handler checks itself against the
// reference's next event and the clock; every driver op checks Pending,
// Executed, Now and the handles it touched.

type refEvent struct {
	id  int
	at  int64
	seq int
}

type orderProgram struct {
	t    *testing.T
	prog []byte
	pc   int

	eng    *Engine
	timers []Timer // by event id, kept after the event is gone: stale handles get exercised

	ref    []refEvent // unordered; the minimum is found by scanning
	refNow int64
	lastAt int64 // the instant most recently scheduled
	seq    int
	fired  uint64
}

func (p *orderProgram) next() int {
	if p.pc >= len(p.prog) {
		return 0
	}
	b := p.prog[p.pc]
	p.pc++
	return int(b)
}

// delay draws a delay that lands on every queue, on both sides of the
// near/far boundary wherever the program put it, and on the calendar's
// geometry: both sides of a bucket edge and of its span, a few spans ahead (the
// bucket index wraps round), and the instant scheduled last — from a later
// clock, so one instant is queued in the heap and in the calendar at once.
func (p *orderProgram) delay() int64 {
	h := p.eng.farHorizon
	now := p.eng.Now()
	w := int64(1) << bucketShift
	switch b := p.next(); b % 16 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return int64(b)
	case 3:
		return clampDelay(h - 1)
	case 4:
		return clampDelay(h)
	case 5:
		return clampDelay(h + 1)
	case 6:
		return int64(5 * time.Millisecond)
	case 7:
		return int64(b) * 1000
	case 8:
		return w - 1
	case 9:
		return w
	case 10:
		return w + 1
	case 11:
		return (now/w+1)*w - now // the next bucket edge
	case 12:
		return calSpan - 1 - int64(b>>4%3)*w
	case 13:
		return calSpan + int64(b>>4%3) - 1
	case 14:
		return calSpan * int64(1+b>>4%4)
	default:
		return max(p.lastAt-now, 0)
	}
}

// clampDelay keeps a boundary-relative delay schedulable when the boundary
// is 0 or +∞.
func clampDelay(d int64) int64 {
	if d < 0 || d > int64(time.Hour) {
		return int64(time.Hour)
	}
	return d
}

func (p *orderProgram) refMin() int {
	m := -1
	for i, e := range p.ref {
		if m < 0 || e.at < p.ref[m].at || (e.at == p.ref[m].at && e.seq < p.ref[m].seq) {
			m = i
		}
	}
	return m
}

func (p *orderProgram) refFind(id int) int {
	for i, e := range p.ref {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (p *orderProgram) refRemove(i int) {
	p.ref[i] = p.ref[len(p.ref)-1]
	p.ref = p.ref[:len(p.ref)-1]
}

// schedule files one event d from now in both worlds. useAfter picks the
// entry point; the handler runs `nested` more ops when it fires.
func (p *orderProgram) schedule(d int64, useAfter bool) {
	id := len(p.timers)
	nested := p.next() % 3
	at := p.eng.Now() + d
	p.lastAt = at
	fn := func() { p.fire(id, nested) }
	var tm Timer
	if useAfter {
		tm = p.eng.After(time.Duration(d), fn)
	} else {
		tm = p.eng.At(at, fn)
	}
	p.seq++
	p.ref = append(p.ref, refEvent{id: id, at: at, seq: p.seq})
	p.timers = append(p.timers, tm)
	if !tm.Pending() || tm.When() != at {
		p.t.Fatalf("event %d: fresh handle Pending=%v When=%d, want true, %d", id, tm.Pending(), tm.When(), at)
	}
}

func (p *orderProgram) cancel() {
	if len(p.timers) == 0 {
		return
	}
	p.cancelID(p.next() % len(p.timers))
}

// cancelMin cancels the earliest pending event — the one the engine has
// cached — so the next step must find the new earliest.
func (p *orderProgram) cancelMin() {
	if m := p.refMin(); m >= 0 {
		p.cancelID(p.ref[m].id)
	}
}

// burst schedules two to five events for one instant: one bucket, fired in
// the order they were scheduled.
func (p *orderProgram) burst() {
	d := p.delay()
	for n := 2 + p.next()%4; n > 0; n-- {
		p.schedule(d, n%2 == 0)
	}
}

func (p *orderProgram) cancelID(id int) {
	i := p.refFind(id)
	tm := p.timers[id]
	if got, want := tm.Pending(), i >= 0; got != want {
		p.t.Fatalf("event %d: Pending = %v, reference says %v", id, got, want)
	}
	if got, want := tm.Cancel(), i >= 0; got != want {
		p.t.Fatalf("event %d: Cancel = %v, reference says %v", id, got, want)
	}
	if i >= 0 {
		p.refRemove(i)
	}
	if tm.Pending() || tm.When() != 0 || tm.Cancel() {
		p.t.Fatalf("event %d: handle still live after Cancel", id)
	}
}

// fire is every event's handler: it must be the reference's next event, at
// the reference's time, and may schedule and cancel before it returns.
func (p *orderProgram) fire(id, nested int) {
	m := p.refMin()
	if m < 0 {
		p.t.Fatalf("event %d fired at %d with an empty reference", id, p.eng.Now())
	}
	want := p.ref[m]
	if want.id != id || want.at != p.eng.Now() {
		p.t.Fatalf("fired event %d at %d, reference expects event %d at %d", id, p.eng.Now(), want.id, want.at)
	}
	p.refRemove(m)
	p.refNow = want.at
	p.fired++
	if tm := p.timers[id]; tm.Pending() || tm.When() != 0 {
		p.t.Fatalf("event %d: handle live inside its own handler", id)
	}
	for i := 0; i < nested; i++ {
		switch p.next() % 6 {
		case 0:
			p.schedule(0, true) // the same-instant trampoline
		case 1:
			p.schedule(p.delay(), true)
		case 2:
			p.schedule(p.delay(), false)
		case 3:
			p.cancel()
		case 4:
			p.cancelMin()
		case 5:
			p.burst()
		}
	}
}

func (p *orderProgram) check(op string) {
	if p.eng.Now() != p.refNow || p.eng.Pending() != len(p.ref) || p.eng.Executed != p.fired {
		p.t.Fatalf("after %s (pc %d): Now=%d Pending=%d Executed=%d, reference %d, %d, %d",
			op, p.pc, p.eng.Now(), p.eng.Pending(), p.eng.Executed, p.refNow, len(p.ref), p.fired)
	}
}

// runOrderProgram interprets prog. Its first byte places the near/far
// boundary: the calendar's span, 0 (everything far), +∞ (the span decides
// alone), or a few nanoseconds, so that small delays straddle it.
func runOrderProgram(t *testing.T, prog []byte) {
	p := &orderProgram{t: t, prog: prog, eng: NewEngine(1)}
	switch p.next() % 4 {
	case 1:
		p.eng.farHorizon = 0
	case 2:
		p.eng.farHorizon = math.MaxInt64
	case 3:
		p.eng.farHorizon = 3
	}
	for p.pc < len(p.prog) {
		switch p.next() % 10 {
		case 0, 1:
			p.schedule(p.delay(), false)
			p.check("At")
		case 2:
			p.schedule(0, true)
			p.check("After(0)")
		case 3:
			p.schedule(p.delay(), true)
			p.check("After")
		case 4:
			p.cancel()
			p.check("Cancel")
		case 5, 6:
			want := len(p.ref) > 0
			if got := p.eng.Step(); got != want {
				t.Fatalf("Step = %v with %d events in the reference", got, len(p.ref))
			}
			p.check("Step")
		case 7:
			// Sometimes a deadline already behind the clock: fires nothing,
			// moves nothing, not even this instant's ring.
			deadline := p.eng.Now() + p.delay() - int64(p.next()%3)
			p.eng.RunUntil(deadline)
			if m := p.refMin(); m >= 0 && p.ref[m].at <= deadline {
				t.Fatalf("RunUntil(%d) left event %d at %d unfired", deadline, p.ref[m].id, p.ref[m].at)
			}
			if p.refNow < deadline {
				p.refNow = deadline
			}
			p.check("RunUntil")
		case 8:
			p.cancelMin()
			p.check("cancel the earliest")
		case 9:
			p.burst()
			p.check("burst")
		}
	}
	p.eng.Run()
	p.check("Run")
	if len(p.ref) != 0 {
		t.Fatalf("Run returned with %d events in the reference", len(p.ref))
	}
	for id, tm := range p.timers {
		if tm.Pending() || tm.When() != 0 || tm.Cancel() {
			t.Fatalf("event %d: handle live after the run", id)
		}
	}
}

// orderSeeds are hand-written programs for the corners: a same-instant event
// cancelled while queued, a stale handle cancelled after its storage was
// recycled, delays exactly on the boundary, and each boundary override. The
// calendar's corners — bucket and span edges, a slot that would alias the
// clock's, index wrap-round, one instant in the heap and the calendar, a
// burst in one bucket, the cached minimum cancelled — are the checked-in
// corpus under testdata/fuzz/FuzzEngineOrder, which go test runs too.
var orderSeeds = [][]byte{
	{0, 2, 0, 2, 0, 4, 0, 5, 5},                                  // ring, ring, cancel the first, step twice
	{0, 0, 1, 0, 5, 0, 1, 0, 4, 0, 5},                            // fire, reuse the pooled event, cancel through the stale handle
	{0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 7, 6, 0},                      // h-1, h, h+1, then RunUntil(5ms)
	{1, 0, 1, 2, 2, 0, 0, 0, 6, 1, 3, 0, 5, 5, 5},                // boundary 0, a handler that schedules
	{2, 0, 6, 2, 3, 6, 1, 7, 6, 0, 4, 1},                         // boundary +∞
	{3, 0, 2, 2, 0, 3, 2, 0, 4, 2, 3, 5, 1, 7, 2, 1, 5, 5, 5, 5}, // boundary 3 ns
	{0, 2, 0, 7, 0, 1, 5},                                        // RunUntil(-1) with the ring occupied, then step
}

func TestEngineDifferential(t *testing.T) {
	for _, prog := range orderSeeds {
		runOrderProgram(t, prog)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		prog := make([]byte, 16+rng.Intn(400))
		rng.Read(prog)
		runOrderProgram(t, prog)
	}
}

func FuzzEngineOrder(f *testing.F) {
	for _, prog := range orderSeeds {
		f.Add(prog)
	}
	f.Fuzz(runOrderProgram)
}

// TestRingGrowthAndHoles covers what random programs rarely reach: the ring
// doubling with cancelled slots in it, and arm-and-cancel at one instant
// reusing the slots instead of growing the ring.
func TestRingGrowthAndHoles(t *testing.T) {
	e := NewEngine(1)
	var got, want []int
	e.At(10, func() {
		var tms []Timer
		for i := 0; i < 100; i++ {
			i := i
			tms = append(tms, e.After(0, func() { got = append(got, i) }))
			if i%3 == 1 {
				tms[i-1].Cancel()
			}
		}
		for i := 0; i < 100; i++ {
			if i%3 != 0 || i == 99 {
				want = append(want, i)
			}
		}
		if e.Pending() != len(want) {
			t.Fatalf("Pending = %d, want %d", e.Pending(), len(want))
		}
	})
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}

	size := len(e.ring)
	for i := 0; i < 10*size; i++ {
		e.After(0, func() {}).Cancel()
	}
	if len(e.ring) != size || e.Pending() != 0 {
		t.Fatalf("arm-and-cancel grew the ring from %d to %d slots (Pending %d)", size, len(e.ring), e.Pending())
	}
}
