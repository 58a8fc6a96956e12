package faults

import (
	"reflect"
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/sim"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// counterTotal reads a registered counter (or the sum of a counter vec) back
// out of a registry snapshot.
func counterTotal(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	ms := reg.Snapshot().Get(name)
	if ms == nil {
		t.Fatalf("metric %q not registered", name)
	}
	return ms.Total()
}

func faultSpans(tr *tracing.Tracer) (n int) {
	for _, s := range tr.Spans() {
		if s.Kind == tracing.KindFault {
			n++
		}
	}
	return n
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "hang@500ms:w3:dur=300ms;crash@1s:restart=200ms:drop;" +
		"slow@1.5s:dur=1s:x=8;shrinkq@2s:w1:dur=100ms:cap=4;" +
		"syncstall@2.5s:dur=50ms;probeloss@3s:dur=1s:p=0.5"
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 6 {
		t.Fatalf("parsed %d events, want 6", len(s.Events))
	}
	again, err := ParseSpec(s.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s.String(), err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("round trip drifted:\n%v\n%v", s, again)
	}
}

func TestParseSpecSortsByTime(t *testing.T) {
	s, err := ParseSpec("crash@2s;hang@1s:dur=10ms")
	if err != nil {
		t.Fatal(err)
	}
	if s.Events[0].Kind != Hang || s.Events[1].Kind != Crash {
		t.Fatalf("events not sorted by time: %v", s)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"explode@1s",           // unknown kind
		"restart@1s",           // recovery kinds are not schedulable
		"detect@1s",            //
		"hang1s",               // missing @
		"hang@oops:dur=1s",     // bad time
		"hang@1s",              // hang needs dur
		"slow@1s:dur=1s",       // slow needs x
		"shrinkq@1s",           // shrinkq needs cap
		"probeloss@1s",         // probeloss needs p
		"probeloss@1s:p=1.5",   // probability out of range
		"hang@1s:dur=1s:boing", // unknown option
		"crash@1s:w-2",         // bad worker
		"slow@1s:x=NaN",        // non-finite multiplier
		"slow@1s:x=Inf",        //
		"probeloss@1s:p=NaN",   // non-finite probability
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// FuzzParseSpec: the parser behind hermes-lb -faults never panics, and every
// schedule it accepts round-trips: ParseSpec(s.String()) gives s back. The
// seed corpus (testdata/fuzz/FuzzParseSpec) holds the docs/FAULTS.md
// examples, the two schedules the faults experiment prints, and the
// non-finite specs ParseSpec must refuse.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("%q parsed, but its String %q does not: %v", spec, s.String(), err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("%q: round trip through %q drifted:\n%+v\n%+v", spec, s.String(), s, again)
		}
	})
}

func TestRandomScheduleDeterministic(t *testing.T) {
	a := RandomSchedule(42, 20, 8, time.Second)
	b := RandomSchedule(42, 20, 8, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := RandomSchedule(43, 20, 8, time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	for i, ev := range a.Events {
		if int(ev.Kind) >= numSchedulable {
			t.Fatalf("event %d has non-schedulable kind %v", i, ev.Kind)
		}
		if i > 0 && ev.AtNS < a.Events[i-1].AtNS {
			t.Fatalf("schedule not time-sorted at %d", i)
		}
	}
}

func testLB(t *testing.T, mode l7lb.Mode, workers int) (*sim.Engine, *l7lb.LB) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := l7lb.DefaultConfig(mode)
	cfg.Workers = workers
	lb, err := l7lb.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	return eng, lb
}

func openConns(eng *sim.Engine, lb *l7lb.LB, n int) {
	for i := 0; i < n; i++ {
		i := i
		eng.At(eng.Now()+int64(i)*int64(100*time.Microsecond), func() {
			lb.NS.DeliverSYN(kernel.FourTuple{
				SrcIP: uint32(i), SrcPort: uint16(3000 + i), DstIP: 1, DstPort: 8080,
			}, nil)
		})
	}
}

func TestInjectorAppliesScheduledFaults(t *testing.T) {
	eng, lb := testLB(t, l7lb.ModeHermes, 4)
	openConns(eng, lb, 12)
	eng.RunUntil(int64(10 * time.Millisecond))

	sched, err := ParseSpec(
		"hang@5ms:w0:dur=20ms;crash@5ms:w1:restart=20ms:drop;" +
			"slow@5ms:w2:dur=20ms:x=4;shrinkq@5ms:w3:dur=20ms:cap=1;" +
			"syncstall@5ms:dur=20ms;probeloss@5ms:dur=20ms:p=1")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(lb, sched, 1)
	reg, tracer := telemetry.NewRegistry(), tracing.New(tracing.Config{})
	inj.Observe(reg, tracer)
	inj.Start()
	eng.RunUntil(eng.Now() + int64(10*time.Millisecond))

	// Mid-window: every fault is in force.
	if !lb.Workers[0].Hung() {
		t.Error("w0 not hung")
	}
	if !lb.Workers[1].Crashed() {
		t.Error("w1 not crashed")
	}
	if m := lb.Workers[2].CostMultiplier(); m != 4 {
		t.Errorf("w2 cost multiplier %v, want 4", m)
	}
	if fu := lb.Ctl.SelMap().FailedUpdates.Load(); fu == 0 {
		t.Error("sync stall failed no selmap updates")
	}
	if inj.Injected != 6 || inj.Skipped != 0 {
		t.Errorf("injected=%d skipped=%d, want 6/0", inj.Injected, inj.Skipped)
	}

	eng.RunUntil(eng.Now() + int64(30*time.Millisecond))
	// Past the windows: everything reverted, the crash restarted.
	if lb.Workers[0].Hung() {
		t.Error("w0 still hung")
	}
	if lb.Workers[1].Crashed() || lb.Workers[1].Restarts != 1 {
		t.Errorf("w1 not restarted: crashed=%v restarts=%d",
			lb.Workers[1].Crashed(), lb.Workers[1].Restarts)
	}
	if m := lb.Workers[2].CostMultiplier(); m != 1 {
		t.Errorf("w2 cost multiplier %v not reverted", m)
	}
	if inj.Restarts != 1 {
		t.Errorf("injector restarts %d, want 1", inj.Restarts)
	}
	// The one attach call saw all of it: a counter slot per fault, the
	// restart, and an instant for each on the flight recorder.
	if got := counterTotal(t, reg, "faults.injected"); got != 6 {
		t.Errorf("faults.injected = %d, want 6", got)
	}
	if got := counterTotal(t, reg, "faults.worker.restarts"); got != 1 {
		t.Errorf("faults.worker.restarts = %d, want 1", got)
	}
	if got := faultSpans(tracer); got != 7 {
		t.Errorf("%d fault instants traced, want 7 (6 faults + 1 restart)", got)
	}
}

func TestInjectorMostLoadedVictim(t *testing.T) {
	eng, lb := testLB(t, l7lb.ModeExclusive, 4)
	openConns(eng, lb, 16)
	eng.RunUntil(int64(10 * time.Millisecond))

	var want *l7lb.Worker
	for _, w := range lb.Workers {
		if want == nil || w.OpenConns() > want.OpenConns() {
			want = w
		}
	}
	sched, _ := ParseSpec("hang@1ms:dur=5ms")
	inj := NewInjector(lb, sched, 1)
	inj.Start()
	eng.RunUntil(eng.Now() + int64(2*time.Millisecond))
	if !want.Hung() {
		t.Fatalf("most-loaded worker %d (conns=%d) not the hang victim", want.ID, want.OpenConns())
	}
}

// The 96-worker case hangs a worker of the second group: the watchdog scans
// every group's table.
func TestWatchdogDetectsAndRestartsHungWorker(t *testing.T) {
	t.Run("4w", func(t *testing.T) { testWatchdogRecovers(t, 4, 2) })
	t.Run("96w", func(t *testing.T) { testWatchdogRecovers(t, 96, 70) })
}

func testWatchdogRecovers(t *testing.T, workers, victimID int) {
	eng, lb := testLB(t, l7lb.ModeHermes, workers)
	openConns(eng, lb, 8)
	eng.RunUntil(int64(10 * time.Millisecond))

	dog := NewWatchdog(lb, time.Millisecond)
	if dog == nil {
		t.Fatal("hermes LB must have a watchdog")
	}
	dog.AutoRestart = true
	dog.RestartDelay = 5 * time.Millisecond
	reg, tracer := telemetry.NewRegistry(), tracing.New(tracing.Config{})
	dog.Observe(reg, tracer)
	dog.Start(500 * time.Millisecond)

	victim := lb.Workers[victimID]
	victim.Hang(100 * time.Millisecond)
	eng.RunUntil(eng.Now() + int64(60*time.Millisecond))

	if dog.Detections == 0 {
		t.Fatal("watchdog never detected the hang")
	}
	if dog.Restarts == 0 || victim.Restarts != 1 {
		t.Fatalf("watchdog did not restart the victim: dog=%d victim=%d",
			dog.Restarts, victim.Restarts)
	}
	if victim.Crashed() || victim.Hung() {
		t.Fatal("victim not healthy after watchdog recovery")
	}
	// Detection must wait out the hang threshold but not much longer.
	if d := dog.DetectionNS[0]; time.Duration(d) < dog.Threshold {
		t.Fatalf("detected at staleness %v, below threshold %v", time.Duration(d), dog.Threshold)
	}
	if got := counterTotal(t, reg, "faults.watchdog.detections"); got != int64(dog.Detections) {
		t.Errorf("faults.watchdog.detections = %d, watchdog counted %d", got, dog.Detections)
	}
	if got := counterTotal(t, reg, "faults.watchdog.restarts"); got != int64(dog.Restarts) {
		t.Errorf("faults.watchdog.restarts = %d, watchdog counted %d", got, dog.Restarts)
	}
	if got, want := faultSpans(tracer), int(dog.Detections+dog.Restarts); got != want {
		t.Errorf("%d fault instants traced, want %d", got, want)
	}
	// A healthy system must not retrigger.
	before := dog.Detections
	eng.RunUntil(eng.Now() + int64(100*time.Millisecond))
	if dog.Detections != before {
		t.Fatalf("watchdog flagged healthy workers: %d -> %d", before, dog.Detections)
	}
}

func TestWatchdogNilForBaselines(t *testing.T) {
	_, lb := testLB(t, l7lb.ModeExclusive, 2)
	dog := NewWatchdog(lb, time.Millisecond)
	if dog != nil {
		t.Fatal("baseline modes have no WST; watchdog must be nil")
	}
	dog.Start(time.Second) // must not panic, and neither must attaching observers
	dog.Observe(telemetry.NewRegistry(), tracing.New(tracing.Config{}))
}

func TestStaleSelmapFallsBackToHash(t *testing.T) {
	eng, lb := testLB(t, l7lb.ModeHermes, 4)
	openConns(eng, lb, 8)
	eng.RunUntil(int64(10 * time.Millisecond))

	sched, _ := ParseSpec("syncstall@1ms:dur=50ms")
	inj := NewInjector(lb, sched, 1)
	inj.StaleFallback = 5 * time.Millisecond
	inj.Start()
	eng.RunUntil(eng.Now() + int64(20*time.Millisecond))

	// Updates have been failing past the staleness bound: lookups read an
	// empty bitmap, so new connections must still land via hash fallback.
	if v, ok := lb.Ctl.SelMap().Lookup(0); !ok || v != 0 {
		t.Fatalf("stale map should read empty: v=%d ok=%v", v, ok)
	}
	accepted := func() (n uint64) {
		for _, w := range lb.Workers {
			n += w.Accepted
		}
		return n
	}
	before := accepted()
	openConns(eng, lb, 8)
	eng.RunUntil(eng.Now() + int64(20*time.Millisecond))
	if accepted() == before {
		t.Fatal("no connections accepted during the stale-bitmap window")
	}
}
