package proxy

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/faults"
	"hermes/internal/tracing"
)

// faultTargets is the proxy's workers as the fault injector sees them.
func faultTargets(p *Proxy) []faults.Worker {
	ws := make([]faults.Worker, len(p.workers))
	for i, w := range p.workers {
		ws[i] = w
	}
	return ws
}

// waitInjected waits until n faults have been counted in faults.injected.
func waitInjected(t *testing.T, p *Proxy, n int64) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if row := p.Registry().Snapshot().Get("faults.injected"); row != nil && row.Total() >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d fault(s) not injected within 1s", n)
		}
	}
}

// An injected hang stops the victim's heartbeat: it leaves the bitmap within
// HangThreshold plus a heartbeat (one more for a peer's pass to publish it),
// and comes back once released.
func TestHungWorkerLeavesBitmap(t *testing.T) {
	cfg := testConfig(newStubUpstream(t))
	cfg.Workers = 4
	const hangFor = 150 * time.Millisecond
	tracer := tracing.New(tracing.Config{Concurrent: true, MaxSpans: 1 << 10})
	p := startProxy(t, cfg, WithTracer(tracer), WithFaults(faults.Schedule{Events: []faults.Event{
		{Kind: faults.Hang, AtNS: 0, Worker: 1, DurNS: int64(hangFor)},
	}}))
	pol := p.Controller().Config()
	bitmap := func() uint64 { return p.Controller().Selection(0) }
	waitFor := func(want uint64, within time.Duration) time.Duration {
		t.Helper()
		start := time.Now()
		for bitmap() != want {
			if time.Since(start) > within {
				t.Fatalf("bitmap = %04b, want %04b within %v", bitmap(), want, within)
			}
			time.Sleep(time.Millisecond)
		}
		return time.Since(start)
	}
	// 25 ms of slack for a loaded CI host's timers.
	out := waitFor(0b1101, pol.HangThreshold+2*pol.EpollTimeout+25*time.Millisecond)
	back := waitFor(0b1111, hangFor+2*pol.EpollTimeout+25*time.Millisecond)
	t.Logf("hung worker excluded after %v, readmitted %v later", out, back)

	// The artefacts say which worker was hung, and when: one faults.injected
	// count in the hang slot, one fault instant on the victim's track.
	row := p.Registry().Snapshot().Get("faults.injected")
	if row == nil || row.Total() != 1 || row.Values[faults.Hang] != 1 {
		t.Errorf("faults.injected = %+v, want one hang", row)
	}
	var instants []tracing.Span
	for _, s := range tracer.Spans() {
		if s.Kind == tracing.KindFault {
			instants = append(instants, s)
		}
	}
	if len(instants) != 1 || instants[0].Worker != 1 || instants[0].Arg != int64(faults.Hang) || instants[0].Arg2 != int64(hangFor) {
		t.Errorf("fault instants = %+v, want one hang of %v on worker 1", instants, hangFor)
	}
}

// An unpinned fault lands by the injector's one rule, the simulator's: on the
// worker with the most open connections (WST Conn), ties toward the lowest
// id, never on a crashed worker. Requests in flight and requests handled do
// not count, a hung worker stays a candidate, and a fault with no live worker
// to hit, or pinned to a crashed one, is skipped. The test fires the events
// itself, one at a time.
func TestFaultVictimRule(t *testing.T) {
	cfg := testConfig(newStubUpstream(t))
	cfg.Workers = 4
	p := startProxy(t, cfg)
	sched, err := faults.ParseSpec("hang@0s:dur=1h;crash@0s;hang@0s:dur=1h;hang@0s:w2:dur=1h;" +
		"crash@0s;crash@0s;crash@0s;hang@0s:dur=1h")
	if err != nil {
		t.Fatal(err)
	}
	var due []func()
	inj, err := faults.NewWorkerInjector(faultTargets(p), sched, func() int64 { return time.Now().UnixNano() },
		func(_ time.Duration, fn func()) { due = append(due, fn) })
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	fire := func() { due[0](); due = due[1:] }
	hung := func(id int) bool { return p.workers[id].stallUntilNS.Load() > time.Now().UnixNano() }

	fire()
	if !hung(0) || hung(1) || hung(2) || hung(3) {
		t.Fatal("all tied: the hang missed worker 0")
	}
	for id, n := range []int{0, 1, 3, 3} {
		for i := 0; i < n; i++ {
			p.workers[id].hook.ConnOpened()
		}
	}
	p.workers[1].hook.EventsFetched(10) // busy but fewer connections
	p.workers[1].handled.Add(100)
	fire()
	if !p.workers[2].Crashed() {
		t.Fatal("the crash missed worker 2 (most open connections, lowest id of the tie)")
	}
	fire()
	if !hung(3) {
		t.Fatal("the hang missed worker 3 (worker 2 is crashed)")
	}
	fire() // pinned to crashed worker 2: skipped
	for i, want := range []int{3, 1, 0} {
		fire()
		if !p.workers[want].Crashed() {
			t.Fatalf("crash %d missed worker %d", i, want)
		}
	}
	fire() // every worker crashed: skipped
	if inj.Injected != 6 || inj.Skipped != 2 {
		t.Fatalf("injected %d, skipped %d; want 6 and 2", inj.Injected, inj.Skipped)
	}
}

// Overlapping slow faults on one worker compose as in the simulator: the
// first one's expiry leaves the second in force until its own window ends,
// with different factors or equal ones.
func TestProxyOverlappingSlowdowns(t *testing.T) {
	for _, first := range []float64{4, 2} {
		t.Run(fmt.Sprintf("x=%v,x=2", first), func(t *testing.T) {
			t.Parallel()
			const window, offset = 400 * time.Millisecond, 200 * time.Millisecond
			start := time.Now()
			p := startProxy(t, testConfig(newStubUpstream(t)), WithFaults(faults.Schedule{Events: []faults.Event{
				{Kind: faults.Slow, Worker: 0, Factor: first, DurNS: int64(window)},
				{Kind: faults.Slow, AtNS: int64(offset), Worker: 0, Factor: 2, DurNS: int64(window)},
			}}))
			// Halfway between the first window's end and the second's.
			time.Sleep(time.Until(start.Add(window + offset/2)))
			if got, want := time.Duration(p.workers[0].delay.Load()), 5*time.Millisecond; got != want {
				t.Fatalf("delay %v after the first slowdown expired, want the second's %v", got, want)
			}
			deadline := start.Add(offset + window + time.Second)
			for p.workers[0].delay.Load() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("delay %v long after both windows", time.Duration(p.workers[0].delay.Load()))
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// Fault timers end at Shutdown: a hang due after the proxy closed never
// fires, and a slowdown's pending expiry is stopped with it.
func TestFaultTimersEndAtShutdown(t *testing.T) {
	p, err := New(testConfig(newStubUpstream(t)), WithFaults(faults.Schedule{Events: []faults.Event{
		{Kind: faults.Slow, Worker: 0, Factor: 2, DurNS: int64(time.Hour)},
		{Kind: faults.Hang, AtNS: int64(150 * time.Millisecond), Worker: 1, DurNS: int64(time.Second)},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); p.workers[0].delay.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the slow fault at 0s never fired")
		}
	}
	p.Close()
	time.Sleep(400 * time.Millisecond)
	if row := p.Registry().Snapshot().Get("faults.injected"); row == nil || row.Values[faults.Hang] != 0 {
		t.Errorf("faults.injected = %+v after Close, want no hang", row)
	}
	if until := p.workers[1].stallUntilNS.Load(); until != 0 {
		t.Errorf("worker 1 hung until %v after Close", time.Unix(0, until))
	}
	if p.inj.Injected != 1 || p.inj.Skipped != 0 {
		t.Errorf("injector applied %d and skipped %d faults, want the slow one alone", p.inj.Injected, p.inj.Skipped)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, tm := range p.faultTimers {
		if tm.Stop() {
			t.Errorf("fault timer %d of %d still armed after Close", i, len(p.faultTimers))
		}
	}
}

// A fault the real proxy cannot inject is refused when the proxy is built,
// by name, and a proxy without a schedule registers no fault row.
func TestUnsupportedFaultRefusedAtNew(t *testing.T) {
	cfg := testConfig(newStubUpstream(t))
	for _, kind := range []faults.Kind{faults.ShrinkQueue, faults.SyncStall, faults.ProbeLoss} {
		p, err := New(cfg, WithFaults(faults.Schedule{Events: []faults.Event{
			{Kind: faults.Slow, Factor: 2}, {Kind: kind, AtNS: int64(time.Hour)},
		}}))
		if err == nil {
			p.Close()
			t.Fatalf("New accepted a %s fault", kind)
		}
		if !strings.Contains(err.Error(), kind.String()) {
			t.Errorf("error %q does not name %s", err, kind)
		}
	}
	if p, err := New(cfg, WithFaults(faults.Schedule{Events: []faults.Event{
		{Kind: faults.Hang, Worker: cfg.Workers, DurNS: int64(time.Second)},
	}})); err == nil {
		p.Close()
		t.Fatalf("New accepted a fault pinned to worker %d of %d", cfg.Workers, cfg.Workers)
	}
	if row := startProxy(t, cfg).Registry().Snapshot().Get("faults.injected"); row != nil {
		t.Errorf("proxy without a fault schedule registered %+v", row)
	}
}

// Shutdown does not wait out an injected crash: a request the crashed worker
// read is held until the drain starts, then its connection goes, and a crash
// with no restart leaves the drain its deadline.
func TestShutdownEndsInjectedCrash(t *testing.T) {
	cfg := testConfig(newStubUpstream(t))
	cfg.Workers = 1
	p, err := New(cfg, WithFaults(faults.Schedule{Events: []faults.Event{{Kind: faults.Crash, Worker: 0}}}))
	if err != nil {
		t.Fatal(err)
	}
	waitInjected(t, p, 1)
	c := dialKeepAlive(t, p.Addr())
	go func() { _, _, _ = c.do("GET", "/", "") }() // held by the crash
	time.Sleep(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() { done <- p.Shutdown(100 * time.Millisecond) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Shutdown: %v, want a clean drain", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Shutdown(100ms) still blocked after 1s with a crash in force")
	}
}

// A hang never revives a crashed worker: the injector skips a hang pinned to
// it, so the worker stays out of the bitmap and no hang is counted.
func TestHangDoesNotReviveCrashedWorker(t *testing.T) {
	cfg := testConfig(newStubUpstream(t))
	start := time.Now()
	p := startProxy(t, cfg, WithFaults(faults.Schedule{Events: []faults.Event{
		{Kind: faults.Crash, Worker: 1},
		{Kind: faults.Hang, AtNS: int64(50 * time.Millisecond), Worker: 1, DurNS: int64(10 * time.Millisecond)},
	}}))
	// Long past the hang's end, plus the HangThreshold and heartbeats that
	// would have readmitted worker 1.
	time.Sleep(time.Until(start.Add(200 * time.Millisecond)))
	if bm := p.Controller().Selection(0); bm != 0b01 {
		t.Errorf("selection bitmap %02b with worker 1 crashed, want 01", bm)
	}
	row := p.Registry().Snapshot().Get("faults.injected")
	if row == nil || row.Values[faults.Crash] != 1 || row.Values[faults.Hang] != 0 {
		t.Errorf("faults.injected = %+v, want the crash alone", row)
	}
}

// A random fault schedule — the kinds the proxy takes, out of
// faults.RandomSchedule's draw — runs against four workers under two
// keep-alive clients. Every event is applied or skipped exactly once, each
// applied one is counted in its kind's slot, and the drain ends in time with
// no connection left, crashes with no restart included.
func TestRandomFaultSoak(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Parallel()
			var sched faults.Schedule
			for _, ev := range faults.RandomSchedule(seed, 8, 4, 300*time.Millisecond).Events {
				switch ev.Kind {
				case faults.Hang, faults.Crash, faults.Slow:
					sched.Events = append(sched.Events, ev)
				}
			}
			cfg := testConfig(newStubUpstream(t))
			cfg.Workers = 4
			start := time.Now()
			p, err := New(cfg, WithFaults(sched))
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var clients sync.WaitGroup
			for i := 0; i < 2; i++ {
				c := dialKeepAlive(t, p.Addr())
				clients.Add(1)
				go func() {
					defer clients.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, _, err := c.do("GET", "/", ""); err != nil {
							return // the drain closed it
						}
					}
				}()
			}
			// RandomSchedule places every event in the middle 80% of its
			// window, so all of them have fired by here.
			time.Sleep(time.Until(start.Add(500 * time.Millisecond)))

			drainStart := time.Now()
			_ = p.Shutdown(200 * time.Millisecond)
			if d := time.Since(drainStart); d > time.Second {
				t.Errorf("Shutdown(200ms) took %v", d)
			}
			close(stop)
			clients.Wait()

			inj := p.inj
			if got := inj.Injected + inj.Skipped; got != uint64(len(sched.Events)) {
				t.Errorf("injected %d + skipped %d of %d events (%v)", inj.Injected, inj.Skipped, len(sched.Events), sched)
			}
			if row := p.Registry().Snapshot().Get("faults.injected"); row == nil || row.Total() != int64(inj.Injected) {
				t.Errorf("faults.injected = %+v, injector counted %d", row, inj.Injected)
			}
			p.mu.Lock()
			defer p.mu.Unlock()
			if n := len(p.conns); n != 0 {
				t.Errorf("%d connection(s) still tracked after Shutdown", n)
			}
		})
	}
}
