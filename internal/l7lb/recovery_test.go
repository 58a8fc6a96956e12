package l7lb

import (
	"slices"
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/sim"
)

// Regression: a worker that crashes while blocked in epoll_wait used to
// leave its waiter armed, so the exclusive wakeup walk still saw it as
// Blocked(), woke it, and the wakeup was swallowed by the crashed worker's
// early return — the connection sat in the accept queue until some healthy
// worker's epoll timeout. Crash must tear the epoll down so the walk skips
// straight to the next idle worker.
func TestCrashWhileBlockedDoesNotSwallowExclusiveWakeup(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeExclusive)
	cfg.Workers = 3
	// A huge timeout removes the accidental recovery path: pre-fix, the
	// swallowed wakeup would leave the connection unaccepted for the whole
	// test horizon instead of being picked up at the next 5ms timeout.
	cfg.Hermes.EpollTimeout = 10 * time.Second
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	eng.RunUntil(int64(time.Millisecond)) // everyone parked in epoll_wait

	// The LIFO walk starts at the most recently registered watcher, so the
	// highest-id workers shadow worker 0. Crash both of them mid-block.
	lb.Workers[1].Crash(false)
	lb.Workers[2].Crash(false)

	conn := openConn(t, lb, 42, 8080)
	eng.RunUntil(eng.Now() + int64(50*time.Millisecond))

	if conn.AcceptedNS < 0 {
		t.Fatal("wakeup swallowed: crashed blocked worker still looked idle to the exclusive walk")
	}
	if got := lb.Workers[0].OpenConns(); got != 1 {
		t.Fatalf("next idle worker should have accepted the conn, worker 0 owns %d", got)
	}
}

// The restart lifecycle: a crashed reuseport worker's slot goes dark until
// Restart rebuilds its epoll and re-registers its listen socket; afterwards
// the slot must accept new connections again.
func TestRestartRevivesReuseportSlot(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeReuseport)
	cfg.Workers = 2
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	eng.RunUntil(int64(time.Millisecond))

	victim := lb.Workers[0]
	victim.Crash(true)
	eng.RunUntil(eng.Now() + int64(time.Millisecond))
	if !victim.Crashed() {
		t.Fatal("victim not crashed")
	}
	victim.Restart()
	if victim.Crashed() || victim.Restarts != 1 {
		t.Fatalf("restart did not take: crashed=%v restarts=%d", victim.Crashed(), victim.Restarts)
	}

	const conns = 64
	for i := 0; i < conns; i++ {
		i := i
		eng.At(eng.Now()+int64(i)*int64(100*time.Microsecond), func() {
			c := openConn(t, lb, uint32(i), 8080)
			eng.After(10*time.Microsecond, func() {
				sendReq(lb, c, 20*time.Microsecond, true)
			})
		})
	}
	eng.RunUntil(eng.Now() + int64(200*time.Millisecond))

	if lb.Completed != conns {
		t.Fatalf("completed %d of %d after restart", lb.Completed, conns)
	}
	// The reuseport hash spreads 64 conns over 2 slots; the revived slot
	// must have taken its share.
	if a := victim.Accepted; a == 0 {
		t.Fatal("restarted worker accepted nothing: slot still dark")
	}
}

// A hang stalls the victim's work for exactly its duration, releases
// afterward, and the busy-spin is charged to the worker's CPU accounting.
func TestHangStallsThenReleases(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeExclusive)
	cfg.Workers = 1
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	conn := openConn(t, lb, 7, 8080)
	eng.RunUntil(int64(time.Millisecond))

	w := lb.Workers[0]
	t0 := eng.Now()
	busy0 := w.BusyNS(t0)
	const hang = 20 * time.Millisecond
	w.Hang(hang)
	if !w.Hung() {
		t.Fatal("worker not hung after Hang")
	}
	sendReq(lb, conn, 10*time.Microsecond, false)

	eng.RunUntil(t0 + int64(hang) - 1)
	if lb.Completed != 0 {
		t.Fatal("request completed while the worker was hung")
	}
	eng.RunUntil(t0 + int64(hang) + int64(time.Millisecond))
	if w.Hung() {
		t.Fatal("worker still hung after the hang window")
	}
	if lb.Completed != 1 {
		t.Fatalf("request not served after release: completed=%d", lb.Completed)
	}
	if spin := w.BusyNS(eng.Now()) - busy0; spin < int64(hang) {
		t.Fatalf("busy-spin not charged: busy delta %d < hang %d", spin, int64(hang))
	}
}

// A slow worker's cost multiplier scales request service time and reverts.
func TestCostMultiplierScalesService(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeExclusive)
	cfg.Workers = 1
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	conn := openConn(t, lb, 9, 8080)
	eng.RunUntil(int64(time.Millisecond))

	w := lb.Workers[0]
	w.SetCostMultiplier(8)
	t0 := eng.Now()
	sendReq(lb, conn, 1*time.Millisecond, false)
	eng.RunUntil(t0 + int64(5*time.Millisecond))
	if lb.Completed != 0 {
		t.Fatal("8x-scaled 1ms request finished in under 5ms")
	}
	eng.RunUntil(t0 + int64(20*time.Millisecond))
	if lb.Completed != 1 {
		t.Fatalf("scaled request never completed: %d", lb.Completed)
	}
	w.SetCostMultiplier(1)
	t1 := eng.Now()
	sendReq(lb, conn, 1*time.Millisecond, true)
	eng.RunUntil(t1 + int64(5*time.Millisecond))
	if lb.Completed != 2 {
		t.Fatal("request still scaled after multiplier reset")
	}
}

// A ModeDispatcher executor serves its queue on the worker loop's own
// continuation timer, so the loop's fault handling covers it: a hang holds
// its serve until release, a crash cancels the serve in flight and strands
// its queue, and after Restart it serves again.
func TestExecutorHangCrashRestart(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeDispatcher)
	cfg.Workers = 1
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	conn := openConn(t, lb, 7, 8080)
	eng.RunUntil(int64(time.Millisecond))
	ex := lb.Workers[0]

	t0 := eng.Now()
	const hang = 20 * time.Millisecond
	ex.Hang(hang)
	sendReq(lb, conn, 10*time.Microsecond, false)
	eng.RunUntil(t0 + int64(hang) - 1)
	if lb.Completed != 0 {
		t.Fatal("request completed while its executor was hung")
	}
	eng.RunUntil(t0 + int64(hang) + int64(time.Millisecond))
	if lb.Completed != 1 || ex.Completed != 1 {
		t.Fatalf("after release: lb completed %d, executor %d, want 1 and 1", lb.Completed, ex.Completed)
	}

	sendReq(lb, conn, 5*time.Millisecond, false)
	eng.RunUntil(eng.Now() + int64(time.Millisecond))
	ex.Crash(false)
	sendReq(lb, conn, 10*time.Microsecond, false)
	eng.RunUntil(eng.Now() + int64(20*time.Millisecond))
	if lb.Completed != 1 {
		t.Fatalf("crashed executor completed requests: %d", lb.Completed)
	}

	ex.Restart()
	sendReq(lb, conn, 10*time.Microsecond, true)
	eng.RunUntil(eng.Now() + int64(time.Millisecond))
	if lb.Completed != 2 || ex.Completed != 2 {
		t.Fatalf("after restart: lb completed %d, executor %d, want 2 and 2", lb.Completed, ex.Completed)
	}
	if !conn.Sock().Closed() || lb.Dispatcher.OpenConns() != 0 {
		t.Fatal("Connection: close served by the executor did not close the dispatcher core's connection")
	}
}

// A hung executor holds its queue as well as its serve in flight: no queued
// job starts before the release, so the core's CPU ledger never runs ahead of
// wall time, and the jobs then run back to back. Extending the hang mid-hold
// holds them further.
func TestExecutorHangHoldsQueuedJobs(t *testing.T) {
	const (
		ms   = int64(time.Millisecond)
		hang = 20 * time.Millisecond
		job  = 2 * time.Millisecond
	)
	for _, tc := range []struct {
		name    string
		extend  bool  // Hang(hang) again 10 ms in
		release int64 // after the first Hang
	}{
		{"hang", false, 20 * ms},
		{"extended", true, 30 * ms},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := DefaultConfig(ModeDispatcher)
			cfg.Workers = 1
			lb, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lb.Start()
			conn := openConn(t, lb, 7, 8080)
			eng.RunUntil(ms)
			var done []int64
			lb.OnResponse = func(kernel.ConnRef, Work) { done = append(done, eng.Now()) }
			ex := lb.Workers[0]

			t0 := eng.Now()
			busy0 := ex.BusyNS(t0)
			ex.Hang(hang)
			sendReq(lb, conn, job, false)
			sendReq(lb, conn, job, false)
			eng.RunUntil(t0 + 10*ms)
			if b := ex.BusyNS(eng.Now()) - busy0; b > 10*ms {
				t.Errorf("executor busy %v over the first 10ms of its hang", time.Duration(b))
			}
			if tc.extend {
				ex.Hang(hang)
			}
			eng.RunUntil(t0 + tc.release + 3*int64(job))
			want := []int64{t0 + tc.release + int64(job), t0 + tc.release + 2*int64(job)}
			if !slices.Equal(done, want) {
				t.Errorf("jobs completed at %v, want %v (hang from %d)", done, want, t0)
			}
			if b := ex.BusyNS(eng.Now()) - busy0; b != tc.release+2*int64(job) {
				t.Fatalf("executor busy %v after both jobs, want the hang plus both jobs, %v",
					time.Duration(b), time.Duration(tc.release+2*int64(job)))
			}
		})
	}
}

// A step a hang catches re-arms the worker's one continuation timer rather
// than scheduling a closure, so a hang allocates nothing. Each run hangs a
// warmed Hermes worker past its epoll timeout, whose wakeup the hang holds
// until the release, and then runs on past it.
func TestHeldStepAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeHermes)
	cfg.Workers = 1
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	w := lb.Workers[0]
	timeout := cfg.Hermes.EpollTimeout
	hang := 2 * timeout
	var held int
	hangOnce := func() {
		release := eng.Now() + int64(hang)
		w.Hang(hang)
		eng.RunUntil(release - 1)
		if w.contTimer.When() == release {
			held++
		}
		eng.RunUntil(release + int64(timeout))
	}
	for i := 0; i < 4; i++ {
		hangOnce()
	}
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, hangOnce); allocs != 0 {
		t.Errorf("%.2f allocs per hang, want 0", allocs)
	}
	if held != 4+runs+1 {
		t.Fatalf("%d of %d hangs held a step until the release", held, 4+runs+1)
	}
}
