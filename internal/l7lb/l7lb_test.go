package l7lb

import (
	"math/rand"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/kernel"
	"hermes/internal/sim"
	"hermes/internal/telemetry"
)

// openConn completes a handshake for a fresh client connection to port.
func openConn(t *testing.T, lb *LB, src uint32, port uint16) *kernel.Conn {
	t.Helper()
	conn, ok := lb.NS.DeliverSYN(kernel.FourTuple{
		SrcIP: src, SrcPort: uint16(1024 + src%60000), DstIP: 0x0a00_0001, DstPort: port,
	}, nil)
	if !ok {
		t.Fatalf("SYN to %d rejected", port)
	}
	return conn
}

// sendReq delivers one request on an established connection.
func sendReq(lb *LB, conn *kernel.Conn, cost time.Duration, closeAfter bool) {
	lb.Deliver(conn, Work{
		ArrivalNS: lb.Eng.Now(),
		Cost:      cost,
		Close:     closeAfter,
		Tenant:    conn.Tuple.DstPort,
	})
}

// resetConns sums Worker.ResetConns over the LB's cores: the connections
// reset by pool exhaustion or shedding.
func resetConns(lb *LB) uint64 {
	var n uint64
	for _, w := range lb.Workers {
		n += w.ResetConns
	}
	if d := lb.Dispatcher; d != nil {
		n += d.ResetConns
	}
	return n
}

// modesUnderTest is the whole Mode enum, walked as hermesctl's cellMode
// walks it, so a mode added to the enum is under test from its first build.
func modesUnderTest() []Mode {
	var modes []Mode
	for m := ModeExclusive; m <= ModeIOUring; m++ {
		modes = append(modes, m)
	}
	return modes
}

// trickle opens conns connections 100µs apart on port 8080, each sending one
// 30µs request 50µs after its handshake and closing after the response.
func trickle(t *testing.T, lb *LB, conns int) {
	for i := 0; i < conns; i++ {
		i := i
		lb.Eng.At(int64(i)*int64(100*time.Microsecond), func() {
			c := openConn(t, lb, uint32(i), 8080)
			lb.Eng.After(50*time.Microsecond, func() {
				sendReq(lb, c, 30*time.Microsecond, true)
			})
		})
	}
}

// Smoke test: every mode serves a steady trickle of short requests with no
// losses and sane latency.
func TestAllModesServeTraffic(t *testing.T) {
	for _, mode := range modesUnderTest() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := DefaultConfig(mode)
			cfg.Workers = 4
			lb, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lb.Start()

			const conns = 100
			trickle(t, lb, conns)
			eng.RunUntil(int64(time.Second))

			if lb.Completed != conns {
				t.Fatalf("completed %d of %d", lb.Completed, conns)
			}
			if p99 := lb.Latency.Percentile(99); p99 > 50 {
				t.Fatalf("P99 latency %v ms is absurd for idle system", p99)
			}
			if lb.TotalBusyNS() == 0 {
				t.Fatal("no busy time accounted")
			}
		})
	}
}

// Every mode keeps its ledgers on an observed LB: the served and accepted
// vectors have one slot per simulated core and sum to the workers' own
// counts, every accept is one accept_wait_ns observation, and every core that
// runs an epoll loop (all but ModeDispatcher's executors) counts its wakeups.
func TestObservedLedgersBalance(t *testing.T) {
	for _, mode := range modesUnderTest() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig(mode)
			cfg.Workers = 4
			reg := telemetry.NewRegistry()
			cfg.Telemetry = reg
			lb, err := New(sim.NewEngine(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			lb.Start()
			const conns = 100
			trickle(t, lb, conns)
			lb.Eng.RunUntil(int64(time.Second))

			cores := lb.Workers
			if lb.Dispatcher != nil {
				cores = append(cores[:len(cores):len(cores)], lb.Dispatcher)
			}
			var completed, accepted uint64
			for _, w := range cores {
				completed += w.Completed
				accepted += w.Accepted
			}
			snap := reg.Snapshot()
			row := func(name string) *telemetry.MetricSnapshot {
				ms := snap.Get(name)
				if ms == nil {
					t.Fatalf("%s not registered", name)
				}
				return ms
			}
			for _, name := range []string{"l7lb.worker.requests_served", "l7lb.worker.conns_accepted", "kernel.epoll.wakeups"} {
				if n := len(row(name).Values); n != len(cores) {
					t.Errorf("%s has %d slots for %d cores", name, n, len(cores))
				}
			}
			if completed != conns || accepted != conns {
				t.Fatalf("cores completed %d and accepted %d of %d", completed, accepted, conns)
			}
			if served := row("l7lb.worker.requests_served").Total(); uint64(served) != completed {
				t.Errorf("Σ requests_served = %d, Σ Completed = %d", served, completed)
			}
			if got := row("l7lb.worker.conns_accepted").Total(); uint64(got) != accepted {
				t.Errorf("Σ conns_accepted = %d, Σ Accepted = %d", got, accepted)
			}
			if got := row("l7lb.accept_wait_ns").Count; got != accepted {
				t.Errorf("accept_wait_ns count = %d, Σ Accepted = %d", got, accepted)
			}
			wakeups := row("kernel.epoll.wakeups").Values
			for _, w := range cores {
				if !w.executor && wakeups[w.ID] == 0 {
					t.Errorf("core %d waits but its kernel.epoll.wakeups slot is 0", w.ID)
				}
			}
		})
	}
}

// Fig. 2 behaviour: under exclusive wakeup, connections concentrate on the
// most recently registered workers; reuseport and Hermes spread them.
func TestConnectionConcentrationByMode(t *testing.T) {
	spread := func(mode Mode) []int {
		eng := sim.NewEngine(7)
		cfg := DefaultConfig(mode)
		cfg.Workers = 8
		lb, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lb.Start()
		// Long-lived idle connections arriving slowly (Case-3-like): each
		// accept completes long before the next SYN, so LIFO always finds
		// the same worker idle.
		for i := 0; i < 400; i++ {
			i := i
			eng.At(int64(i)*int64(200*time.Microsecond), func() {
				openConn(t, lb, uint32(i), 8080)
			})
		}
		eng.RunUntil(int64(200 * time.Millisecond))
		return lb.WorkerConnCounts()
	}

	excl := spread(ModeExclusive)
	maxExcl, total := 0, 0
	for _, c := range excl {
		total += c
		if c > maxExcl {
			maxExcl = c
		}
	}
	if total != 400 {
		t.Fatalf("exclusive served %d conns: %v", total, excl)
	}
	if maxExcl < 350 {
		t.Fatalf("exclusive should concentrate conns on one worker: %v", excl)
	}

	for _, mode := range []Mode{ModeReuseport, ModeHermes} {
		counts := spread(mode)
		for i, c := range counts {
			if c < 20 || c > 90 {
				t.Fatalf("%v worker %d holds %d conns, want ~50: %v", mode, i, c, counts)
			}
		}
	}
}

// Hermes must route around a worker hung on an expensive request; stateless
// reuseport keeps hashing connections onto it (§6.2 Case 2, §7 failures).
func TestHermesAvoidsHungWorkerReuseportDoesNot(t *testing.T) {
	run := func(mode Mode) (hungQueued int, completed uint64) {
		eng := sim.NewEngine(3)
		cfg := DefaultConfig(mode)
		cfg.Workers = 4
		lb, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lb.Start()

		// Warm up: a conn per worker so Hermes has fresh metrics.
		for i := 0; i < 8; i++ {
			i := i
			eng.At(int64(i)*int64(time.Millisecond), func() {
				openConn(t, lb, uint32(1000+i), 8080)
			})
		}
		// Hang whichever worker owns a specific conn with a 5s request.
		var victim *Worker
		eng.At(int64(20*time.Millisecond), func() {
			c := openConn(t, lb, 1, 8080)
			eng.After(time.Millisecond, func() {
				sendReq(lb, c, 5*time.Second, false)
				eng.After(2*time.Millisecond, func() {
					for _, w := range lb.Workers {
						if w.OwnsConn(c.Sock()) {
							victim = w
						}
					}
				})
			})
		})
		// After the hang threshold passes, pour in 200 short connections.
		for i := 0; i < 200; i++ {
			i := i
			eng.At(int64(100*time.Millisecond)+int64(i)*int64(300*time.Microsecond), func() {
				c := openConn(t, lb, uint32(2000+i), 8080)
				eng.After(100*time.Microsecond, func() {
					sendReq(lb, c, 20*time.Microsecond, true)
				})
			})
		}
		eng.RunUntil(int64(400 * time.Millisecond))
		if victim == nil {
			t.Fatal("victim worker not identified")
		}
		// Connections stuck on the hung worker: in its accept queue or its
		// conns with pending data.
		var g = lb.Groups()[0]
		hungQueued = g.Sockets()[victim.ID].QueueLen()
		return hungQueued, lb.Completed
	}

	rQueued, rDone := run(ModeReuseport)
	hQueued, hDone := run(ModeHermes)
	if rQueued == 0 {
		t.Fatalf("reuseport should strand conns on the hung worker (queued=%d done=%d)", rQueued, rDone)
	}
	if hQueued != 0 {
		t.Fatalf("hermes stranded %d conns on the hung worker", hQueued)
	}
	if hDone <= rDone {
		t.Fatalf("hermes completed %d ≤ reuseport %d", hDone, rDone)
	}
}

func TestMaxConnsPerWorkerResets(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeReuseport)
	cfg.Workers = 2
	cfg.MaxConnsPerWorker = 10
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var resets int
	lb.OnConnReset = func(kernel.ConnRef) { resets++ }
	lb.Start()
	for i := 0; i < 100; i++ {
		i := i
		eng.At(int64(i)*int64(100*time.Microsecond), func() {
			openConn(t, lb, uint32(i), 8080)
		})
	}
	eng.RunUntil(int64(100 * time.Millisecond))
	for _, w := range lb.Workers {
		if w.OpenConns() > 10 {
			t.Fatalf("worker %d holds %d conns over cap", w.ID, w.OpenConns())
		}
	}
	if n := resetConns(lb); n == 0 || resets != int(n) {
		t.Fatalf("resets=%d ResetConns=%d", resets, n)
	}
}

func TestSheddingPolicy(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeHermes)
	cfg.Workers = 2
	cfg.Shed = ShedPolicy{Enabled: true, ConnThreshold: 5}
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	for i := 0; i < 60; i++ {
		i := i
		eng.At(int64(i)*int64(50*time.Microsecond), func() {
			openConn(t, lb, uint32(i), 8080)
		})
	}
	eng.RunUntil(int64(50 * time.Millisecond))
	for _, w := range lb.Workers {
		if w.OpenConns() > 5 {
			t.Fatalf("worker %d holds %d conns over shed threshold", w.ID, w.OpenConns())
		}
	}
	if resetConns(lb) == 0 {
		t.Fatal("no sheds recorded")
	}
}

func TestCrashDropsConnsAndNotifies(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeReuseport)
	cfg.Workers = 2
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var resets int
	lb.OnConnReset = func(kernel.ConnRef) { resets++ }
	lb.Start()
	for i := 0; i < 40; i++ {
		i := i
		eng.At(int64(i)*int64(100*time.Microsecond), func() {
			openConn(t, lb, uint32(i), 8080)
		})
	}
	eng.RunUntil(int64(20 * time.Millisecond))
	w := lb.Workers[0]
	had := w.OpenConns()
	if had == 0 {
		t.Fatal("worker 0 owns no conns")
	}
	w.Crash(true)
	if !w.Crashed() || w.OpenConns() != 0 {
		t.Fatal("crash did not drop conns")
	}
	if resets != had {
		t.Fatalf("resets=%d, want %d", resets, had)
	}
	// Crashed worker serves nothing more.
	before := w.Completed
	eng.RunUntil(int64(40 * time.Millisecond))
	if w.Completed != before {
		t.Fatal("crashed worker completed requests")
	}
}

func TestOnResponseClosedLoop(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeHermes)
	cfg.Workers = 2
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Closed loop: each response triggers the next request, 5 total.
	sent := 0
	lb.OnResponse = func(conn kernel.ConnRef, work Work) {
		if c := conn.Get(); c != nil && sent < 5 && !work.Close {
			sent++
			final := sent == 5
			sendReq(lb, c, 10*time.Microsecond, final)
		}
	}
	lb.Start()
	c := openConn(t, lb, 1, 8080)
	eng.After(time.Millisecond, func() {
		sent++
		sendReq(lb, c, 10*time.Microsecond, false)
	})
	eng.RunUntil(int64(100 * time.Millisecond))
	if lb.Completed != 5 {
		t.Fatalf("completed %d, want 5 closed-loop requests", lb.Completed)
	}
}

// The dispatcher core saturates before executors do under high CPS — the
// bottleneck §2.2 predicts.
func TestDispatcherBottleneck(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeDispatcher)
	cfg.Workers = 8
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	// 2000 conns in 20ms, each one cheap request: intake dominates.
	for i := 0; i < 2000; i++ {
		i := i
		eng.At(int64(i)*int64(10*time.Microsecond), func() {
			c := openConn(t, lb, uint32(i), 8080)
			eng.After(5*time.Microsecond, func() {
				sendReq(lb, c, 5*time.Microsecond, true)
			})
		})
	}
	eng.RunUntil(int64(100 * time.Millisecond))
	dispBusy := lb.Dispatcher.BusyNS(eng.Now())
	var maxExec int64
	for _, w := range lb.Workers {
		if b := w.BusyNS(eng.Now()); b > maxExec {
			maxExec = b
		}
	}
	if dispBusy <= maxExec {
		t.Fatalf("dispatcher busy %d ≤ max executor %d; should be the bottleneck", dispBusy, maxExec)
	}
	if lb.Completed == 0 {
		t.Fatal("dispatcher mode served nothing")
	}
}

func TestBackendPoolRoundRobinRestart(t *testing.T) {
	imbalance := func(randomize bool) float64 {
		pool := NewBackendPool(10)
		pool.RandomizeOffsets = randomize
		rng := rand.New(rand.NewSource(11))
		clients := make([]*BackendClient, 16)
		for i := range clients {
			clients[i] = pool.NewClient()
		}
		pool.UpdateServers(10, rng) // controller pushes a new list
		// Each worker forwards only a couple of requests after the update
		// (the §7 failure condition: few requests per worker).
		for _, c := range clients {
			c.Pick()
			c.Pick()
		}
		max, min := uint64(0), uint64(1<<62)
		for _, b := range pool.Servers() {
			if b.Requests > max {
				max = b.Requests
			}
			if b.Requests < min {
				min = b.Requests
			}
		}
		return float64(max) - float64(min)
	}
	lockstep := imbalance(false)
	randomized := imbalance(true)
	if lockstep < 10 {
		t.Fatalf("lockstep restart should pile onto first servers (spread %v)", lockstep)
	}
	if randomized >= lockstep {
		t.Fatalf("randomized offsets did not help: %v >= %v", randomized, lockstep)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Workers: 0, Ports: []uint16{80}},
		{Workers: 1, Ports: nil},
		{Workers: 1, Ports: []uint16{80, 80}},
		func() Config {
			c := DefaultConfig(ModeHermes)
			c.Hermes.MinWorkers = 0 // invalid hermes sub-config
			return c
		}(),
		func() Config {
			c := DefaultConfig(ModeReuseport)
			c.MaxConnsPerWorker = -1
			return c
		}(),
	}
	for i, c := range bad {
		if c.Mode == 0 {
			c.Mode = ModeExclusive
			c.Hermes = DefaultConfig(ModeExclusive).Hermes
		}
		if _, err := New(sim.NewEngine(1), c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// Every mode runs core's control loop unchanged: the simulator and the real
// proxy share one Hermes configuration.
func TestDefaultConfigRunsCoreDefaults(t *testing.T) {
	for _, m := range modesUnderTest() {
		if got := DefaultConfig(m).Hermes; got != core.DefaultConfig() {
			t.Errorf("%v: Hermes config %+v, want core.DefaultConfig() %+v", m, got, core.DefaultConfig())
		}
	}
}

func TestModeStrings(t *testing.T) {
	for _, m := range modesUnderTest() {
		if m.String() == "" || m.String()[0] == 'M' {
			t.Errorf("mode %d has bad string %q", m, m.String())
		}
	}
}

func TestDetailedStatsCollected(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeHermes)
	cfg.Workers = 2
	cfg.DetailedStats = true
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	for i := 0; i < 20; i++ {
		i := i
		eng.At(int64(i)*int64(time.Millisecond), func() {
			c := openConn(t, lb, uint32(i), 8080)
			eng.After(100*time.Microsecond, func() {
				sendReq(lb, c, 50*time.Microsecond, true)
			})
		})
	}
	eng.RunUntil(int64(100 * time.Millisecond))
	gotEvents, gotBlocks := false, false
	for _, w := range lb.Workers {
		if w.EventsPerWait.N() > 0 {
			gotEvents = true
		}
		if w.BlockNS.N() > 0 {
			gotBlocks = true
		}
	}
	if !gotEvents || !gotBlocks {
		t.Fatal("detailed stats not collected")
	}
}
