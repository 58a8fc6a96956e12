package proxy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/core"
	"hermes/internal/faults"
	"hermes/internal/httpx"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// Option configures New (mirrors core.New's option style).
type Option func(*options)

type options struct {
	tracer *tracing.Tracer
	sched  faults.Schedule
}

// WithTracer arms the per-connection flight recorder (a concurrent tracer;
// see docs/TRACING.md).
func WithTracer(tr *tracing.Tracer) Option {
	return func(o *options) { o.tracer = tr }
}

// WithFaults arms a sim fault schedule on the real proxy's workers, on the
// wall clock (docs/FAULTS.md grammar, times relative to New), through the
// simulator's faults.Injector. New refuses a schedule holding a kind that
// needs an LB, or pinning a worker the proxy does not have.
func WithFaults(sched faults.Schedule) Option {
	return func(o *options) { o.sched = sched }
}

// Proxy is the running reverse proxy: one acceptor steering from the Hermes
// selection bitmap, N workers each holding many connections, a
// health-checked backend pool, and an admin API (AdminHandler).
type Proxy struct {
	cfg     Config
	ln      net.Listener
	dialer  net.Dialer // upstream dials
	ctl     *core.Controller
	pool    *Pool
	bufs    *bufPool
	idle    idleConns // parked connection goroutines
	workers []*worker
	checker *checker // nil when active checks are disabled

	reg *telemetry.Registry
	tel Instruments
	// slo is the burn-rate monitor and the only sampler of the registry: nil
	// when the SLO is off, and then nothing samples.
	slo *telemetry.SLO

	connSeq atomic.Uint64
	hashSeq atomic.Uint32

	startNS int64
	inj     *faults.Injector // applies the fault schedule; nil without one

	// Connection tracking for graceful drain; mu also guards faultTimers.
	mu          sync.Mutex
	conns       map[net.Conn]struct{}
	faultTimers []*time.Timer // every fault timer armed, stopped by shutdown
	draining    atomic.Bool
	stop        chan struct{}  // closed when the drain starts: the heartbeat ends
	wg          sync.WaitGroup // acceptor, heartbeat and connection goroutines, parked ones too
	shutOnce    sync.Once
	shutErr     error
}

// worker is one proxy worker as the scheduler sees it: the WST row its
// connections publish into (open connections, requests in flight) and the
// loop-enter stamp the fleet heartbeat keeps fresh. Its event loop is Go's
// netpoller: every connection steered here is served by a goroutine parked in
// it, so an idle or slow connection never holds up another. Connection
// goroutines belong to the proxy, not to a worker: when a client leaves, its
// goroutine parks on the proxy's idle list and may serve its next client for
// another worker.
type worker struct {
	id      int
	p       *Proxy
	hook    *core.WorkerHook
	tr      *tracing.WorkerTrace
	fwdTail []byte // the field this worker adds to every upstream request head
	// handled counts requests this worker proxied: its slot of
	// proxy.worker.requests_served.
	handled *telemetry.Counter
	// delay injects extra latency per request: the slow faults in force.
	delay atomic.Int64
	// stallUntilNS, while in the future, stalls the worker: the heartbeat
	// stops stamping its WST row and its connections stop before their next
	// request — the loop-enter timestamp goes stale exactly as a real
	// hang's would (injected fault). crashedNS holds it until Restart.
	stallUntilNS atomic.Int64
}

// crashedNS is stallUntilNS while a crash is in force: no clock reaches it.
const crashedNS = math.MaxInt64

// New builds and starts the proxy: listener bound, workers running, health
// checker probing, fault schedule armed. The caller owns shutdown
// (Shutdown/Close) and the admin HTTP server (AdminHandler).
func New(cfg Config, opts ...Option) (*Proxy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	reg := telemetry.NewRegistry()

	ctl, err := core.New(cfg.Workers, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// The control loop's rows go on the proxy's registry; its passes stay out
	// of the flight recorder, since every request ends in one.
	ctl.Observe(reg, nil, nil)

	// No TCP keep-alive probes on either side: the proxy bounds both
	// lifetimes itself — an idle client is closed after ClientIdleTimeout; an
	// idle upstream connection waits on its backend's bounded idle list, which
	// the prober, the breaker and Shutdown flush, and one the backend dropped
	// is found out by the peek before the next request (idleOpen) — so the four
	// setsockopts Go spends arming probes on every socket buy nothing.
	ln, err := (&net.ListenConfig{KeepAlive: -1}).Listen(context.Background(), "tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}

	p := &Proxy{
		cfg:     cfg,
		ln:      ln,
		dialer:  net.Dialer{Timeout: cfg.DialTimeout, KeepAlive: -1},
		ctl:     ctl,
		reg:     reg,
		bufs:    newBufPool(),
		startNS: time.Now().UnixNano(),
		conns:   make(map[net.Conn]struct{}),
		stop:    make(chan struct{}),
	}
	p.tel = newInstruments(reg, o.tracer, cfg.Workers, len(cfg.Backends))
	targets := make([]faults.Worker, cfg.Workers)
	for i := range targets {
		w := &worker{
			id: i, p: p, hook: ctl.NewWorkerHook(i),
			tr:      o.tracer.WorkerTrace(i),
			fwdTail: []byte("X-Forwarded-By: hermes-lb/w" + strconv.Itoa(i) + "\r\n"),
			handled: p.tel.RequestsServed.At(i),
		}
		w.hook.LoopEnter(time.Now().UnixNano())
		p.workers, targets[i] = append(p.workers, w), w
	}
	if len(o.sched.Events) > 0 {
		wall := func() int64 { return time.Now().UnixNano() }
		if p.inj, err = faults.NewWorkerInjector(targets, o.sched, wall, p.afterFault); err != nil {
			ln.Close()
			return nil, err
		}
		p.inj.Observe(reg, o.tracer)
	}

	// The monitor samples off the hot path: instruments record normally; its
	// sampler snapshots the registry once per tick until the drain starts.
	if cfg.SLO.Enabled {
		sloCfg, err := cfg.sloConfig()
		if err != nil {
			ln.Close()
			return nil, err
		}
		if p.slo, err = telemetry.NewSLO(sloCfg, reg); err != nil {
			ln.Close()
			return nil, err
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.slo.Run(p.stop)
		}()
	}

	p.pool = newPool(cfg, func() int64 { return time.Now().UnixNano() }, &p.tel)

	p.sync()
	p.wg.Add(1)
	go p.heartbeat()

	if cfg.HealthCheck.Enabled {
		p.checker = newChecker(cfg.HealthCheck, p.pool)
		go p.checker.run()
	}
	if p.inj != nil {
		p.inj.Start()
	}
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return p, nil
}

// Addr returns the client-facing listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Controller exposes the Hermes controller (policy API, stats).
func (p *Proxy) Controller() *core.Controller { return p.ctl }

// Registry exposes the telemetry registry (stats reporting).
func (p *Proxy) Registry() *telemetry.Registry { return p.reg }

// Workers returns the worker count.
func (p *Proxy) Workers() int { return len(p.workers) }

// WorkerHandled returns how many requests worker id has proxied.
func (p *Proxy) WorkerHandled(id int) uint64 { return p.workers[id].handled.Load() }

// track registers a live client connection for drain accounting.
func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// acceptLoop is the kernel-dispatch stand-in: scaled-hash selection over the
// live bitmap, hash fallback below MinWorkers (Algorithm 2). The steered
// connection goes to the goroutine parked last on p.idle, or to a new one
// when none is parked.
//
// Only a closed listener ends the loop. Go's poller retries EINTR, EAGAIN
// and ECONNABORTED itself; any other error (EMFILE, ENFILE, ENOBUFS) is
// counted and waited out as net/http's Server.Serve does, 5 ms doubling to
// 1 s, so running out of descriptors does not stop the proxy accepting.
func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			p.tel.AcceptErrors.Inc()
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-p.stop:
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		h := p.hashSeq.Add(2654435761)
		via := tracing.ViaProg
		wi, ok := p.ctl.Select(h, h)
		if !ok {
			via = tracing.ViaFallback
			wi = int(h % uint32(len(p.workers)))
		}
		p.track(nc)
		c := p.idle.take()
		parked := c != nil
		if !parked {
			c = &conn{wake: make(chan struct{}, 1)}
		}
		c.w, c.nc, c.id, c.estNS = p.workers[wi], nc, p.connSeq.Add(1), time.Now().UnixNano()
		p.tel.ktr.ConnEstablished(c.id, c.estNS, int32(wi), via)
		if parked {
			c.wake <- struct{}{}
		} else {
			p.wg.Add(1)
			go c.run(p)
		}
	}
}

// heartbeat is the fleet's epoll_wait timeout: every EpollTimeout it stamps
// every worker's WST row and runs one schedule_and_sync, so an idle worker
// stays selectable and an idle fleet keeps a fresh bitmap. A hung worker's row
// stays unstamped, and FilterTime sees the stamp age.
func (p *Proxy) heartbeat() {
	defer p.wg.Done()
	every := p.ctl.Config().EpollTimeout
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		if d := p.ctl.Config().EpollTimeout; d != every { // live policy change
			every = d
			t.Reset(d)
		}
		now := time.Now().UnixNano()
		for _, w := range p.workers {
			if w.stallUntilNS.Load() <= now {
				w.hook.LoopEnter(now)
			}
		}
		p.sync()
	}
}

// sync runs schedule_and_sync: at the end of every request and connection,
// and on every heartbeat. The proxy's workers are one Hermes group, so any
// worker's hook serves.
func (p *Proxy) sync() { p.workers[0].hook.ScheduleAndSync(time.Now().UnixNano()) }

// stall holds a request read at nowNS while the worker is hung or crashed.
// It reports false if the drain started first, and looks at the stall again
// every EpollTimeout, so a Restart lets the request through within one.
func (w *worker) stall(nowNS int64) bool {
	for {
		d := time.Duration(w.stallUntilNS.Load() - nowNS)
		if d <= 0 {
			return true
		}
		t := time.NewTimer(min(d, w.p.ctl.Config().EpollTimeout))
		select {
		case <-w.p.stop:
			t.Stop()
			return false
		case <-t.C:
		}
		nowNS = time.Now().UnixNano()
	}
}

// The six methods below make a worker a faults.Worker. The injector calls
// them under its own lock, one fault at a time; the request path and the
// heartbeat read their effect through the two atomics.

// Crashed reports whether a crash is in force.
func (w *worker) Crashed() bool { return w.stallUntilNS.Load() == crashedNS }

// OpenConns reads the worker's WST row: the connections it holds.
func (w *worker) OpenConns() int { return int(w.hook.Metrics().Conn) }

// Hang stalls the worker for d from now, extending a stall in force and
// never shortening one.
func (w *worker) Hang(d time.Duration) {
	if until := time.Now().UnixNano() + int64(d); until > w.stallUntilNS.Load() {
		w.stallUntilNS.Store(until)
	}
}

// Crash stalls the worker until Restart. A goroutine cannot be killed, so
// drop is ignored: its connections stay open, stalled.
func (w *worker) Crash(bool) { w.stallUntilNS.Store(crashedNS) }

// Restart ends a crash.
func (w *worker) Restart() { w.stallUntilNS.CompareAndSwap(crashedNS, 0) }

// SetCostMultiplier poisons per-request latency instead of scaling CPU, since
// the proxy's cost is dominated by the upstream round trip: 5 ms × (f − 1)
// per request.
func (w *worker) SetCostMultiplier(f float64) {
	w.delay.Store(int64(float64(5*time.Millisecond) * (f - 1)))
}

// bufLimit bounds the per-connection request buffer: the header section cap
// plus the configured body cap.
func (p *Proxy) bufLimit() int {
	return httpx.MaxHeaderBytes + p.cfg.Buffer.MaxRequestBody
}

// Shutdown drains gracefully: veto every worker in the selection map, stop
// accepting, nudge idle keep-alive connections closed, and wait for
// in-flight requests up to the drain deadline — then force-close whatever
// remains. Returns nil on a clean drain, an error naming the forced-close
// count otherwise. Safe to call once; Close is Shutdown with a zero
// deadline.
func (p *Proxy) Shutdown(timeout time.Duration) error {
	p.shutOnce.Do(func() { p.shutErr = p.shutdown(timeout) })
	return p.shutErr
}

// Close force-closes everything immediately: Shutdown with no drain.
func (p *Proxy) Close() { _ = p.Shutdown(0) }

func (p *Proxy) shutdown(timeout time.Duration) error {
	p.draining.Store(true)
	// Health/circuit state and drains share one eviction path: veto the
	// workers in the selection map so the published bitmap goes empty
	// before the listener closes (observable via /status).
	for i := range p.workers {
		_ = p.ctl.SetWorkerAvailable(i, false)
	}
	close(p.stop)
	// Stop the injector before taking p.mu: a fault callback holds the
	// injector's lock while afterFault takes p.mu.
	if p.inj != nil {
		p.inj.Stop()
	}
	p.mu.Lock()
	for _, t := range p.faultTimers {
		t.Stop()
	}
	p.mu.Unlock()
	p.sync()
	p.ln.Close()
	// From here on no goroutine parks: the parked ones exit now, the busy
	// ones when their client leaves, and the wait below covers both.
	p.idle.close()
	if p.checker != nil {
		p.checker.Stop()
	}

	// Wake idle keep-alive readers so they observe the drain.
	p.mu.Lock()
	for c := range p.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	} else {
		expired := make(chan time.Time)
		close(expired)
		timer = expired
	}
	// Both returns below come after every exchange has ended, and none kept
	// its connection once the drain began: close what the idle lists hold.
	defer p.pool.flush()
	select {
	case <-done:
		return nil
	case <-timer:
	}

	// Deadline exceeded: force-close surviving connections. Their goroutines
	// then finish their bounded upstream exchanges and exit; the second wait
	// is bounded by the dial/response timeouts.
	p.mu.Lock()
	forced := len(p.conns)
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.tel.DrainForcedCloses.Add(uint64(forced))
	<-done
	if forced > 0 {
		return fmt.Errorf("proxy: drain deadline exceeded, %d connection(s) force-closed", forced)
	}
	return nil
}

// afterFault is the injector's clock: it runs fn after d on a timer shutdown
// stops, and arms nothing once the drain has begun. A timer already firing
// does nothing once shutdown has stopped the injector.
func (p *Proxy) afterFault(d time.Duration, fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.draining.Load() {
		p.faultTimers = append(p.faultTimers, time.AfterFunc(d, fn))
	}
}
