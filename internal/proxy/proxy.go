package proxy

import (
	"fmt"
	"io"
	"net"
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
	reg    *telemetry.Registry
	tracer *tracing.Tracer
	sched  faults.Schedule
}

// WithTelemetry registers the proxy's instruments on an existing registry
// instead of a private one (embedding, tests).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *options) { o.reg = reg }
}

// WithTracer arms the per-connection flight recorder (a concurrent tracer;
// see docs/TRACING.md).
func WithTracer(tr *tracing.Tracer) Option {
	return func(o *options) { o.tracer = tr }
}

// WithFaults arms a wall-clock translation of a sim fault schedule on the
// real proxy (docs/FAULTS.md grammar, times relative to New).
func WithFaults(sched faults.Schedule) Option {
	return func(o *options) { o.sched = sched }
}

// Proxy is the running reverse proxy: one acceptor steering from the Hermes
// selection bitmap, N workers, a health-checked backend pool, and an admin
// API (AdminHandler).
type Proxy struct {
	cfg     Config
	ln      net.Listener
	ctl     *core.Controller
	pool    *Pool
	workers []*worker
	checker *checker // nil when active checks are disabled

	// drainHook runs the drain's schedule pass. Worker hooks are
	// single-owner scratch space, so the shutdown goroutine must not borrow
	// one from a live worker; this instance shares only the controller's
	// concurrent-safe state.
	drainHook *core.WorkerHook

	reg *telemetry.Registry
	tel Instruments
	// win samples the registry on a wall-clock tick for windowed rates and
	// quantiles; slo rides its ticks. stopSampler halts the sampler on drain.
	win         *telemetry.Windows
	slo         *telemetry.SLO
	stopSampler func()

	tracer *tracing.Tracer
	ktr    *tracing.KernelTrace
	ptr    *tracing.ProxyTrace

	connSeq atomic.Uint64
	hashSeq atomic.Uint32

	startNS int64

	// Served counts proxied requests; Errors upstream failures (after
	// retries); Unavailable 503s with no pickable backend.
	Served      atomic.Uint64
	Errors      atomic.Uint64
	Unavailable atomic.Uint64

	// Connection tracking for graceful drain.
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	wg       sync.WaitGroup // worker goroutines
	shutOnce sync.Once
	shutErr  error
}

// tracedConn carries a queued connection plus the identity the flight
// recorder spans it under (id 0 when tracing is off).
type tracedConn struct {
	c     net.Conn
	id    uint64
	estNS int64 // steering time: the accept-queue span starts here
}

// worker is one proxy worker: a goroutine draining its connection queue,
// publishing Hermes metrics through its hook.
type worker struct {
	id      int
	p       *Proxy
	hook    *core.WorkerHook
	queue   chan tracedConn
	tr      *tracing.WorkerTrace
	buf     []byte
	prevQ   int // last queue depth folded into the busy metric
	handled *telemetry.Counter
	// Handled counts requests this worker proxied.
	Handled atomic.Uint64
	// delay injects extra latency per request (demo poisoning, slow fault).
	delay atomic.Int64
	// hangUntilNS, while in the future, stalls the worker at its next loop
	// iteration without touching the WST — the loop-enter timestamp goes
	// stale exactly as a real hang's would (injected fault).
	hangUntilNS atomic.Int64
}

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
	reg := o.reg
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	ctl, err := core.New(cfg.Workers, core.DefaultConfig(), core.WithInstruments(core.Instruments{
		Recomputes: reg.Counter(telemetry.Metric{Name: "core.schedule.recomputes", Layer: "core", Unit: "passes"}),
		Syncs:      reg.Counter(telemetry.Metric{Name: "core.schedule.syncs", Layer: "core", Unit: "syscalls"}),
		WSTReads:   reg.Counter(telemetry.Metric{Name: "core.schedule.wst_reads", Layer: "core", Unit: "rows"}),
		EmptySets:  reg.Counter(telemetry.Metric{Name: "core.schedule.empty_sets", Layer: "core", Unit: "passes"}),
		Passed:     reg.Histogram(telemetry.Metric{Name: "core.schedule.passed", Layer: "core", Unit: "workers"}, telemetry.CountBuckets(64)),
	}))
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}

	p := &Proxy{
		cfg:     cfg,
		ln:      ln,
		ctl:     ctl,
		reg:     reg,
		tracer:  o.tracer,
		ktr:     o.tracer.KernelTrace(),
		ptr:     o.tracer.ProxyTrace(),
		startNS: time.Now().UnixNano(),
		conns:   make(map[net.Conn]struct{}),
	}
	p.tel = newInstruments(reg, cfg.Workers, len(cfg.Backends))

	// The windowed layer samples off the hot path: instruments record
	// normally; the sampler snapshots the registry once per tick.
	if p.win, err = telemetry.NewWindows(reg, cfg.windowConfig()); err != nil {
		ln.Close()
		return nil, err
	}
	if cfg.SLO.Enabled {
		sloCfg, err := cfg.sloConfig()
		if err != nil {
			ln.Close()
			return nil, err
		}
		if p.slo, err = telemetry.NewSLO(sloCfg, p.win, reg); err != nil {
			ln.Close()
			return nil, err
		}
	}
	p.stopSampler = p.win.Start()

	p.pool = newPool(cfg, func() int64 { return time.Now().UnixNano() })
	p.wireBackends()
	p.drainHook = ctl.NewWorkerHook(0)

	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id: i, p: p, hook: ctl.NewWorkerHook(i),
			queue:   make(chan tracedConn, 512),
			tr:      o.tracer.WorkerTrace(i),
			buf:     make([]byte, 64<<10),
			handled: p.tel.RequestsServed.At(i),
		}
		w.hook.LoopEnter(time.Now().UnixNano())
		p.workers = append(p.workers, w)
		p.wg.Add(1)
		go w.run()
	}
	p.drainHook.ScheduleAndSync(time.Now().UnixNano())

	if cfg.HealthCheck.Enabled {
		p.checker = newChecker(cfg.HealthCheck, p.pool, &p.tel, proxyTraceHook{p.ptr})
		go p.checker.run()
	}
	p.applyFaults(o.sched)
	go p.acceptLoop()
	return p, nil
}

// proxyTraceHook adapts *tracing.ProxyTrace to the checker's traceHook.
type proxyTraceHook struct{ tr *tracing.ProxyTrace }

func (h proxyTraceHook) probe(backend int, startNS, endNS int64, ok bool) {
	h.tr.Probe(backend, startNS, endNS, ok)
}

// wireBackends connects pool transitions and circuit transitions to
// telemetry and tracing, and initializes the healthy gauges.
func (p *Proxy) wireBackends() {
	for _, b := range p.pool.backends {
		b := b
		gauge := p.tel.BackendHealthy.At(b.idx)
		gauge.Set(1)
		b.healthyGauge = func(v int64) { gauge.Set(v) }
		if b.circuit != nil {
			b.circuit.onTransition = func(from, to CircuitState) {
				switch to {
				case CircuitOpen:
					p.tel.CircuitOpens.Inc()
				case CircuitHalfOpen:
					p.tel.CircuitHalfOpens.Inc()
				case CircuitClosed:
					p.tel.CircuitCloses.Inc()
				}
				p.ptr.BackendState(b.idx, time.Now().UnixNano(), stateCircuit+int64(to))
			}
		}
	}
	p.pool.tel = &p.tel
	p.pool.onTransition = func(b *Backend, healthy bool, reason string) {
		p.tel.HealthTransitions.Inc()
		state := stateUnhealthy
		if healthy {
			state = stateHealthy
		}
		p.ptr.BackendState(b.idx, time.Now().UnixNano(), state)
	}
}

// Addr returns the client-facing listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Controller exposes the Hermes controller (policy API, stats).
func (p *Proxy) Controller() *core.Controller { return p.ctl }

// Pool exposes the backend pool (admin API, tests).
func (p *Proxy) Pool() *Pool { return p.pool }

// Registry exposes the telemetry registry (stats reporting).
func (p *Proxy) Registry() *telemetry.Registry { return p.reg }

// Windows exposes the windowed time-series layer (admin API, -stats-every).
func (p *Proxy) Windows() *telemetry.Windows { return p.win }

// SLO exposes the burn-rate monitor, nil when disabled.
func (p *Proxy) SLO() *telemetry.SLO { return p.slo }

// Config returns the validated configuration the proxy runs.
func (p *Proxy) Config() Config { return p.cfg }

// Workers returns the worker count.
func (p *Proxy) Workers() int { return len(p.workers) }

// WorkerHandled returns how many requests worker id has proxied.
func (p *Proxy) WorkerHandled(id int) uint64 { return p.workers[id].Handled.Load() }

// SetWorkerDelay injects per-request latency on one worker (demo poisoning).
func (p *Proxy) SetWorkerDelay(id int, d time.Duration) {
	p.workers[id].delay.Store(int64(d))
}

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
// live bitmap, hash fallback below MinWorkers (Algorithm 2).
func (p *Proxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			for _, w := range p.workers {
				close(w.queue)
			}
			return
		}
		h := p.hashSeq.Add(2654435761)
		via := tracing.ViaProg
		wi, ok := p.ctl.Select(h, h)
		if !ok {
			via = tracing.ViaFallback
			wi = int(h) % len(p.workers)
			if wi < 0 {
				wi = -wi
			}
		}
		p.track(conn)
		tc := tracedConn{c: conn, id: p.connSeq.Add(1), estNS: time.Now().UnixNano()}
		p.ktr.ConnEstablished(tc.id, tc.estNS, int32(wi), via)
		p.workers[wi].queue <- tc
	}
}

// maybeHang blocks until the injected hang deadline passes (no-op when none
// is set). Called before LoopEnter so the stall is visible to the scheduler
// as staleness, the paper's FilterTime signal.
func (w *worker) maybeHang() {
	for {
		d := w.hangUntilNS.Load() - time.Now().UnixNano()
		if d <= 0 {
			return
		}
		time.Sleep(time.Duration(d))
	}
}

func (w *worker) run() {
	defer w.p.wg.Done()
	for tc := range w.queue {
		w.maybeHang()
		now := time.Now().UnixNano()
		w.hook.LoopEnter(now)
		// Fold the channel backlog into the pending-event metric: queued
		// connections are this worker's kernel-side accept queue.
		q := len(w.queue) + 1
		w.hook.EventsFetched(q - w.prevQ)
		w.prevQ = q - 1
		w.hook.ConnOpened()
		w.tr.Accept(tc.id, tc.estNS, now)
		w.serve(tc)
		w.tr.Close(tc.id, time.Now().UnixNano(), false)
		w.hook.ConnClosed()
		w.hook.EventHandled()
		w.hook.ScheduleAndSync(time.Now().UnixNano())
	}
}

// bufLimit bounds the per-connection request buffer: the header section cap
// plus the configured body cap.
func (p *Proxy) bufLimit() int {
	return httpx.MaxHeaderBytes + p.cfg.Buffer.MaxRequestBody
}

func (w *worker) serve(tc tracedConn) {
	p := w.p
	conn := tc.c
	defer func() {
		p.untrack(conn)
		conn.Close()
	}()
	buf := w.buf
	pending := 0
	for {
		_ = conn.SetReadDeadline(time.Now().Add(p.cfg.ClientIdleTimeout))
		if pending == len(buf) {
			// Request larger than the buffer: grow up to the configured
			// bound, then refuse — bounded buffering, not an OOM vector.
			if len(buf) >= p.bufLimit() {
				w.reply(conn, &httpx.Response{Status: 413, Body: []byte("request exceeds buffer limit")})
				return
			}
			next := len(buf) * 2
			if next > p.bufLimit() {
				next = p.bufLimit()
			}
			grown := make([]byte, next)
			copy(grown, buf[:pending])
			buf, w.buf = grown, grown
		}
		n, err := conn.Read(buf[pending:])
		if err != nil {
			// Idle keep-alive connections end here: EOF, a drain nudge, or
			// the idle deadline. Partial requests are abandoned with the
			// connection.
			return
		}
		arrivalNS := time.Now().UnixNano()
		pending += n
		for {
			req, consumed, perr := httpx.ParseRequest(buf[:pending])
			if perr == httpx.ErrIncomplete {
				break
			}
			if perr != nil {
				w.reply(conn, &httpx.Response{Status: 400})
				return
			}
			if p.cfg.Buffer.MaxRequestBody > 0 && len(req.Body) > p.cfg.Buffer.MaxRequestBody {
				w.reply(conn, &httpx.Response{Status: 413, Body: []byte("request body exceeds limit")})
				return
			}
			copy(buf, buf[consumed:pending])
			pending -= consumed

			w.hook.EventsFetched(1)
			if d := w.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			start := time.Now()
			resp := w.forward(req)
			w.hook.EventHandled()
			w.Handled.Add(1)
			w.handled.Inc()
			p.tel.RequestLatencyNS.Observe(time.Since(start).Nanoseconds())
			w.tr.Serve(tc.id, arrivalNS, start.UnixNano(), time.Now().UnixNano(), false)
			if _, err := conn.Write(resp.Append(nil)); err != nil {
				return
			}
			if !req.WantsKeepAlive() || p.draining.Load() {
				return
			}
		}
		if p.draining.Load() && pending == 0 {
			// Drain: the in-flight request (if any) was just answered; stop
			// holding the keep-alive connection open.
			return
		}
		w.hook.LoopEnter(time.Now().UnixNano())
		w.hook.ScheduleAndSync(time.Now().UnixNano())
	}
}

func isIdempotent(method string) bool {
	switch method {
	case "GET", "HEAD", "OPTIONS", "TRACE", "PUT", "DELETE":
		// The RFC 9110 idempotent set: safe to replay against a second
		// backend when the first attempt failed.
		return true
	}
	return false
}

// forward proxies one request: pick a backend under the policy (health and
// circuit state included), retry idempotent requests against other backends
// on failure, and surface 502/503 when everything is down. Retry attempts
// publish extra busy units to the WST — a worker grinding on failed backends
// sheds new connections through the same Algorithm-1 path that balances
// load, making backend availability part of the steering decision.
func (w *worker) forward(req *httpx.Request) *httpx.Response {
	p := w.p
	attempts := 1
	if isIdempotent(req.Method) {
		attempts += p.cfg.Buffer.Retries
	}
	var (
		tried   uint64
		lastErr error
	)
	for attempt := 0; attempt < attempts; attempt++ {
		b := p.pool.Pick(tried)
		if b == nil {
			if attempt == 0 {
				p.Unavailable.Add(1)
				p.tel.Unavailable.Inc()
				return &httpx.Response{Status: 503, Body: []byte("no backend available")}
			}
			break // pool exhausted mid-retry
		}
		tried |= 1 << uint(b.idx)
		if attempt > 0 {
			p.tel.RetryAttempts.Inc()
			w.hook.EventsFetched(1) // retry pressure → WST busy → Algorithm 1
		}
		resp, err := w.roundTrip(b, req)
		if attempt > 0 {
			w.hook.EventHandled()
		}
		p.pool.Observe(b, err == nil)
		if err == nil {
			if attempt > 0 {
				p.tel.RetryRecovered.Inc()
			}
			p.Served.Add(1)
			return resp
		}
		lastErr = err
	}
	if attempts > 1 {
		p.tel.RetryExhausted.Inc()
	}
	p.Errors.Add(1)
	p.tel.UpstreamErrors.Inc()
	return &httpx.Response{Status: 502, Body: []byte(lastErr.Error())}
}

// roundTrip performs one upstream exchange against b.
func (w *worker) roundTrip(b *Backend, req *httpx.Request) (*httpx.Response, error) {
	p := w.p
	b.active.Add(1)
	p.tel.BackendActive.At(b.idx).Add(1)
	defer func() {
		b.active.Add(-1)
		p.tel.BackendActive.At(b.idx).Add(-1)
	}()

	up, err := net.DialTimeout("tcp", b.addr, p.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	defer up.Close()

	fwd := *req
	fwd.Headers = append(append([]httpx.Header(nil), req.Headers...),
		httpx.Header{Name: "X-Forwarded-By", Value: fmt.Sprintf("hermes-lb/w%d", w.id)},
		httpx.Header{Name: "Connection", Value: "close"},
	)
	if _, err := up.Write(fwd.Append(nil)); err != nil {
		return nil, err
	}
	_ = up.SetReadDeadline(time.Now().Add(p.cfg.ResponseTimeout))
	data, err := io.ReadAll(up)
	if err != nil && len(data) == 0 {
		return nil, err
	}
	resp, _, perr := httpx.ParseResponse(data)
	if perr != nil {
		return nil, perr
	}
	return resp, nil
}

func (w *worker) reply(conn net.Conn, resp *httpx.Response) {
	_, _ = conn.Write(resp.Append(nil))
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

// Close force-closes everything immediately (tests, demo teardown).
func (p *Proxy) Close() { _ = p.Shutdown(0) }

func (p *Proxy) shutdown(timeout time.Duration) error {
	p.draining.Store(true)
	// Health/circuit state and drains share one eviction path: veto the
	// workers in the selection map so the published bitmap goes empty
	// before the listener closes (observable via /status).
	for i := range p.workers {
		_ = p.ctl.SetWorkerAvailable(i, false)
	}
	p.drainHook.ScheduleAndSync(time.Now().UnixNano())
	p.ln.Close()
	if p.checker != nil {
		p.checker.Stop()
	}
	if p.stopSampler != nil {
		p.stopSampler()
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
	select {
	case <-done:
		return nil
	case <-timer:
	}

	// Deadline exceeded: force-close surviving connections. Workers then
	// finish their bounded upstream exchanges and exit; the second wait is
	// bounded by the dial/response timeouts.
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

// applyFaults arms a wall-clock translation of the sim fault schedule on the
// real proxy: hangs and slowdowns map directly; a crash is approximated as a
// stall until its restart delay (goroutines cannot be SIGKILLed); queue,
// selmap, and probe faults have no real-socket analogue here and are skipped
// with a note.
func (p *Proxy) applyFaults(sched faults.Schedule) {
	for _, ev := range sched.Events {
		ev := ev
		time.AfterFunc(time.Duration(ev.AtNS), func() {
			w := p.victim(ev.Worker)
			switch ev.Kind {
			case faults.Hang:
				w.hangUntilNS.Store(time.Now().UnixNano() + ev.DurNS)
				fmt.Printf("faults: hang w%d for %s\n", w.id, time.Duration(ev.DurNS))
			case faults.Crash:
				dur := ev.RestartNS
				if dur == 0 {
					dur = int64(time.Hour)
				}
				w.hangUntilNS.Store(time.Now().UnixNano() + dur)
				fmt.Printf("faults: crash w%d (stall until restart %s)\n", w.id, time.Duration(dur))
			case faults.Slow:
				// Poison per-request latency instead of scaling CPU: the
				// proxy's cost is dominated by the upstream round trip.
				const base = 5 * time.Millisecond
				w.delay.Store(int64(float64(base) * (ev.Factor - 1)))
				fmt.Printf("faults: slow w%d x%g for %s\n", w.id, ev.Factor, time.Duration(ev.DurNS))
				if ev.DurNS > 0 {
					time.AfterFunc(time.Duration(ev.DurNS), func() { w.delay.Store(0) })
				}
			default:
				fmt.Printf("faults: %s has no real-socket analogue, skipped\n", ev.Kind)
			}
		})
	}
}

// victim resolves a fault's target: a pinned worker id, else the busiest
// worker (deepest queue, then most requests handled) at fire time.
func (p *Proxy) victim(id int) *worker {
	if id >= 0 && id < len(p.workers) {
		return p.workers[id]
	}
	best := p.workers[0]
	for _, w := range p.workers[1:] {
		if len(w.queue) > len(best.queue) ||
			(len(w.queue) == len(best.queue) && w.Handled.Load() > best.Handled.Load()) {
			best = w
		}
	}
	return best
}
