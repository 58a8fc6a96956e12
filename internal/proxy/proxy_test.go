package proxy

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/httpx"
)

// stubUpstream is a controllable real-TCP backend for proxy tests.
type stubUpstream struct {
	t     *testing.T
	addr  string
	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{} // accepted and still open

	accepts atomic.Uint64 // connections accepted
	closes  atomic.Uint64 // accepted connections since ended
	hits    atomic.Uint64
	delay   atomic.Int64 // per-request response delay
	hang    atomic.Bool  // accept + read, never respond
}

func newStubUpstream(t *testing.T) *stubUpstream {
	t.Helper()
	s := &stubUpstream{t: t, conns: map[net.Conn]struct{}{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	s.serveOn(ln)
	t.Cleanup(s.kill)
	return s
}

func (s *stubUpstream) serveOn(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			go s.handle(c, s.accepts.Add(1))
		}
	}()
}

// handle serves the id-th accepted connection; every reply names it in an
// X-Conn field.
func (s *stubUpstream) handle(c net.Conn, id uint64) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.closes.Add(1)
	}()
	buf := make([]byte, 256<<10)
	pending := 0
	for {
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, err := c.Read(buf[pending:])
		if err != nil {
			return
		}
		pending += n
		req, consumed, perr := httpx.ParseRequest(buf[:pending])
		if perr == httpx.ErrIncomplete {
			continue
		}
		if perr != nil {
			return
		}
		copy(buf, buf[consumed:pending])
		pending -= consumed
		s.hits.Add(1)
		if s.hang.Load() {
			time.Sleep(10 * time.Second)
			return
		}
		if d := s.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		resp := httpx.Response{Status: 200, Body: []byte("ok from " + s.addr),
			Headers: []httpx.Header{{Name: "X-Conn", Value: strconv.FormatUint(id, 10)}}}
		if _, err := c.Write(resp.Append(nil)); err != nil {
			return
		}
		if !req.WantsKeepAlive() {
			return
		}
	}
}

// kill stops the stub as a dead process would: the listener and every
// accepted connection close, and new dials are refused until restart.
func (s *stubUpstream) kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
		s.ln = nil
	}
	for c := range s.conns {
		c.Close()
	}
}

// restart re-listens on the same address.
func (s *stubUpstream) restart() {
	s.t.Helper()
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		s.t.Fatal(err)
	}
	s.serveOn(ln)
}

// testConfig is a fast, deterministic baseline: health checks and circuit
// breaking off unless a test turns them on.
func testConfig(backends ...*stubUpstream) Config {
	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Workers = 2
	cfg.HealthCheck.Enabled = false
	cfg.CircuitBreaker.Enabled = false
	cfg.DialTimeout = time.Second
	cfg.ResponseTimeout = 2 * time.Second
	cfg.ClientIdleTimeout = time.Second
	cfg.Backends = nil
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, BackendConfig{Address: b.addr, Weight: 1})
	}
	return cfg
}

func startProxy(t *testing.T, cfg Config, opts ...Option) *Proxy {
	t.Helper()
	p, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// get issues one GET through addr and returns the parsed response.
func get(addr, path string, body []byte) (*httpx.Response, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	method := "GET"
	if len(body) > 0 {
		method = "POST"
	}
	req := httpx.Request{
		Method: method,
		Target: path,
		Headers: []httpx.Header{
			{Name: "Host", Value: "test"},
			{Name: "Connection", Value: "close"},
		},
		Body: body,
	}
	if len(body) > 0 {
		req.Headers = append(req.Headers, httpx.Header{Name: "Content-Length", Value: fmt.Sprint(len(body))})
	}
	if _, err := conn.Write(req.Append(nil)); err != nil {
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	data, err := io.ReadAll(conn)
	if err != nil && len(data) == 0 {
		return nil, err
	}
	resp, _, perr := httpx.ParseResponse(data)
	return resp, perr
}

func TestProxyEndToEnd(t *testing.T) {
	b0, b1 := newStubUpstream(t), newStubUpstream(t)
	p := startProxy(t, testConfig(b0, b1))
	for i := 0; i < 20; i++ {
		resp, err := get(p.Addr(), fmt.Sprintf("/r/%d", i), nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != 200 {
			t.Fatalf("request %d: status %d", i, resp.Status)
		}
	}
	if got := p.Registry().Snapshot().Get("proxy.backend.requests").Total(); got != 20 {
		t.Errorf("served = %d, want 20", got)
	}
	if b0.hits.Load() == 0 || b1.hits.Load() == 0 {
		t.Errorf("round-robin left a backend cold: %d / %d", b0.hits.Load(), b1.hits.Load())
	}
}

// One dead backend: idempotent requests retry onto the live one — zero lost —
// and its circuit opens, evicting the corpse.
func TestProxyRetryCoversDeadBackend(t *testing.T) {
	dead, live := newStubUpstream(t), newStubUpstream(t)
	dead.kill()
	cfg := testConfig(dead, live)
	cfg.Buffer.Retries = 2
	cfg.CircuitBreaker.Enabled = true
	p := startProxy(t, cfg)
	reg := p.Registry()
	for i := 0; i < 30; i++ {
		resp, err := get(p.Addr(), "/", nil)
		if err != nil || resp.Status != 200 {
			t.Fatalf("request %d lost: status=%v err=%v", i, resp, err)
		}
	}
	if n := reg.Snapshot().Get("proxy.retry.recovered").Value; n == 0 {
		t.Error("no retries recorded despite a dead backend")
	}
	if st := p.pool.backends[0].circuit.State(); st != CircuitOpen {
		t.Errorf("dead backend's circuit = %v, want open", st)
	}
	if p.tel.UpstreamErrors.Load() != 0 {
		t.Errorf("errors = %d, want 0 (every request should recover)", p.tel.UpstreamErrors.Load())
	}
}

// Everything down: 502 while failures accumulate, 503 once the pool knows.
// With no prober, the breaker's half-open trial readmits the backend once it
// is back.
func TestProxyAllBackendsDown(t *testing.T) {
	dead := newStubUpstream(t)
	dead.kill()
	cfg := testConfig(dead)
	cfg.CircuitBreaker.Enabled = true
	cfg.CircuitBreaker.FailureThreshold = 1
	cfg.CircuitBreaker.Timeout = 500 * time.Millisecond
	p := startProxy(t, cfg)
	resp, err := get(p.Addr(), "/", nil)
	if err != nil || resp.Status != 502 {
		t.Fatalf("first request: status=%v err=%v, want 502", resp, err)
	}
	resp, err = get(p.Addr(), "/", nil)
	if err != nil || resp.Status != 503 {
		t.Fatalf("second request: status=%v err=%v, want 503 (pool evicted)", resp, err)
	}
	if p.tel.Unavailable.Load() == 0 {
		t.Error("unavailable counter never moved")
	}
	dead.restart()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		resp, err = get(p.Addr(), "/", nil)
		if err == nil && resp.Status == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend back, proxy still answers status=%v err=%v (circuit %v)",
				resp, err, p.pool.backends[0].circuit.State())
		}
	}
}

// A 502's body is fixed, as nginx's page is: the upstream error behind it
// names the backend's address, which is not the client's to read. The
// failure still counts in proxy.upstream_errors and in the backend's row.
func TestProxy502BodyHidesBackend(t *testing.T) {
	dead := newStubUpstream(t)
	dead.kill()
	p := startProxy(t, testConfig(dead))
	resp, err := get(p.Addr(), "/", nil)
	if err != nil || resp.Status != 502 {
		t.Fatalf("request to a dead backend: status=%v err=%v, want 502", resp, err)
	}
	if strings.Contains(string(resp.Body), dead.addr) {
		t.Errorf("502 body %q names the backend %s", resp.Body, dead.addr)
	}
	if n := p.tel.UpstreamErrors.Load(); n != 1 {
		t.Errorf("proxy.upstream_errors = %d, want 1", n)
	}
	if row := p.Registry().Snapshot().Get("proxy.backend.errors"); row == nil || row.Values[0] != 1 {
		t.Errorf("proxy.backend.errors = %+v, want 1 on the dead backend", row)
	}
}

// Bounded buffering: a body over the cap is refused with 413, both when the
// request parses (explicit check) and when it exceeds the buffer entirely
// (the old fixed-buffer code span-looped forever on this).
func TestProxyOversizedRequest(t *testing.T) {
	b := newStubUpstream(t)
	cfg := testConfig(b)
	cfg.Buffer.MaxRequestBody = 1024
	p := startProxy(t, cfg)

	resp, err := get(p.Addr(), "/", make([]byte, 4096))
	if err != nil || resp.Status != 413 {
		t.Fatalf("4KB body: status=%v err=%v, want 413", resp, err)
	}
	resp, err = get(p.Addr(), "/", make([]byte, 128<<10))
	if err != nil || resp.Status != 413 {
		t.Fatalf("128KB body: status=%v err=%v, want 413", resp, err)
	}
	if resp, err := get(p.Addr(), "/", make([]byte, 512)); err != nil || resp.Status != 200 {
		t.Fatalf("512B body: status=%v err=%v, want 200", resp, err)
	}
}

func TestAdminEndpoints(t *testing.T) {
	b0, b1 := newStubUpstream(t), newStubUpstream(t)
	cfg := testConfig(b0, b1)
	cfg.CircuitBreaker.Enabled = true
	p := startProxy(t, cfg)
	for i := 0; i < 5; i++ {
		if _, err := get(p.Addr(), "/", nil); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(AdminHandler(p))
	defer srv.Close()

	read := func(path string, wantStatus int) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		body, _ := io.ReadAll(resp.Body)
		return body
	}

	if body := string(read("/healthz", 200)); !strings.Contains(body, `"status": "ok"`) ||
		!strings.Contains(body, `"policy": "`+cfg.Policy+`"`) {
		t.Errorf("/healthz = %s", body)
	}
	// Each breaker is inside its backend's row; there is no /circuits.
	body := string(read("/backends", 200))
	if !strings.Contains(body, b0.addr) || !strings.Contains(body, b1.addr) ||
		strings.Count(body, `"state": "closed"`) != 2 {
		t.Errorf("/backends = %s", body)
	}
	read("/circuits", 404)
	read("/stats", 200) // its body: TestAdminMetricsPlane
	// The Hermes policy API keeps its shape under the same mux; the
	// availability mask sits beside the selection it vetoes.
	if body := string(read("/status", 200)); !strings.Contains(body, `"selection"`) ||
		!strings.Contains(body, `"available_mask"`) {
		t.Errorf("/status = %s", body)
	}
	read("/policy", 200)

	// Unhealthy pool flips healthz to 503.
	p.pool.setHealthy(p.pool.backends[0], false)
	p.pool.setHealthy(p.pool.backends[1], false)
	if body := read("/healthz", 503); !strings.Contains(string(body), `"status": "unavailable"`) {
		t.Errorf("/healthz all-down = %s", body)
	}
}

// What /backends says of a backend is its slot of the proxy.backend.* rows:
// with one backend dead (every second pick fails and is retried onto the
// live one) the two reads agree field by field, the requests add up to what
// was served, and nothing is left in flight.
func TestBackendFactsCountedOnce(t *testing.T) {
	live, dead := newStubUpstream(t), newStubUpstream(t)
	dead.kill()
	p := startProxy(t, testConfig(live, dead))
	reg := p.Registry()
	const n = 24
	for i := 0; i < n; i++ {
		if resp, err := get(p.Addr(), "/", nil); err != nil || resp.Status != 200 {
			t.Fatalf("request %d: %v %v", i, resp, err)
		}
	}
	snap := reg.Snapshot()
	views := p.backendViews()
	var requests, errs uint64
	for i, v := range views {
		requests, errs = requests+v.Requests, errs+v.Errors
		if got := uint64(snap.Get("proxy.backend.requests").Values[i]); got != v.Requests {
			t.Errorf("backend %d: /backends requests %d, row slot %d", i, v.Requests, got)
		}
		if got := uint64(snap.Get("proxy.backend.errors").Values[i]); got != v.Errors {
			t.Errorf("backend %d: /backends errors %d, row slot %d", i, v.Errors, got)
		}
		if got := snap.Get("proxy.backend.active").Values[i]; got != v.Active || got != 0 {
			t.Errorf("backend %d: /backends active %d, row slot %d, want both 0", i, v.Active, got)
		}
		if got := snap.Get("proxy.backend.healthy").Values[i]; (got == 1) != v.Healthy {
			t.Errorf("backend %d: /backends healthy %v, row slot %d", i, v.Healthy, got)
		}
	}
	if served := snap.Get("proxy.worker.requests_served").Total(); requests != n || served != n {
		t.Errorf("Σ backend requests = %d, workers served %d, want %d", requests, served, n)
	}
	if errs == 0 || views[0].Errors != 0 || views[1].Requests != 0 {
		t.Errorf("the dead backend should hold every error and no request: %+v", views)
	}
}

// Graceful shutdown regression: an in-flight request completes before the
// listener goes away (the old close() dropped it on the floor).
func TestShutdownDrainsInFlight(t *testing.T) {
	b := newStubUpstream(t)
	b.delay.Store(int64(300 * time.Millisecond))
	p, err := New(testConfig(b))
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *httpx.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := get(p.Addr(), "/slow", nil)
		done <- result{resp, err}
	}()
	time.Sleep(100 * time.Millisecond) // request is in flight
	if err := p.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	r := <-done
	if r.err != nil || r.resp.Status != 200 {
		t.Fatalf("in-flight request dropped: status=%v err=%v", r.resp, r.err)
	}
	// Drain vetoed every worker in the availability mask before closing.
	if mask := p.Controller().AvailableMask(0) & 0b11; mask != 0 {
		t.Errorf("worker bits after drain = %b, want 0", mask)
	}
	if _, err := net.DialTimeout("tcp", p.Addr(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// Past the drain deadline, surviving connections are force-closed and
// Shutdown says so.
func TestShutdownForceClosesAfterDeadline(t *testing.T) {
	b := newStubUpstream(t)
	b.hang.Store(true)
	cfg := testConfig(b)
	cfg.ResponseTimeout = 500 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := p.Registry()
	go get(p.Addr(), "/hang", nil)
	time.Sleep(100 * time.Millisecond)
	err = p.Shutdown(100 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "force-closed") {
		t.Fatalf("Shutdown = %v, want force-close error", err)
	}
	if n := reg.Snapshot().Get("proxy.drain.forced_closes").Value; n == 0 {
		t.Error("forced-close counter never moved")
	}
}

// The acceptance soak: kill a backend under load — eviction within three
// probe intervals, the circuit opens, and not one request is lost thanks to
// retries; restart it — health and circuit recover.
func TestHealthEvictionAndRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const probeInterval = 200 * time.Millisecond
	b0, b1 := newStubUpstream(t), newStubUpstream(t)
	cfg := testConfig(b0, b1)
	cfg.Workers = 2
	cfg.Buffer.Retries = 2
	cfg.HealthCheck = HealthCheckConfig{
		Enabled:            true,
		Path:               "/health",
		Interval:           probeInterval,
		Timeout:            100 * time.Millisecond,
		HealthyThreshold:   2,
		UnhealthyThreshold: 2,
	}
	cfg.CircuitBreaker = CircuitBreakerConfig{
		Enabled:          true,
		FailureThreshold: 3,
		SuccessThreshold: 1,
		Timeout:          400 * time.Millisecond,
	}
	p := startProxy(t, cfg)
	reg := p.Registry()

	var lost, served atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := get(p.Addr(), "/soak", nil)
				if err != nil || resp.Status != 200 {
					lost.Add(1)
				} else {
					served.Add(1)
				}
			}
		}()
	}

	time.Sleep(400 * time.Millisecond) // warm: both backends serving
	killedAt := time.Now()
	b0.kill()

	dead := p.pool.backends[0]
	deadline := time.Now().Add(10 * probeInterval)
	for dead.Healthy() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	evictionTook := time.Since(killedAt)
	if dead.Healthy() {
		t.Fatal("dead backend never evicted")
	}
	if evictionTook > 3*probeInterval+probeInterval/2 {
		t.Errorf("eviction took %v, want within 3 probe intervals (%v)", evictionTook, 3*probeInterval)
	}

	// Keep load running through the outage, then recover.
	time.Sleep(3 * probeInterval)
	if dead.circuit.Snapshot().Opens == 0 {
		t.Error("circuit never opened during the outage")
	}
	b0.restart()
	deadline = time.Now().Add(20 * probeInterval)
	for !dead.Healthy() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !dead.Healthy() {
		t.Fatal("restarted backend never recovered")
	}
	// Give the half-open circuit a chance to close through live traffic.
	deadline = time.Now().Add(20 * probeInterval)
	for dead.circuit.State() != CircuitClosed && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := dead.circuit.State(); st != CircuitClosed {
		t.Errorf("circuit = %v after recovery, want closed", st)
	}

	close(stop)
	wg.Wait()
	if lost.Load() != 0 {
		t.Errorf("%d requests lost across kill/recovery (served %d)", lost.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Error("soak served nothing")
	}
	if reg.Snapshot().Get("proxy.health.transitions").Value < 2 {
		t.Error("health transitions not recorded")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backends = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a config with no backends")
	}
}
