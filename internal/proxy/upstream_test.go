package proxy

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/httpx"
)

// settle waits until nothing is in flight to b, so the last exchange's
// connection has been kept or closed.
func settle(t *testing.T, b *Backend) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); b.active.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("backend %d still has %d requests in flight", b.idx, b.active.Load())
		}
	}
}

// dials is the proxy.backend.dials row's total.
func dials(p *Proxy) uint64 {
	return uint64(p.Registry().Snapshot().Get("proxy.backend.dials").Total())
}

// Requests from many client connections, whichever worker serves them, share
// one backend's idle list: back to back they all go out on one connection.
func TestUpstreamReuseOneDial(t *testing.T) {
	b := newStubUpstream(t)
	p := startProxy(t, testConfig(b))
	k := dialKeepAlive(t, p.Addr())
	const n = 20
	for i := 0; i < n; i++ {
		// A keep-alive client has its reply before the connection is back on
		// the list; the next request must not race it there.
		settle(t, p.pool.backends[0])
		if i%2 == 0 {
			resp, err := get(p.Addr(), "/", nil)
			if err != nil || resp.Status != 200 {
				t.Fatalf("request %d: %v %v", i, resp, err)
			}
			continue
		}
		if resp, _, err := k.do("GET", "/", ""); err != nil || resp.StatusCode != 200 || resp.Header.Get("X-Conn") != "1" {
			t.Fatalf("request %d: %v %v", i, resp, err)
		}
	}
	if got := b.accepts.Load(); got != 1 {
		t.Errorf("backend accepted %d connections for %d requests, want 1", got, n)
	}
	if got := dials(p); got != 1 {
		t.Errorf("proxy.backend.dials = %d, want 1", got)
	}
	// The last request is counted once its reply has reached the client.
	for deadline := time.Now().Add(2 * time.Second); p.backendViews()[0].Requests != n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if v := p.backendViews()[0]; v.Dials != 1 || v.Requests != n {
		t.Errorf("/backends: %d dials, %d requests, want 1 and %d", v.Dials, v.Requests, n)
	}
}

// An origin that closes after every reply without saying so leaves a dead
// connection on the idle list each time. The next request finds it out, at
// the peek before reuse or before any reply byte, and goes out on a new dial:
// every request gets its 200, none is retried onto the other backend, and no
// breaker hears of it.
func TestUpstreamSilentCloseRedialled(t *testing.T) {
	reply := func(c net.Conn, _ *httpx.Request) {
		_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	}
	b0, b1 := newScriptedUpstream(t, reply), newScriptedUpstream(t, reply)
	cfg := testConfig()
	cfg.Backends = []BackendConfig{{Address: b0.addr, Weight: 1}, {Address: b1.addr, Weight: 1}}
	cfg.Buffer.Retries = 1
	cfg.CircuitBreaker.Enabled = true
	cfg.CircuitBreaker.FailureThreshold = 1
	p := startProxy(t, cfg)
	k := dialKeepAlive(t, p.Addr())
	const n = 10
	for i := 0; i < n; i++ {
		if resp, body, err := k.do("GET", "/", ""); err != nil || resp.StatusCode != 200 || string(body) != "ok" {
			t.Fatalf("request %d: %v %q %v", i, resp, body, err)
		}
	}
	noUpstreamFailure(t, p)
	if got := dials(p); got != n {
		t.Errorf("proxy.backend.dials = %d, want %d (one per request: every kept connection died)", got, n)
	}
}

// noUpstreamFailure fails t if any request p proxied failed against a backend
// or was retried.
func noUpstreamFailure(t *testing.T, p *Proxy) {
	t.Helper()
	snap := p.Registry().Snapshot()
	for _, row := range []string{"proxy.retry.attempts", "proxy.upstream_errors", "proxy.circuit.opens"} {
		if v := snap.Get(row).Value; v != 0 {
			t.Errorf("%s = %d, want 0", row, v)
		}
	}
	if v := snap.Get("proxy.backend.errors").Total(); v != 0 {
		t.Errorf("proxy.backend.errors = %d, want 0", v)
	}
}

// A backend may close a keep-alive connection once it has idled long enough,
// or write on it first (a 408) and hang up later. Neither connection is
// reused: the next request, a POST included, dials and gets its 200, and
// neither the breaker nor the retry budget hears of it.
func TestUpstreamIdleClosedOrWrittenNotReused(t *testing.T) {
	for _, idle := range []string{"closed", "408"} {
		for _, method := range []string{"GET", "POST"} {
			t.Run(idle+"/"+method, func(t *testing.T) {
				hold := make(chan struct{})
				t.Cleanup(func() { close(hold) })
				pooled, idled := make(chan struct{}), make(chan struct{})
				up := newScriptedUpstream(t, func(c net.Conn, _ *httpx.Request) {
					_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
					<-pooled
					if idle == "closed" {
						c.Close()
						idled <- struct{}{}
						return
					}
					_, _ = io.WriteString(c, "HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
					idled <- struct{}{}
					<-hold
				})
				cfg := testConfig()
				cfg.Backends = []BackendConfig{{Address: up.addr, Weight: 1}}
				cfg.CircuitBreaker.Enabled = true
				cfg.CircuitBreaker.FailureThreshold = 1
				p := startProxy(t, cfg)
				var body []byte
				if method == "POST" {
					body = []byte("data")
				}
				for i := 0; i < 2; i++ {
					resp, err := get(p.Addr(), "/", body)
					if err != nil || resp.Status != 200 || string(resp.Body) != "ok" {
						t.Fatalf("request %d: %v %v, want 200 ok", i, resp, err)
					}
					// Once the connection is back on the idle list, the
					// backend closes it or writes on it.
					settle(t, p.pool.backends[0])
					pooled <- struct{}{}
					<-idled
					time.Sleep(10 * time.Millisecond)
				}
				noUpstreamFailure(t, p)
				if got := dials(p); got != 2 {
					t.Errorf("proxy.backend.dials = %d, want 2", got)
				}
			})
		}
	}
}

// A backend can still close a connection just as a request goes out on it,
// after the peek found it open. Here every connection is dropped, unanswered,
// when its second request arrives. An idempotent request goes out once more
// on a new dial and gets its 200, with no retry and no breaker failure. A
// POST that was written is not resent, since the backend may have acted on
// it: it fails with a 502, the trade-off docs/PROXY.md states.
func TestUpstreamClosedAsRequestArrives(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				req, err := http.ReadRequest(br)
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, req.Body)
				_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
				_, _ = http.ReadRequest(br)
			}()
		}
	}()
	for _, method := range []string{"GET", "POST"} {
		t.Run(method, func(t *testing.T) {
			cfg := testConfig()
			cfg.Backends = []BackendConfig{{Address: ln.Addr().String(), Weight: 1}}
			p := startProxy(t, cfg)
			var body []byte
			if method == "POST" {
				body = []byte("data")
			}
			for i, want := range []int{200, 200} {
				if method == "POST" && i == 1 {
					want = 502
				}
				resp, err := get(p.Addr(), "/", body)
				if err != nil || resp.Status != want {
					t.Fatalf("request %d: %v %v, want %d", i, resp, err, want)
				}
				settle(t, p.pool.backends[0])
			}
			snap := p.Registry().Snapshot()
			if v := snap.Get("proxy.retry.attempts").Value; v != 0 {
				t.Errorf("proxy.retry.attempts = %d, want 0", v)
			}
			wantDials, wantErrs := uint64(2), int64(0)
			if method == "POST" {
				wantDials, wantErrs = 1, 1
			}
			if got := dials(p); got != wantDials {
				t.Errorf("proxy.backend.dials = %d, want %d", got, wantDials)
			}
			if got := snap.Get("proxy.backend.errors").Total(); got != wantErrs {
				t.Errorf("proxy.backend.errors = %d, want %d", got, wantErrs)
			}
		})
	}
}

// A connection goes back on the idle list only when both ends meant to keep
// it and the reply ended exactly where its framing says.
func TestUpstreamNotPooled(t *testing.T) {
	cases := []struct {
		name, proto, reply string
		status             int
		pooled             bool
	}{
		{"kept", "HTTP/1.1", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", 200, true},
		{"chunked-kept", "HTTP/1.1", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n", 200, true},
		{"bodiless-kept", "HTTP/1.1", "HTTP/1.1 204 No Content\r\n\r\n", 204, true},
		{"connection-close", "HTTP/1.1", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok", 200, false},
		{"close-framed", "HTTP/1.1", "HTTP/1.1 200 OK\r\n\r\nok", 200, false},
		{"http/1.0-reply", "HTTP/1.1", "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", 200, false},
		{"http/1.0-request", "HTTP/1.0", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", 200, false},
		{"bytes-beyond-body", "HTTP/1.1", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n", 200, false},
		{"cut-mid-body", "HTTP/1.1", "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello", 200, false},
		{"switching-protocols", "HTTP/1.1", "HTTP/1.1 101 Switching Protocols\r\nConnection: upgrade\r\nUpgrade: x\r\n\r\n", 502, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			up := newScriptedUpstream(t, func(c net.Conn, _ *httpx.Request) { _, _ = io.WriteString(c, tc.reply) })
			cfg := testConfig()
			cfg.Backends = []BackendConfig{{Address: up.addr, Weight: 1}}
			p := startProxy(t, cfg)
			k := dialKeepAlive(t, p.Addr())
			_ = k.c.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := fmt.Fprintf(k.c, "GET / %s\r\nHost: test\r\n\r\n", tc.proto); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(k.br, &http.Request{Method: "GET"})
			if err != nil || resp.StatusCode != tc.status {
				t.Fatalf("reply: %v %v, want status %d", resp, err, tc.status)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			b := p.pool.backends[0]
			settle(t, b)
			want := 0
			if tc.pooled {
				want = 1
			}
			if got := len(b.idle); got != want {
				t.Errorf("idle list holds %d connections after the reply, want %d", got, want)
			}
		})
	}
}

// A backend the prober marks down or whose breaker opens has its connections
// retired, idle or out on a request: once readmitted, no request goes out on
// a connection from before.
func TestUpstreamFlushedOnDownAndOpen(t *testing.T) {
	s := newStubUpstream(t)
	cfg := testConfig(s)
	cfg.CircuitBreaker.Enabled = true
	cfg.CircuitBreaker.FailureThreshold = 1
	cfg.CircuitBreaker.SuccessThreshold = 1
	cfg.CircuitBreaker.Timeout = 50 * time.Millisecond
	p := startProxy(t, cfg)
	b := p.pool.backends[0]
	k := dialKeepAlive(t, p.Addr())
	conn := func(want string) {
		t.Helper()
		resp, _, err := k.do("GET", "/", "")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("request: %v %v", resp, err)
		}
		if got := resp.Header.Get("X-Conn"); got != want {
			t.Fatalf("request went out on upstream connection %s, want %s", got, want)
		}
		settle(t, b) // the connection is back on the idle list
	}
	conn("1")
	conn("1")

	// The prober's verdict: down, then up again.
	p.pool.setHealthy(b, false)
	p.pool.setHealthy(b, true)
	conn("2")

	// The breaker opens; its half-open trial is the next request.
	failOn(p.pool, b, 1)
	time.Sleep(cfg.CircuitBreaker.Timeout)
	conn("3")
	if st := b.circuit.State(); st != CircuitClosed {
		t.Fatalf("circuit = %v after its trial succeeded", st)
	}

	// Out on a request while the backend goes down: closed when it returns.
	s.delay.Store(int64(100 * time.Millisecond))
	done := make(chan error, 1)
	go func() {
		resp, err := get(p.Addr(), "/", nil)
		if err == nil && resp.Status != 200 {
			err = fmt.Errorf("status %d", resp.Status)
		}
		done <- err
	}()
	for b.active.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	p.pool.setHealthy(b, false)
	p.pool.setHealthy(b, true)
	if err := <-done; err != nil {
		t.Fatalf("request in flight across the flush: %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); s.closes.Load() != 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("backend saw %d of its 3 retired connections closed", s.closes.Load())
		}
	}
	s.delay.Store(0)
	conn("4")
}

// After Shutdown the proxy holds no upstream socket: every connection it
// dialled has been closed, idle ones included.
func TestShutdownClosesEveryUpstream(t *testing.T) {
	s0, s1 := newStubUpstream(t), newStubUpstream(t)
	p, err := New(testConfig(s0, s1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if resp, err := get(p.Addr(), "/", nil); err != nil || resp.Status != 200 {
					t.Errorf("request: %v %v", resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := p.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	opened := s0.accepts.Load() + s1.accepts.Load()
	if got := dials(p); got != opened || opened == 0 {
		t.Errorf("proxy.backend.dials = %d, backends accepted %d", got, opened)
	}
	for deadline := time.Now().Add(2 * time.Second); s0.closes.Load()+s1.closes.Load() != opened; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d upstream connections still open after Shutdown", opened-s0.closes.Load()-s1.closes.Load(), opened)
		}
	}
	for _, b := range p.pool.backends {
		if n := len(b.idle); n != 0 {
			t.Errorf("backend %d idle list holds %d connections after Shutdown", b.idx, n)
		}
	}
}

// sinkUpstream accepts connections and never reads from them.
func sinkUpstream(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	return ln.Addr().String()
}

// The response timeout bounds the whole upstream exchange, the write of the
// request included: a backend that never reads a large body costs the client
// a 502 after about response_timeout, and cannot hold Shutdown past it.
func TestUpstreamWriteDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.Backends = []BackendConfig{{Address: sinkUpstream(t), Weight: 1}}
	cfg.ResponseTimeout = 500 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 8<<20)

	start := time.Now()
	resp, err := get(p.Addr(), "/big", body)
	if took := time.Since(start); err != nil || resp.Status != 502 || took > 2*time.Second {
		t.Fatalf("8 MiB POST to a backend that never reads: %v %v after %v, want a 502 after about %v",
			resp, err, took, cfg.ResponseTimeout)
	}

	go get(p.Addr(), "/big", body)
	for p.pool.backends[0].active.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	start = time.Now()
	err = p.Shutdown(200 * time.Millisecond)
	if took := time.Since(start); took > time.Second {
		t.Errorf("Shutdown(200ms) took %v with a request writing to a backend that never reads", took)
	}
	if err == nil || !strings.Contains(err.Error(), "force-closed") {
		t.Errorf("Shutdown = %v, want a force-close error", err)
	}
}
