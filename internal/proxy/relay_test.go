package proxy

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/httpx"
)

// scriptedUpstream is an origin whose reply is written by the test: every
// connection reads one complete request, records it, and hands the socket to
// the script (which may write in pieces, stall or hang up mid-reply).
type scriptedUpstream struct {
	addr string
	mu   sync.Mutex
	reqs []*httpx.Request
}

func newScriptedUpstream(t *testing.T, script func(c net.Conn, req *httpx.Request)) *scriptedUpstream {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &scriptedUpstream{addr: ln.Addr().String()}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var buf []byte
				chunk := make([]byte, 32<<10)
				_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
				for {
					n, err := c.Read(chunk)
					if err != nil {
						return
					}
					buf = append(buf, chunk[:n]...)
					req, _, perr := httpx.ParseRequest(buf)
					if perr == httpx.ErrIncomplete {
						continue
					}
					if perr != nil {
						return
					}
					s.mu.Lock()
					s.reqs = append(s.reqs, req)
					s.mu.Unlock()
					script(c, req)
					return
				}
			}()
		}
	}()
	return s
}

func (s *scriptedUpstream) requests() []*httpx.Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*httpx.Request(nil), s.reqs...)
}

// writeIn sends s in two segments with a pause between them, so the proxy
// has to relay a reply that is still arriving.
func writeIn(c net.Conn, s string) {
	half := len(s) / 2
	_, _ = io.WriteString(c, s[:half])
	time.Sleep(5 * time.Millisecond)
	_, _ = io.WriteString(c, s[half:])
}

// keepAliveClient is one persistent client connection.
type keepAliveClient struct {
	c  net.Conn
	br *bufio.Reader
}

func dialKeepAlive(t *testing.T, addr string) *keepAliveClient {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &keepAliveClient{c, bufio.NewReader(c)}
}

// do sends one request and reads one framed reply off the connection.
func (k *keepAliveClient) do(method, path, extraHeaders string) (*http.Response, []byte, error) {
	_ = k.c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(k.c, "%s %s HTTP/1.1\r\nHost: test\r\n%s\r\n", method, path, extraHeaders); err != nil {
		return nil, nil, err
	}
	resp, err := http.ReadResponse(k.br, &http.Request{Method: method})
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// The three reply framings of RFC 9112 §6.3, each arriving in pieces, must
// reach the client complete, with the hop-by-hop fields of the upstream hop
// gone and persistence answered from the client's own request.
func TestRelayReplyFramings(t *testing.T) {
	cases := []struct {
		name, method, reply string
		wantBody            string
		wantKeep            bool
	}{
		{"content-length", "GET",
			"HTTP/1.1 200 OK\r\nContent-Length: 11\r\nConnection: close\r\nKeep-Alive: timeout=5\r\nX-Origin: o1\r\n\r\nhello world",
			"hello world", true},
		{"chunked", "GET",
			"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\nX-Origin: o1\r\n\r\n" +
				"5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n",
			"hello world", true},
		{"close-delimited", "GET",
			"HTTP/1.1 200 OK\r\nX-Origin: o1\r\n\r\nhello world",
			"hello world", false},
		{"no-content", "GET",
			"HTTP/1.1 204 No Content\r\nConnection: close\r\nX-Origin: o1\r\n\r\n",
			"", true},
		{"head", "HEAD",
			"HTTP/1.1 200 OK\r\nContent-Length: 11\r\nX-Origin: o1\r\n\r\n",
			"", true},
		{"interim-then-final", "GET",
			"HTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 11\r\nX-Origin: o1\r\n\r\nhello world",
			"hello world", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			up := newScriptedUpstream(t, func(c net.Conn, _ *httpx.Request) { writeIn(c, tc.reply) })
			cfg := testConfig()
			cfg.Backends = []BackendConfig{{Address: up.addr, Weight: 1}}
			p := startProxy(t, cfg)
			k := dialKeepAlive(t, p.Addr())
			for round := 0; round < 2; round++ {
				resp, body, err := k.do(tc.method, "/x", "")
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if resp.StatusCode/100 != 2 || string(body) != tc.wantBody {
					t.Fatalf("round %d: status %d body %q, want 2xx %q", round, resp.StatusCode, body, tc.wantBody)
				}
				if resp.Header.Get("X-Origin") != "o1" {
					t.Errorf("end-to-end field lost: %v", resp.Header)
				}
				if resp.Header.Get("Keep-Alive") != "" {
					t.Errorf("upstream's Keep-Alive relayed: %v", resp.Header)
				}
				if resp.Close == tc.wantKeep {
					t.Errorf("reply says close=%v, want keep=%v", resp.Close, tc.wantKeep)
				}
				if !tc.wantKeep {
					if _, err := k.br.ReadByte(); err != io.EOF {
						t.Errorf("close-delimited reply left the client connection open (%v)", err)
					}
					break
				}
			}
			if p.tel.UpstreamErrors.Load() != 0 {
				t.Errorf("errors = %d, want 0", p.tel.UpstreamErrors.Load())
			}
		})
	}
}

// What goes upstream: the client's end-to-end fields, X-Forwarded-By, and
// none of the client's hop-by-hop fields. An HTTP/1.1 request carries no
// Connection field, so the upstream connection stays open for the next
// request; an HTTP/1.0 one carries exactly one Connection: close of our own.
func TestRequestHopByHopStripped(t *testing.T) {
	for proto, wantConn := range map[string][]string{"HTTP/1.1": nil, "HTTP/1.0": {"close"}} {
		t.Run(proto, func(t *testing.T) {
			up := newScriptedUpstream(t, func(c net.Conn, req *httpx.Request) {
				_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
			})
			cfg := testConfig()
			cfg.Backends = []BackendConfig{{Address: up.addr, Weight: 1}}
			p := startProxy(t, cfg)
			k := dialKeepAlive(t, p.Addr())
			hdrs := "Connection: keep-alive, X-Session-Hop\r\nKeep-Alive: timeout=9\r\nX-Session-Hop: s\r\nX-Bench-Id: 42\r\n" +
				"Content-Length: 4\r\n"
			_ = k.c.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := fmt.Fprintf(k.c, "POST /p %s\r\nHost: test\r\n%s\r\nbody", proto, hdrs); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(k.br, nil)
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("reply: %v %v", resp, err)
			}
			reqs := up.requests()
			if len(reqs) != 1 {
				t.Fatalf("upstream saw %d requests", len(reqs))
			}
			req := reqs[0]
			var conns []string
			for _, h := range req.Headers {
				switch strings.ToLower(h.Name) {
				case "connection":
					conns = append(conns, h.Value)
				case "keep-alive", "x-session-hop":
					t.Errorf("hop-by-hop field %q forwarded", h.Name)
				}
			}
			if fmt.Sprint(conns) != fmt.Sprint(wantConn) {
				t.Errorf("upstream Connection fields = %q, want exactly %q", conns, wantConn)
			}
			if v, _ := req.Get("X-Forwarded-By"); !strings.HasPrefix(v, "hermes-lb/w") {
				t.Errorf("X-Forwarded-By = %q", v)
			}
			if v, _ := req.Get("X-Bench-Id"); v != "42" || string(req.Body) != "body" || req.Target != "/p" || req.Proto != proto {
				t.Errorf("end-to-end content changed: %+v body %q", req, req.Body)
			}
		})
	}
}

// A reply cut short before its head is complete has relayed nothing: an
// idempotent request moves to the next backend, and with none left the client
// gets a 502. Cut short mid-body, part of it has reached the client: the
// client connection is closed and the failure is counted.
func TestRelayTruncation(t *testing.T) {
	ok := func(c net.Conn, _ *httpx.Request) {
		_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	}
	cutHead := func(c net.Conn, _ *httpx.Request) { _, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Le") }

	t.Run("before-head-retries", func(t *testing.T) {
		bad, good := newScriptedUpstream(t, cutHead), newScriptedUpstream(t, ok)
		cfg := testConfig()
		cfg.Backends = []BackendConfig{{Address: bad.addr, Weight: 1}, {Address: good.addr, Weight: 1}}
		cfg.Buffer.Retries = 1
		p := startProxy(t, cfg)
		reg := p.Registry()
		k := dialKeepAlive(t, p.Addr())
		for i := 0; i < 4; i++ {
			resp, body, err := k.do("GET", "/", "")
			if err != nil || resp.StatusCode != 200 || string(body) != "ok" {
				t.Fatalf("request %d: %v %q %v", i, resp, body, err)
			}
		}
		if n := reg.Snapshot().Get("proxy.retry.recovered").Value; n == 0 {
			t.Error("no retry recorded although one backend cuts every reply")
		}
		if p.tel.UpstreamErrors.Load() != 0 {
			t.Errorf("errors = %d, want 0", p.tel.UpstreamErrors.Load())
		}
	})

	t.Run("before-head-502", func(t *testing.T) {
		bad := newScriptedUpstream(t, cutHead)
		cfg := testConfig()
		cfg.Backends = []BackendConfig{{Address: bad.addr, Weight: 1}}
		p := startProxy(t, cfg)
		k := dialKeepAlive(t, p.Addr())
		resp, _, err := k.do("GET", "/", "")
		if err != nil || resp.StatusCode != 502 {
			t.Fatalf("reply: %v %v, want 502", resp, err)
		}
		if resp, _, err = k.do("GET", "/", ""); err != nil || resp.StatusCode != 502 {
			t.Fatalf("connection not kept after a 502: %v %v", resp, err)
		}
	})

	for name, reply := range map[string]string{
		"mid-body-length":  "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello",
		"mid-body-chunked": "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n5\r\nwo",
	} {
		t.Run(name, func(t *testing.T) {
			bad := newScriptedUpstream(t, func(c net.Conn, _ *httpx.Request) { writeIn(c, reply) })
			cfg := testConfig()
			cfg.Backends = []BackendConfig{{Address: bad.addr, Weight: 1}}
			cfg.Buffer.Retries = 2
			p := startProxy(t, cfg)
			reg := p.Registry()
			k := dialKeepAlive(t, p.Addr())
			resp, body, err := k.do("GET", "/", "")
			if resp == nil || resp.StatusCode != 200 {
				t.Fatalf("head not relayed: %v %v", resp, err)
			}
			if err == nil || !bytes.HasPrefix(body, []byte("hello")) {
				t.Fatalf("body %q err %v, want a visibly truncated reply", body, err)
			}
			if _, err := k.br.ReadByte(); err == nil {
				t.Error("client connection still open after a truncated reply")
			}
			if n := reg.Snapshot().Get("proxy.upstream_errors").Value; n != 1 {
				t.Errorf("proxy.upstream_errors = %v, want 1", n)
			}
			if n := reg.Snapshot().Get("proxy.retry.attempts").Value; n != 0 {
				t.Errorf("retried %v times after bytes had reached the client", n)
			}
			if got := len(bad.requests()); got != 1 {
				t.Errorf("upstream saw %d requests, want 1", got)
			}
		})
	}
}

// An idle fleet must stay selectable: the heartbeat republishes every
// worker's loop-enter stamp, so FilterTime never sees a healthy idle worker
// as hung and the acceptor never falls back to hashing for want of workers.
func TestIdleWorkersStaySelectable(t *testing.T) {
	cfg := testConfig(newStubUpstream(t))
	cfg.Workers = 4
	p := startProxy(t, cfg)
	hang := p.Controller().Config().HangThreshold
	if bm := p.Controller().Selection(0); bm != 0b1111 {
		t.Fatalf("selection bitmap = %04b right after New, want 1111", bm)
	}
	time.Sleep(10 * hang)
	if bm := p.Controller().Selection(0); bm != 0b1111 {
		t.Fatalf("/status selection bitmap = %04b after idling, want 1111", bm)
	}
}

// The proxy runs the simulator's control loop: core's defaults, unchanged.
func TestProxyControllerRunsCoreDefaults(t *testing.T) {
	p := startProxy(t, testConfig(newStubUpstream(t)))
	if got := p.Controller().Config(); got != core.DefaultConfig() {
		t.Fatalf("proxy controller config %+v, want core.DefaultConfig() %+v", got, core.DefaultConfig())
	}
}

// One large request must not leave a large buffer behind: grown buffers go
// to the GC, the free list keeps only default-size ones, and every buffer
// taken is handed back by the time the proxy has drained.
func TestBufferRetentionAndConservation(t *testing.T) {
	up := newScriptedUpstream(t, func(c net.Conn, _ *httpx.Request) {
		_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	})
	cfg := testConfig()
	cfg.Backends = []BackendConfig{{Address: up.addr, Weight: 1}}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := dialKeepAlive(t, p.Addr())
	big := strings.Repeat("x", 1<<20)
	_ = k.c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(k.c, "POST /big HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n%s", len(big), big); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.ReadResponse(k.br, nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("1 MiB POST: %v %v", resp, err)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	// The same connection, small again: it must be back on a default buffer.
	if resp, _, err := k.do("GET", "/small", ""); err != nil || resp.StatusCode != 200 {
		t.Fatalf("follow-up request: %v %v", resp, err)
	}
	if err := p.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if gets, puts := p.bufs.gets.Load(), p.bufs.puts.Load(); gets != puts || gets == 0 {
		t.Errorf("buffer pool: %d gets, %d puts after drain", gets, puts)
	}
	for n := len(p.bufs.free); n > 0; n-- {
		if buf := <-p.bufs.free; cap(buf) != bufSize {
			t.Errorf("free list retains a %d-byte buffer, want only %d", cap(buf), bufSize)
		}
	}
}

// Slow loris: with every worker but one vetoed, an idle keep-alive connection
// and a header dripped a byte at a time both sit on that worker — and a third
// connection's request still goes straight through.
func TestSlowClientsDoNotBlockTheWorker(t *testing.T) {
	cfg := testConfig(newStubUpstream(t))
	cfg.Workers = 4
	cfg.ClientIdleTimeout = 5 * time.Second
	p := startProxy(t, cfg)
	pol := p.Controller().Config()
	// Steer by the bitmap even when it holds one worker, and keep that worker
	// in it however many connections it carries against the idle three.
	pol.MinWorkers, pol.ThetaFrac = 1, 64
	if err := p.Controller().SetConfig(pol); err != nil {
		t.Fatal(err)
	}
	for w := 1; w < cfg.Workers; w++ {
		if err := p.Controller().SetWorkerAvailable(w, false); err != nil {
			t.Fatal(err)
		}
	}
	p.sync() // publish the veto now, not at the next heartbeat

	idle := dialKeepAlive(t, p.Addr())
	if resp, _, err := idle.do("GET", "/warm", ""); err != nil || resp.StatusCode != 200 {
		t.Fatalf("warm-up on the idle connection: %v %v", resp, err)
	}
	drip := dialKeepAlive(t, p.Addr())
	stop := make(chan struct{})
	var dripped sync.WaitGroup
	dripped.Add(1)
	go func() {
		defer dripped.Done()
		for _, b := range []byte("GET /drip HTTP/1.1\r\nHost: slow\r\nX-Pad: aaaaaaaaaaaaaaaa") {
			if _, err := drip.c.Write([]byte{b}); err != nil {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}()
	defer func() { close(stop); dripped.Wait() }()
	time.Sleep(150 * time.Millisecond) // both slow connections are parked on worker 0

	before := p.WorkerHandled(0)
	start := time.Now()
	resp, err := get(p.Addr(), "/third", nil)
	took := time.Since(start)
	if err != nil || resp.Status != 200 {
		t.Fatalf("third connection: %v %v", resp, err)
	}
	if took > 50*time.Millisecond {
		t.Errorf("third connection waited %v behind an idle and a dripping connection, want < 50ms", took)
	}
	if p.WorkerHandled(0) != before+1 {
		t.Errorf("third request did not run on the one available worker")
	}
}

// Drain with many connections parked on every worker: the nudge wakes all of
// them, none is force-closed, and a request in flight still completes.
func TestDrainWithManyParkedConnections(t *testing.T) {
	b := newStubUpstream(t)
	b.delay.Store(int64(100 * time.Millisecond))
	p, err := New(testConfig(b))
	if err != nil {
		t.Fatal(err)
	}
	reg := p.Registry()
	const parked = 64
	var served atomic.Int32
	var clients sync.WaitGroup
	for i := 0; i < parked; i++ {
		k := dialKeepAlive(t, p.Addr())
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			if i%8 == 0 { // a few are mid-request when the drain starts
				if resp, _, err := k.do("GET", "/slow", ""); err == nil && resp.StatusCode == 200 {
					served.Add(1)
				}
			}
			_, _ = k.br.ReadByte() // parked until the proxy hangs up
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	open := int64(0)
	for _, w := range p.workers {
		open += w.hook.Metrics().Conn
	}
	if open != parked {
		t.Errorf("WST counts %d open connections, want %d", open, parked)
	}
	if err := p.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	clients.Wait()
	if got := served.Load(); got != parked/8 {
		t.Errorf("%d of %d in-flight requests completed across the drain", got, parked/8)
	}
	if n := reg.Snapshot().Get("proxy.drain.forced_closes").Value; n != 0 {
		t.Errorf("%v connections force-closed in a graceful drain", n)
	}
	for _, w := range p.workers {
		if m := w.hook.Metrics(); m.Conn != 0 || m.Busy != 0 {
			t.Errorf("worker %d WST row after drain: %+v", w.id, m)
		}
	}
}
