package proxy

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hermes/internal/httpx"
)

// parked returns the connection states on p's idle list, parked last last.
func parked(p *Proxy) []*conn {
	p.idle.mu.Lock()
	defer p.idle.mu.Unlock()
	return append([]*conn(nil), p.idle.parked...)
}

// waitParked waits until n connection goroutines are parked.
func waitParked(t *testing.T, p *Proxy, n int) []*conn {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := parked(p)
		if len(got) == n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connection goroutines parked, want %d", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A goroutine that served a client serves the next one as if it were new:
// connection A leaves in the middle of a pipelined HTTP/1.0 request whose
// body had outgrown the pooled buffer, and connection B, on A's goroutine,
// sees none of A's bytes, framing or persistence.
func TestRecycledConnStartsClean(t *testing.T) {
	up := newScriptedUpstream(t, func(c net.Conn, _ *httpx.Request) {
		_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	})
	cfg := testConfig()
	cfg.Backends = []BackendConfig{{Address: up.addr, Weight: 1}}
	p := startProxy(t, cfg)

	a := dialKeepAlive(t, p.Addr())
	if resp, _, err := a.do("GET", "/a", ""); err != nil || resp.StatusCode != 200 {
		t.Fatalf("A's first request: %v %v", resp, err)
	}
	// Half of a 2×bufSize body: the goroutine grows its buffer to the
	// request's size, handing the pooled one back, and is waiting for the
	// rest when A hangs up.
	puts := p.bufs.puts.Load()
	partial := fmt.Sprintf("POST /leak HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: %d\r\n\r\n%s",
		2*bufSize, strings.Repeat("x", bufSize))
	if _, err := io.WriteString(a.c, partial); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.bufs.puts.Load() == puts {
		if time.Now().After(deadline) {
			t.Fatal("A's goroutine never grew its buffer")
		}
		time.Sleep(time.Millisecond)
	}
	a.c.Close()
	first := waitParked(t, p, 1)[0]

	b := dialKeepAlive(t, p.Addr())
	for _, path := range []string{"/b1", "/b2"} {
		resp, body, err := b.do("GET", path, "")
		if err != nil || resp.StatusCode != 200 || string(body) != "ok" {
			t.Fatalf("B %s: %v %q %v", path, resp, body, err)
		}
		if resp.Close || resp.Header.Get("Connection") != "" {
			t.Errorf("B %s: reply says Connection %q (close=%v), want an HTTP/1.1 keep-alive reply", path, resp.Header.Get("Connection"), resp.Close)
		}
	}
	if n := len(parked(p)); n != 0 {
		t.Errorf("%d goroutines parked while B is open, want A's serving B", n)
	}
	b.c.Close()
	if again := waitParked(t, p, 1)[0]; again != first {
		t.Error("B was served by a new goroutine, not A's")
	}

	var got []string
	for _, r := range up.requests() {
		got = append(got, r.Method+" "+r.Target+" "+r.Proto)
	}
	if want := []string{"GET /a HTTP/1.1", "GET /b1 HTTP/1.1", "GET /b2 HTTP/1.1"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("upstream saw %q, want %q", got, want)
	}
}

// Churn, then Close: every connection goroutine, parked or not, has exited
// by the time Close returns, so nothing of a stopped proxy stays reachable.
func TestCloseEndsParkedGoroutines(t *testing.T) {
	up := newStubUpstream(t)
	before := runtime.NumGoroutine()
	p, err := New(testConfig(up))
	if err != nil {
		t.Fatal(err)
	}
	const clients, each = 8, 25
	var wg sync.WaitGroup
	var failed atomic.Int32
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if resp, err := get(p.Addr(), "/churn", nil); err != nil || resp.Status != 200 {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d connections failed", n, clients*each)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(parked(p)) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := len(parked(p)); n == 0 || n > freeSlots {
		t.Fatalf("%d goroutines parked after %d connections, want 1..%d", n, clients*each, freeSlots)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting after 5s: a parked goroutine was never ended")
	}
	// The upstream stub's handlers end once Close has flushed the idle list.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before New:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(parked(p)); n != 0 {
		t.Errorf("%d goroutines still on the closed idle list", n)
	}
}

// emfileListener fails its first accepts the way a process out of file
// descriptors does, then accepts normally.
type emfileListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *emfileListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(), Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// EMFILE is transient: the acceptor counts it, backs off and goes on
// accepting, so the connection waiting behind the failures is served.
func TestAcceptorSurvivesEMFILE(t *testing.T) {
	p := startProxy(t, testConfig(newStubUpstream(t)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const fails = 4 // 5 + 10 + 20 + 40 ms of backoff
	el := &emfileListener{Listener: ln}
	el.fails.Store(fails)
	p.wg.Add(1)
	go p.acceptLoop(el)
	t.Cleanup(func() { ln.Close() }) // before p.Close, which waits for this loop

	resp, err := get(ln.Addr().String(), "/after-emfile", nil)
	if err != nil || resp.Status != 200 {
		t.Fatalf("connection behind %d EMFILEs: %v %v", fails, resp, err)
	}
	if n := p.Registry().Snapshot().Get("proxy.accept_errors").Value; n != fails {
		t.Errorf("proxy.accept_errors = %v, want %d", n, fails)
	}
}
