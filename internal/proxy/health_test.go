package proxy

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"hermes/internal/httpx"
)

// probeOrigin listens on loopback and answers each connection's first request
// with reply; it then leaves the connection to after, which decides how the
// origin misbehaves. The listener closes with the test.
func probeOrigin(t *testing.T, reply string, after func(net.Conn)) string {
	t.Helper()
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
				r := bufio.NewReader(c)
				for { // the request head, to its blank line
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if line == "\r\n" {
						break
					}
				}
				if _, err := c.Write([]byte(reply)); err != nil {
					return
				}
				after(c)
			}()
		}
	}()
	return ln.Addr().String()
}

// holdOpen ignores the probe's Connection: close and waits for the peer.
func holdOpen(c net.Conn) { _, _ = c.Read(make([]byte, 1)) }

func testChecker(timeout time.Duration) *checker {
	return newChecker(HealthCheckConfig{Path: "/health", Timeout: timeout}, nil)
}

// A backend that keeps the connection alive after its reply used to cost a
// whole Timeout per probe (io.ReadAll waited for EOF); the verdict is in the
// status line, so the probe must come back as soon as the head is complete.
func TestProbeKeepAliveOriginAnswersAtOnce(t *testing.T) {
	const timeout = 5 * time.Second
	for _, tc := range []struct {
		name, reply string
		want        bool
	}{
		{"200", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok", true},
		{"503", "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := probeOrigin(t, tc.reply, holdOpen)
			start := time.Now()
			if got := testChecker(timeout).probeOnce(addr); got != tc.want {
				t.Fatalf("probe = %v, want %v", got, tc.want)
			}
			if d := time.Since(start); d > timeout/2 {
				t.Fatalf("probe took %v against a keep-alive origin; the timeout is %v", d, timeout)
			}
		})
	}
}

// A backend that streams a body without end used to be buffered until the
// timeout. The probe must decide on the head and read no further.
func TestProbeEndlessBodyIsNotBuffered(t *testing.T) {
	const timeout = 5 * time.Second
	sent := make(chan int, 1)
	addr := probeOrigin(t, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", func(c net.Conn) {
		chunk := append([]byte("10000\r\n"), bytes.Repeat([]byte{'x'}, 64<<10)...)
		chunk = append(chunk, '\r', '\n')
		n := 0
		for {
			w, err := c.Write(chunk)
			n += w
			if err != nil {
				sent <- n
				return
			}
		}
	})
	start := time.Now()
	if !testChecker(timeout).probeOnce(addr) {
		t.Fatal("probe failed against a 200 with an endless body")
	}
	if d := time.Since(start); d > timeout/2 {
		t.Fatalf("probe took %v against an endless body; the timeout is %v", d, timeout)
	}
	// The origin's writes fail once the probe hangs up. What it managed to
	// push is bounded by socket buffers, not by the probe's appetite.
	select {
	case n := <-sent:
		if n > 64<<20 {
			t.Fatalf("origin pushed %d bytes before the probe hung up", n)
		}
	case <-time.After(timeout):
		t.Fatal("origin still writing: the probe never closed the connection")
	}
}

// A head that never ends is refused at the header bound, not at the timeout.
func TestProbeRefusesUnboundedHead(t *testing.T) {
	const timeout = 5 * time.Second
	addr := probeOrigin(t, "HTTP/1.1 200 OK\r\n", func(c net.Conn) {
		field := []byte("X-Pad: " + string(bytes.Repeat([]byte{'y'}, 1000)) + "\r\n")
		for {
			if _, err := c.Write(field); err != nil {
				return
			}
		}
	})
	start := time.Now()
	if testChecker(timeout).probeOnce(addr) {
		t.Fatalf("probe passed a head longer than %d bytes", httpx.MaxHeaderBytes)
	}
	if d := time.Since(start); d > timeout/2 {
		t.Fatalf("probe took %v to refuse an unbounded head; the timeout is %v", d, timeout)
	}
}
