package proxy

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"strconv"
	"testing"
)

// benchUpstream is a lean loopback origin for the benchmarks: bodiless
// requests only, a fixed 128-byte reply, keep-alive unless asked to close.
// What it allocates per connection is part of the reported allocs/op, the
// same on both sides of any comparison.
func benchUpstream(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	reply := append([]byte("HTTP/1.1 200 OK\r\nContent-Length: 128\r\n\r\n"), make([]byte, 128)...)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReaderSize(c, 1024)
				for {
					closing := false
					for {
						line, err := br.ReadSlice('\n')
						if err != nil {
							return
						}
						if len(line) == 2 {
							break
						}
						closing = closing || bytes.EqualFold(line, []byte("Connection: close\r\n"))
					}
					if _, err := c.Write(reply); err != nil || closing {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func benchProxy(b *testing.B) *Proxy {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.HealthCheck.Enabled = false
	cfg.Backends = []BackendConfig{{Address: benchUpstream(b), Weight: 1}}
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	return p
}

// readReply consumes one Content-Length reply and returns its status.
func readReply(br *bufio.Reader) (status int, err error) {
	length := 0
	for first := true; ; first = false {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		switch {
		case first:
			status, _ = strconv.Atoi(string(line[9:12]))
		case len(line) == 2:
			_, err = br.Discard(length)
			return status, err
		case bytes.HasPrefix(line, []byte("Content-Length: ")):
			length, _ = strconv.Atoi(string(line[16 : len(line)-2]))
		}
	}
}

// BenchmarkProxyKeepAlive is the per-request path: one client connection,
// small GETs back to back, each on the backend's one pooled upstream
// connection. CI gates it at 0 allocs/op.
func BenchmarkProxyKeepAlive(b *testing.B) {
	p := benchProxy(b)
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	req := []byte("GET /s HTTP/1.1\r\nHost: bench.local\r\nUser-Agent: hermes-bench/1\r\nAccept: */*\r\n\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(req); err != nil {
			b.Fatal(err)
		}
		if status, err := readReply(br); err != nil || status != 200 {
			b.Fatalf("request %d: status %d, err %v", i, status, err)
		}
	}
}

// BenchmarkProxyChurn is the per-connection path: accept, steer, hand the
// connection to a parked goroutine, one request, close.
func BenchmarkProxyChurn(b *testing.B) { churnClient(b, benchProxy(b).Addr()) }

// BenchmarkLoopbackChurn is BenchmarkProxyChurn's floor: the same client loop
// against a bare server that accepts, reads the request, writes the reply
// and closes, all on one goroutine, from a listener set up as the proxy's
// is. Its allocations are what dial, accept and the socket calls cost on
// this toolchain; CI gates the proxy's allocs/op above them at 0.
func BenchmarkLoopbackChurn(b *testing.B) {
	ln, err := (&net.ListenConfig{KeepAlive: -1}).Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	reply := append([]byte("HTTP/1.1 200 OK\r\nContent-Length: 128\r\nConnection: close\r\n\r\n"), make([]byte, 128)...)
	go func() {
		buf := make([]byte, 1024)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			for n := 0; !bytes.HasSuffix(buf[:n], []byte("\r\n\r\n")); {
				m, err := c.Read(buf[n:])
				if err != nil {
					break
				}
				n += m
			}
			_, _ = c.Write(reply)
			c.Close()
		}
	}()
	churnClient(b, ln.Addr().String())
}

// churnClient is the client loop of both churn benchmarks: per op, dial, one
// small request asking to close, read the reply and the close, hang up.
func churnClient(b *testing.B, addr string) {
	br := bufio.NewReader(nil)
	req := []byte("GET /s HTTP/1.1\r\nHost: bench.local\r\nConnection: close\r\n\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		br.Reset(c)
		if _, err := c.Write(req); err != nil {
			b.Fatal(err)
		}
		if status, err := readReply(br); err != nil || status != 200 {
			b.Fatalf("connection %d: status %d, err %v", i, status, err)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			b.Fatalf("connection %d: server left it open after Connection: close (%v)", i, err)
		}
		c.Close()
	}
}
