package proxy

import (
	"net"
	"slices"
	"testing"
	"time"

	"hermes/internal/bitops"
	"hermes/internal/core"
	"hermes/internal/ebpf"
	"hermes/internal/kernel"
	"hermes/internal/tracing"
)

// addrConn is a connection with the addresses the proxy would see on it.
type addrConn struct {
	net.Conn
	remote, local net.Addr
}

func (c addrConn) RemoteAddr() net.Addr { return c.remote }
func (c addrConn) LocalAddr() net.Addr  { return c.local }

// proxySide is a client's connection as the proxy accepted it: its peer is
// the client's local address.
func proxySide(c net.Conn) net.Conn { return addrConn{c, c.LocalAddr(), c.RemoteAddr()} }

// The acceptor runs Algorithm 2 as the kernel's reuseport hook does: the
// controller's compiled program over each connection's 4-tuple hash, and
// reciprocal_scale over all workers — the kernel model's hashPick — when the
// program declines. Every syn span names the path truthfully, every accept is
// one ebpf.jit.runs, and a MinWorkers change reaches the next connection.
func TestAcceptorRunsDispatchProgram(t *testing.T) {
	cfg := testConfig(newStubUpstream(t))
	cfg.Workers = 4
	tracer := tracing.New(tracing.Config{Concurrent: true, MaxSpans: 1 << 14})
	p := startProxy(t, cfg, WithTracer(tracer))
	ctl := p.Controller()
	// Only the veto and the fallback switch shape the bitmap: no worker looks
	// hung or loaded, however late the heartbeat runs on a busy host.
	ctl.SetFilterOrder(core.OrderTimeOnly)
	pol := ctl.Config()
	pol.HangThreshold = time.Hour
	jitRuns := func() int64 { return p.Registry().Snapshot().Get(ebpf.MetricJITRuns).Total() }

	const conns = 200
	var last net.Conn
	for _, tc := range []struct {
		name       string
		vetoed     []int
		minWorkers int
		fallback   bool
		via        tracing.Via
	}{
		{"full bitmap", nil, 2, false, tracing.ViaProg},
		{"worker 3 vetoed", []int{3}, 2, false, tracing.ViaProg},
		{"below MinWorkers", []int{1, 2, 3}, 2, false, tracing.ViaFallback},
		{"MinWorkers lowered", []int{1, 2, 3}, 1, false, tracing.ViaProg},
		{"forced fallback", nil, 2, true, tracing.ViaFallback},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol.MinWorkers = tc.minWorkers
			if err := ctl.SetConfig(pol); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < cfg.Workers; w++ {
				if err := ctl.SetWorkerAvailable(w, !slices.Contains(tc.vetoed, w)); err != nil {
					t.Fatal(err)
				}
			}
			ctl.SetForceFallback(tc.fallback)
			p.sync()

			// One connection at a time, each recorded before the next is
			// dialled, so connection ids follow the clients' order.
			first, runs := tracer.Stats().ConnsSeen, jitRuns()
			clients := make([]net.Conn, conns)
			for i := range clients {
				c, err := net.Dial("tcp", p.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
				for deadline := time.Now().Add(2 * time.Second); tracer.Stats().ConnsSeen != first+uint64(i)+1; {
					if time.Now().After(deadline) {
						t.Fatalf("connection %d not accepted within 2s", i)
					}
					time.Sleep(20 * time.Microsecond)
				}
			}
			if got := jitRuns() - runs; got != conns {
				t.Errorf("ebpf.jit.runs advanced %d over %d accepts", got, conns)
			}
			tracer.Flush()
			syn := make(map[uint64]tracing.Span, conns)
			for _, s := range tracer.Spans() {
				if s.Kind == tracing.KindSYN && s.Conn > first {
					syn[s.Conn] = s
				}
			}

			var env ebpf.Env
			spread := make([]int, cfg.Workers)
			for i, c := range clients {
				tuple := tupleOf(proxySide(c))
				h := tuple.Hash()
				want := int(bitops.ReciprocalScale(h, uint32(cfg.Workers)))
				env.Ctx = ebpf.ReuseportCtx{Hash: h, LocalityHash: tuple.LocalityHash()}
				r0, err := p.prog.Run(&env)
				if w, ok := env.Ctx.Selected.(*worker); err == nil && r0 == 0 && ok {
					want = w.id
				} else if tc.via == tracing.ViaProg {
					t.Fatalf("conn %d: program declined (r0=%d err=%v)", i, r0, err)
				}
				s, ok := syn[first+uint64(i)+1]
				if !ok {
					t.Fatalf("conn %d: no syn span", i)
				}
				if int(s.Arg2) != want || tracing.Via(s.Arg) != tc.via {
					t.Fatalf("conn %d %v: steered to w%d via %v, want w%d via %v",
						i, tuple, s.Arg2, tracing.Via(s.Arg), want, tc.via)
				}
				if slices.Contains(tc.vetoed, want) && tc.via == tracing.ViaProg {
					t.Fatalf("conn %d: program picked vetoed worker %d", i, want)
				}
				spread[want]++
			}
			t.Logf("%d connections per worker: %v", conns, spread)
			last = proxySide(clients[0])
		})
	}

	t.Run("steer allocates nothing", func(t *testing.T) {
		if last == nil {
			t.Skip("no connection left to steer")
		}
		if a := testing.AllocsPerRun(100, func() { p.steer(last) }); a != 0 {
			t.Errorf("steer allocates %v per connection, want 0", a)
		}
	})

	t.Run("tupleOf", func(t *testing.T) {
		local := &net.TCPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 80}
		for _, tc := range []struct {
			name  string
			ip    net.IP
			srcIP uint32
		}{
			{"IPv4", net.IPv4(10, 1, 2, 3).To4(), 0x0a010203},
			{"IPv4-mapped", net.ParseIP("::ffff:10.1.2.3"), 0x0a010203},
			{"IPv6 folds its four words", net.ParseIP("2001:db8::1"), 0x20010db8 ^ 1},
		} {
			c := addrConn{remote: &net.TCPAddr{IP: tc.ip, Port: 40000}, local: local}
			want := kernel.FourTuple{SrcIP: tc.srcIP, DstIP: 0x0a000001, SrcPort: 40000, DstPort: 80}
			if got := tupleOf(c); got != want {
				t.Errorf("%s: tupleOf = %+v, want %+v", tc.name, got, want)
			}
		}

		ln, err := net.Listen("tcp", "[::1]:0")
		if err != nil {
			t.Skipf("no IPv6 loopback: %v", err)
		}
		defer ln.Close()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sc, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		// ::1 folds to 0 ^ 0 ^ 0 ^ 1.
		want := kernel.FourTuple{SrcIP: 1, DstIP: 1,
			SrcPort: uint16(c.LocalAddr().(*net.TCPAddr).Port), DstPort: uint16(ln.Addr().(*net.TCPAddr).Port)}
		if got := tupleOf(sc); got != want {
			t.Errorf("[::1]: tupleOf = %+v, want %+v", got, want)
		}
	})
}
