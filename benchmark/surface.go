package main

// surface.go is the benchmark's frozen surface: the only file that imports
// hermes/internal/*. Every identifier of the program the benchmark depends on
// is named here (README.md lists them), so a later change to the program
// knows exactly what it must keep compiling. Nothing in the program is
// instrumented: layers are timed from outside, around their public
// functions, and counted through what they already export.

import (
	"bytes"
	"fmt"
	"time"

	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/httpx"
	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/packet"
	"hermes/internal/proxy"
	"hermes/internal/shm"
	"hermes/internal/sim"
	"hermes/internal/stats"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
	"hermes/internal/workload"
)

// flatten turns a registry snapshot into plain numbers: counters and gauges
// under their name, vectors as name (sum) and name.max, histograms as
// name.count, name.p50 and name.p99.
func flatten(s telemetry.Snapshot) map[string]float64 {
	out := make(map[string]float64, 2*len(s.Metrics))
	for i := range s.Metrics {
		m := &s.Metrics[i]
		switch {
		case len(m.Buckets) > 0:
			out[m.Name+".count"] = float64(m.Count)
			if m.Count > 0 {
				out[m.Name+".p50"] = m.Quantile(0.50)
				out[m.Name+".p99"] = m.Quantile(0.99)
			}
		case m.Values != nil:
			var sum, max float64
			for _, v := range m.Values {
				sum += float64(v)
				if float64(v) > max {
					max = float64(v)
				}
			}
			out[m.Name], out[m.Name+".max"] = sum, max
		default:
			out[m.Name] = float64(m.Value)
		}
	}
	return out
}

// --- sim-churn: one connection lifecycle per op, straight into the kernel ---

type churnSpec struct {
	workers     int
	conns       int
	hermes      bool // false: plain reuseport hashing, the steering-free baseline
	seed        int64
	observe     bool // hand the LB a live Registry (counts) ...
	tracer      bool // ... and a 1-in-64 flight recorder (telemetry.overhead_ratio)
	wantLatency bool
}

type churnOut struct {
	established, completed, drops, grows, events uint64
	accepted                                     []uint64
	newS, runS                                   float64 // host seconds in l7lb.New+Start and in Engine.RunUntil
	p50us, p99us                                 float64 // virtual request latency
	counts                                       map[string]float64
}

// churnIntervalNS is the fixed arrival spacing: 1M connections per virtual
// second whatever the cell size.
const churnIntervalNS = 1000

// runChurnCell drives conns full lifecycles (SYN → steer → accept queue →
// epoll wake → one request → close) through a fresh LB, shaped like
// bench.runScaleCell: open-loop fixed-interval arrivals in virtual time with
// exactly one arrival event outstanding. The request cost is drawn from the
// seed (0.5–1.5 µs) so the virtual latency quantiles differ between seeds.
func runChurnCell(sp churnSpec, rec *recorder, parent uint32) (churnOut, error) {
	var out churnOut
	cellStart := rec.now()
	cell, newSpan, runSpan := rec.reserve(), rec.reserve(), rec.reserve()

	t0 := time.Now()
	eng := sim.NewEngine(sp.seed)
	mode := l7lb.ModeReuseport
	if sp.hermes {
		mode = l7lb.ModeHermes
	}
	cfg := l7lb.DefaultConfig(mode)
	cfg.Workers = sp.workers
	cfg.Ports = []uint16{8080}
	cfg.ConnsPerWorkerHint = sp.conns/sp.workers + 1
	var reg *telemetry.Registry
	if sp.observe {
		reg = telemetry.NewRegistry()
		cfg.Telemetry = reg
	}
	if sp.tracer {
		cfg.Tracer = tracing.New(tracing.Config{SampleEvery: 64, MaxSpans: 1 << 16})
	}
	lb, err := l7lb.New(eng, cfg)
	if err != nil {
		return out, fmt.Errorf("l7lb.New: %w", err)
	}
	lb.Start()
	out.newS = time.Since(t0).Seconds()
	rec.put(newSpan, "l7lb.New", cell, 0, cellStart, rec.now())

	rng := newXorshift(sp.seed, 0x9E3779B97F4A7C15)
	ns := lb.NS
	i := 0
	var arrive func()
	arrive = func() {
		tuple := kernel.FourTuple{
			SrcIP:   uint32(i)*0x9E3779B1 + uint32(sp.seed),
			SrcPort: uint16(1024 + i%60000),
			DstIP:   0x0a00_0001,
			DstPort: 8080,
		}
		work := l7lb.Work{
			ArrivalNS: eng.Now(), Cost: time.Duration(500 + rng.next()%1000), Close: true, Tenant: 8080,
		}
		if rec != nil && i&255 == 0 {
			// Sampled arrival: the same two calls, each under its own span.
			a := rec.reserve()
			s0 := rec.now()
			conn, ok := ns.DeliverSYN(tuple, nil)
			s1 := rec.now()
			rec.put(rec.reserve(), "kernel.DeliverSYN", a, uint64(i), s0, s1)
			if ok {
				ns.DeliverData(conn, work)
				s2 := rec.now()
				rec.put(rec.reserve(), "kernel.DeliverData", a, uint64(i), s1, s2)
			} else {
				out.drops++
			}
			rec.put(a, "arrive", runSpan, uint64(i), s0, rec.now())
		} else if conn, ok := ns.DeliverSYN(tuple, nil); ok {
			ns.DeliverData(conn, work)
		} else {
			out.drops++
		}
		i++
		if i < sp.conns {
			eng.At(int64(i)*churnIntervalNS, arrive)
		}
	}
	eng.At(0, arrive)
	t1 := time.Now()
	r0 := rec.now()
	eng.RunUntil(int64(sp.conns)*churnIntervalNS + int64(2*time.Second))
	out.runS = time.Since(t1).Seconds()
	rec.put(runSpan, "engine.RunUntil", cell, 0, r0, rec.now())
	rec.put(cell, "cell", parent, 0, cellStart, rec.now())

	out.established = ns.ConnsEstablished
	out.completed = lb.Completed
	out.events = eng.Executed
	out.accepted = make([]uint64, len(lb.Workers))
	for wi, w := range lb.Workers {
		out.accepted[wi] = w.Accepted
		out.grows += w.ConnTableGrows
	}
	if sp.wantLatency {
		out.p50us = lb.Latency.Percentile(50) * 1000
		out.p99us = lb.Latency.Percentile(99) * 1000
	}
	if reg != nil {
		out.counts = flatten(reg.Snapshot())
	}
	return out, nil
}

// --- sim-table3: the paper's four traffic cases through bench.Run ---

var table3Modes = []l7lb.Mode{l7lb.ModeExclusive, l7lb.ModeReuseport, l7lb.ModeHermes}

type table3Spec struct {
	caseIdx int // 0..3: Table 3's CPS × processing-time quadrants
	mode    int // index into table3Modes
	seed    int64
	window  time.Duration
	scale   float64 // connection-rate multiplier on the 32-worker case spec
	observe bool
}

type table3Out struct {
	sent, completed, grows, events uint64
	avgUS, p50us, p99us            float64 // virtual
	thrK, goodK                    float64 // virtual kRPS
	wallS                          float64
	counts                         map[string]float64
}

func runTable3Cell(sp table3Spec) (table3Out, error) {
	var out table3Out
	ports := make([]uint16, 8)
	for i := range ports {
		ports[i] = uint16(8080 + i)
	}
	rc := bench.RunConfig{
		Mode:    table3Modes[sp.mode],
		Workers: 16,
		Seed:    sp.seed,
		Window:  sp.window,
		Drain:   2 * time.Second,
		Specs:   []workload.Spec{workload.Cases(ports)[sp.caseIdx].Scale(sp.scale)},
		// The device binds 400 tenant ports, as bench.DefaultOptions does.
		Mutate: func(c *l7lb.Config) { c.RegisteredPorts = 400 },
	}
	var reg *telemetry.Registry
	if sp.observe {
		reg = telemetry.NewRegistry()
		rc.Telemetry = reg
	}
	t0 := time.Now()
	r, err := bench.Run(rc)
	if err != nil {
		return out, fmt.Errorf("bench.Run: %w", err)
	}
	out.wallS = time.Since(t0).Seconds()
	out.sent, out.completed = r.RequestsSent, r.Completed
	out.events = r.LB.Eng.Executed
	for _, w := range r.LB.Workers {
		out.grows += w.ConnTableGrows
	}
	out.avgUS = r.AvgMS * 1000
	out.p50us = r.LB.Latency.Percentile(50) * 1000
	out.p99us = r.P99MS * 1000
	out.thrK, out.goodK = r.ThroughputKRPS, r.GoodputKRPS
	if reg != nil {
		out.counts = flatten(reg.Snapshot())
	}
	return out, nil
}

// --- proxy-*: the shipped reverse proxy, in process, over loopback ---

type proxyHandle struct{ p *proxy.Proxy }

// startProxy runs proxy.DefaultConfig with only the listener, the worker
// count and the backends set: health checks, circuit breaker, retries,
// telemetry windows and SLO monitor stay on, as shipped.
func startProxy(backends []string) (*proxyHandle, error) {
	cfg := proxy.DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Workers = 4
	for _, a := range backends {
		cfg.Backends = append(cfg.Backends, proxy.BackendConfig{Address: a})
	}
	p, err := proxy.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("proxy.New: %w", err)
	}
	return &proxyHandle{p}, nil
}

func (h *proxyHandle) addr() string { return h.p.Addr() }

func (h *proxyHandle) handled() []float64 {
	out := make([]float64, h.p.Workers())
	for i := range out {
		out[i] = float64(h.p.WorkerHandled(i))
	}
	return out
}

func (h *proxyHandle) counts() map[string]float64 { return flatten(h.p.Registry().Snapshot()) }

func (h *proxyHandle) stop() error { return h.p.Shutdown(2 * time.Second) }

// --- rungs: tight loops over one layer's public functions ---

// rung is one step of the ladder. setup builds the state once and returns
// the loop body; iters is sized so one pass takes tens of milliseconds.
type rung struct {
	name  string
	iters int
	setup func() (func(n int), error)
}

// rungSink keeps results of pure calls alive so the compiler cannot drop them.
var rungSink int

func rungTable() []rung {
	return []rung{
		{"sim.schedule_fire", 1_000_000, func() (func(int), error) {
			e, fn := deepEngine()
			return func(n int) {
				for i := 0; i < n; i++ {
					e.After(time.Microsecond, fn)
					e.Step()
				}
			}, nil
		}},
		{"sim.cancel", 2_000_000, func() (func(int), error) {
			e, fn := deepEngine()
			return func(n int) {
				for i := 0; i < n; i++ {
					e.After(time.Millisecond, fn).Cancel()
				}
			}, nil
		}},
		{"shm.wst_update", 1_500_000, func() (func(int), error) {
			wr := shm.NewWST(32).Writer(3)
			return func(n int) {
				for i := 0; i < n; i++ {
					wr.SetLoopEnter(int64(i))
					wr.AddBusy(1)
					wr.AddBusy(-1)
					wr.AddConn(1)
					wr.AddConn(-1)
				}
			}, nil
		}},
		{"shm.wst_snapshot32", 500_000, func() (func(int), error) {
			wst := loadedWST()
			buf := make([]shm.Metrics, 0, 32)
			return func(n int) {
				for i := 0; i < n; i++ {
					buf = wst.Snapshot(buf[:0])
				}
				rungSink += len(buf)
			}, nil
		}},
		{"core.schedule32", 150_000, func() (func(int), error) {
			ms := loadedWST().Snapshot(nil)
			cfg := core.DefaultConfig()
			return func(n int) {
				for i := 0; i < n; i++ {
					res := core.Schedule(int64(time.Second), ms, cfg, core.OrderTimeConnEvent)
					rungSink += res.Passed
				}
			}, nil
		}},
		{"ebpf.steer_hash", 600_000, steerRung(nil)},
		{"ebpf.steer_native", 500_000, steerRung(func(ctl *core.Controller, g *kernel.ReuseportGroup) error {
			return ctl.AttachNative(g)
		})},
		{"ebpf.steer_jit", 400_000, steerRung(func(ctl *core.Controller, g *kernel.ReuseportGroup) error {
			return ctl.AttachEBPF(g)
		})},
		{"ebpf.steer_interp", 100_000, steerRung(func(ctl *core.Controller, g *kernel.ReuseportGroup) error {
			if err := ctl.AttachEBPF(g); err != nil {
				return err
			}
			g.AttachProgramInterpreted(g.Program())
			return nil
		})},
		{"kernel.conn_lifecycle", 300_000, lifecycleRung},
		{"kernel.burst_dispatch_b1", 250_000, burstRung(1)},
		{"kernel.burst_dispatch_b32", 500_000, burstRung(32)},
		{"packet.frame_pool", 1_000_000, func() (func(int), error) {
			p := packet.NewFramePool(packet.DefaultFrameSize, 1)
			payload := bytes.Repeat([]byte{0xab}, 200)
			tcp := packet.TCP{SrcPort: 1234, DstPort: 443, Flags: packet.FlagPSH}
			return func(n int) {
				for i := 0; i < n; i++ {
					f := p.Get()
					f = packet.AppendEncapTCPFrame(f, 1, 2, 7, 3, 4, tcp, payload)
					p.Put(f)
				}
			}, nil
		}},
		{"stats.p2_add", 4_000_000, func() (func(int), error) {
			e := stats.NewP2Quantile(0.99)
			return func(n int) {
				for i := 0; i < n; i++ {
					e.Add(float64(i % 1000))
				}
			}, nil
		}},
		{"httpx.parse_request", 80_000, func() (func(int), error) {
			raw := (&httpx.Request{Method: "GET", Target: "/api/v1/items", Headers: []httpx.Header{
				{Name: "Host", Value: "svc"}, {Name: "Accept", Value: "*/*"},
			}}).Append(nil)
			return parseRequestLoop(raw), nil
		}},
		{"httpx.parse_request_64k", 2_000, func() (func(int), error) {
			raw := (&httpx.Request{Method: "POST", Target: "/p", Headers: []httpx.Header{
				{Name: "Host", Value: "svc"},
			}, Body: make([]byte, 64<<10)}).Append(nil)
			return parseRequestLoop(raw), nil
		}},
		{"httpx.parse_response_64k", 2_000, func() (func(int), error) {
			raw := (&httpx.Response{Status: 200, Body: make([]byte, 64<<10)}).Append(nil)
			return func(n int) {
				for i := 0; i < n; i++ {
					resp, _, err := httpx.ParseResponse(raw)
					if err != nil {
						panic(err)
					}
					rungSink += resp.Status
				}
			}, nil
		}},
		{"httpx.append_response_64k", 2_000, func() (func(int), error) {
			resp := &httpx.Response{Status: 200, Body: make([]byte, 64<<10)}
			return func(n int) {
				for i := 0; i < n; i++ {
					rungSink += len(resp.Append(nil))
				}
			}, nil
		}},
		{"telemetry.counter_inc", 5_000_000, func() (func(int), error) {
			c := telemetry.NewRegistry().Counter(telemetry.Metric{Name: "b"})
			return func(n int) {
				for i := 0; i < n; i++ {
					c.Inc()
				}
			}, nil
		}},
		{"telemetry.hist_observe", 1_500_000, func() (func(int), error) {
			h := telemetry.NewRegistry().Histogram(telemetry.Metric{Name: "b"}, telemetry.DurationBuckets())
			return func(n int) {
				for i := 0; i < n; i++ {
					h.Observe(int64(i) % 1_000_000)
				}
			}, nil
		}},
		{"tracing.sampled_span", 300_000, func() (func(int), error) {
			tr := tracing.New(tracing.Config{SampleEvery: 1, MaxSpans: 1 << 10})
			k, w := tr.KernelTrace(), tr.WorkerTrace(0)
			var conn uint64
			return func(n int) {
				for i := 0; i < n; i++ {
					conn++
					base := int64(conn) * 1000
					k.ConnEstablished(conn, base, 0, tracing.ViaProg)
					w.Accept(conn, base, base+100)
					w.Serve(conn, base+200, base+300, base+300, false)
					w.Close(conn, base+350, false)
				}
			}, nil
		}},
	}
}

// deepEngine returns an engine holding one standing timer per simulated
// worker, the heap depth the LB worker loops generate.
func deepEngine() (*sim.Engine, func()) {
	e := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(time.Second, fn)
	}
	return e, fn
}

func loadedWST() *shm.WST {
	wst := shm.NewWST(32)
	for i := 0; i < 32; i++ {
		w := wst.Writer(i)
		w.SetLoopEnter(int64(time.Second))
		w.AddBusy(int64(i % 5))
		w.AddConn(int64(i * 13 % 211))
	}
	return wst
}

func parseRequestLoop(raw []byte) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			req, _, err := httpx.ParseRequest(raw)
			if err != nil {
				panic(err)
			}
			rungSink += len(req.Headers)
		}
	}
}

// steerRung measures the per-SYN dispatch decision through the public
// DeliverSYN path (steer → enqueue → accept → close) over a 16-socket group
// with a full selection bitmap; attach nil is plain reuseport hashing.
func steerRung(attach func(*core.Controller, *kernel.ReuseportGroup) error) func() (func(int), error) {
	return func() (func(int), error) {
		const workers = 16
		eng := sim.NewEngine(1)
		ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
		g, err := ns.ListenReuseport(8080, workers, 64)
		if err != nil {
			return nil, err
		}
		if attach != nil {
			ctl, err := core.NewController(workers, core.DefaultConfig())
			if err != nil {
				return nil, err
			}
			if err := ctl.SelMap().Update(0, uint64(1)<<workers-1); err != nil {
				return nil, err
			}
			if err := attach(ctl, g); err != nil {
				return nil, err
			}
		}
		socks := g.Sockets()
		tuple := kernel.FourTuple{SrcIP: 1, SrcPort: 1, DstIP: 2, DstPort: 8080}
		var src uint32
		return func(n int) {
			for i := 0; i < n; i++ {
				src++
				tuple.SrcIP = src
				c, ok := ns.DeliverSYN(tuple, nil)
				if !ok {
					panic("steer rung: SYN dropped")
				}
				// Find the listener the kernel chose without re-deriving its
				// choice: the scan costs the same in all four variants.
				for _, s := range socks {
					if s.QueueLen() > 0 {
						s.Accept()
						break
					}
				}
				ns.CloseSocket(c.Sock())
			}
		}, nil
	}
}

// lifecycleRung is one connection through the whole kernel fast path against
// a real blocked epoll waiter, as an l7lb worker experiences it.
func lifecycleRung() (func(int), error) {
	eng := sim.NewEngine(1)
	ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
	g, err := ns.ListenReuseport(8080, 1, 64)
	if err != nil {
		return nil, err
	}
	ep := ns.NewEpoll()
	ep.Add(g.Sockets()[0])
	payload := any(struct{}{})
	served := 0
	var onWake func(evs []kernel.Event)
	onWake = func(evs []kernel.Event) {
		for _, ev := range evs {
			switch ev.Kind {
			case kernel.EvAccept:
				for {
					c, ok := ev.Sock.Accept()
					if !ok {
						break
					}
					ep.Add(c.Sock())
					ns.DeliverData(c, payload)
				}
			case kernel.EvReadable:
				ev.Sock.PopData()
				ns.CloseSocket(ev.Sock)
				served++
			}
		}
		ep.Wait(16, -1, onWake)
	}
	ep.Wait(16, -1, onWake)
	eng.Run()
	tuple := kernel.FourTuple{SrcIP: 1, SrcPort: 1, DstIP: 2, DstPort: 8080}
	var src uint32
	return func(n int) {
		before := served
		for i := 0; i < n; i++ {
			src++
			tuple.SrcIP = src
			if _, ok := ns.DeliverSYN(tuple, nil); !ok {
				panic("lifecycle rung: SYN dropped")
			}
			eng.Run()
		}
		if served-before != n {
			panic(fmt.Sprintf("lifecycle rung: served %d of %d", served-before, n))
		}
	}, nil
}

// burstRung drives same-tick arrival vectors of the given width through the
// kernel's burst path; one op is one connection.
func burstRung(batch int) func() (func(int), error) {
	return func() (func(int), error) {
		eng := sim.NewEngine(1)
		ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
		ns.SetBurstWidth(batch)
		g, err := ns.ListenReuseport(8080, 1, 4096)
		if err != nil {
			return nil, err
		}
		ep := ns.NewEpoll()
		ep.Add(g.Sockets()[0])
		maxEvents := batch + 16
		served := 0
		accepted := make([]*kernel.Conn, 0, batch)
		var onWake func(evs []kernel.Event)
		onWake = func(evs []kernel.Event) {
			for _, ev := range evs {
				switch ev.Kind {
				case kernel.EvAccept:
					accepted = accepted[:0]
					for {
						c, ok := ev.Sock.Accept()
						if !ok {
							break
						}
						ep.Add(c.Sock())
						accepted = append(accepted, c)
					}
					ns.DeliverDataBurst(accepted, nil)
				case kernel.EvReadable:
					ev.Sock.PopData()
					ns.CloseSocket(ev.Sock)
					served++
				}
			}
			ep.Wait(maxEvents, -1, onWake)
		}
		ep.Wait(maxEvents, -1, onWake)
		eng.Run()
		tuples := make([]kernel.FourTuple, batch)
		for i := range tuples {
			tuples[i] = kernel.FourTuple{SrcPort: 9, DstIP: 2, DstPort: 8080}
		}
		conns := make([]*kernel.Conn, 0, batch)
		var src uint32
		pend := 0
		arriveEv := func() { conns = ns.DeliverSYNBurst(tuples[:pend], nil, conns[:0]) }
		return func(n int) {
			before := served
			for done := 0; done < n; done += batch {
				pend = batch
				if rem := n - done; rem < pend {
					pend = rem
				}
				for i := 0; i < pend; i++ {
					src++
					tuples[i].SrcIP = src
				}
				eng.At(eng.Now(), arriveEv)
				eng.Run()
			}
			if served-before != n {
				panic(fmt.Sprintf("burst rung: served %d of %d", served-before, n))
			}
		}, nil
	}
}
