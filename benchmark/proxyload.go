package main

// proxyload.go: the closed-loop load generator for the real-socket path —
// stub upstreams, clients, the seeded request schedule, and verification.
// It speaks HTTP/1.1 with its own few lines of parsing so that none of the
// program's code runs on the generator's side of the socket. Everything is
// one process on the host's loopback: no link rate or wire latency is
// measured, and client, proxy and stubs share the same cores.

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type reqClass uint8

const (
	getSmall  reqClass = iota // 128 B reply: per-request overhead
	getLarge                  // 64 KiB reply: read-heavy
	postLarge                 // 64 KiB request body, 16 B reply: write-heavy
)

var classNames = []string{"get_small", "get_large", "post_large"}

const (
	smallBody    = 128
	largeBody    = 64 << 10
	keepAliveLen = 64 // requests per client connection on proxy-keepalive-mixed
	traceEvery   = 16 // 1 op in 16 carries spans in the traced run
	stubCount    = 2
)

// pattern is the byte source replies and request bodies are cut from: a body
// for op id is the base rotated by an offset derived from id, so both ends
// can produce and check it with two memory compares.
type pattern struct{ base []byte }

func newPattern(seed int64) pattern {
	b := make([]byte, largeBody)
	x := newXorshift(seed, 0x9E3779B97F4A7C15)
	for i := range b {
		b[i] = byte(x.next() >> 24)
	}
	return pattern{b}
}

func (p pattern) segs(id uint64, n int) (a, b []byte) {
	off := int(id * 40503 % uint64(len(p.base)))
	if off+n <= len(p.base) {
		return p.base[off : off+n], nil
	}
	return p.base[off:], p.base[:n-(len(p.base)-off)]
}

func (p pattern) matches(id uint64, got []byte) bool {
	a, b := p.segs(id, len(got))
	return bytes.Equal(got[:len(a)], a) && bytes.Equal(got[len(a):], b)
}

// checksum is what a stub returns for a received body: CRC-32 and length.
func checksum(a, b []byte) string {
	return fmt.Sprintf("%08x%08x", crc32.Update(crc32.ChecksumIEEE(a), crc32.IEEETable, b), len(a)+len(b))
}

// loadgen owns the stubs and clients of one proxy set-up.
type loadgen struct {
	pat   pattern
	rec   atomic.Pointer[recorder] // non-nil only during the traced phase
	dials atomic.Uint64            // stub connections not opened by a health probe
	sched []reqClass

	lns   []net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newLoadgen(seed int64, mixed bool) (*loadgen, error) {
	g := &loadgen{pat: newPattern(seed), conns: map[net.Conn]struct{}{}, sched: make([]reqClass, 1<<16)}
	if mixed {
		// 70 % get-small, 15 % get-large, 15 % post-large, a function of the seed only.
		x := newXorshift(seed, 0xD1342543DE82EF95)
		for i := range g.sched {
			switch v := x.next() >> 11 % 100; {
			case v >= 85:
				g.sched[i] = postLarge
			case v >= 70:
				g.sched[i] = getLarge
			}
		}
	}
	for i := 0; i < stubCount; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			g.stop()
			return nil, err
		}
		g.lns = append(g.lns, ln)
		g.wg.Add(1)
		go g.acceptLoop(ln)
	}
	return g, nil
}

func (g *loadgen) backends() []string {
	out := make([]string, len(g.lns))
	for i, ln := range g.lns {
		out[i] = ln.Addr().String()
	}
	return out
}

// stop closes the stubs' listeners and connections and waits for their goroutines.
func (g *loadgen) stop() {
	for _, ln := range g.lns {
		ln.Close()
	}
	g.mu.Lock()
	for c := range g.conns {
		c.Close()
	}
	g.mu.Unlock()
	g.wg.Wait()
}

func (g *loadgen) acceptLoop(ln net.Listener) {
	defer g.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		g.mu.Lock()
		g.conns[c] = struct{}{}
		g.mu.Unlock()
		g.wg.Add(1)
		go g.serveStub(c)
	}
}

// wire is the reusable read state of one connection end.
type wire struct {
	br   *bufio.Reader
	body []byte
}

// wires is a fixed free list, not a sync.Pool: a pool is emptied at every
// collection, and 68 KiB of fresh garbage per connection would make the
// generator, not the program, set the process's heap size.
var wires = make(chan *wire, 64)

func getWire(c net.Conn) *wire {
	var w *wire
	select {
	case w = <-wires:
	default:
		w = &wire{br: bufio.NewReaderSize(nil, 4096), body: make([]byte, largeBody)}
	}
	w.br.Reset(c)
	return w
}

func putWire(w *wire) {
	w.br.Reset(nil)
	select {
	case wires <- w:
	default:
	}
}

// message is what either end needs from an HTTP/1.1 message head.
type message struct {
	target    string // request path, or a reply's status code
	length    int
	id        uint64
	forwarded bool
	closing   bool
}

// readMessage reads one head and its Content-Length body into w.body.
func readMessage(w *wire) (message, error) {
	var m message
	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return m, err
	}
	// "GET /s HTTP/1.1" or "HTTP/1.1 200 OK": the second token either way.
	parts := bytes.SplitN(bytes.TrimRight(line, "\r\n"), []byte(" "), 3)
	if len(parts) < 2 {
		return m, fmt.Errorf("malformed start line %q", line)
	}
	switch string(parts[1]) { // the expected ones without allocating
	case "200":
		m.target = "200"
	case "/s":
		m.target = "/s"
	case "/l":
		m.target = "/l"
	case "/p":
		m.target = "/p"
	case "/health":
		m.target = "/health"
	default:
		m.target = string(parts[1])
	}
	for {
		line, err = w.br.ReadSlice('\n')
		if err != nil {
			return m, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		i := bytes.IndexByte(line, ':')
		if i < 0 {
			return m, fmt.Errorf("malformed header %q", line)
		}
		name, val := line[:i], bytes.TrimSpace(line[i+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if m.length, err = strconv.Atoi(string(val)); err != nil || m.length < 0 || m.length > len(w.body) {
				return m, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(name, []byte("X-Bench-Id")):
			m.id, _ = strconv.ParseUint(string(val), 10, 64)
		case bytes.EqualFold(name, []byte("X-Forwarded-By")):
			m.forwarded = true
		case bytes.EqualFold(name, []byte("Connection")):
			m.closing = bytes.EqualFold(val, []byte("close"))
		}
	}
	_, err = io.ReadFull(w.br, w.body[:m.length])
	return m, err
}

// serveStub answers requests on one upstream connection until the peer asks
// to close or goes away. Replies are cut from the pattern by X-Bench-Id; a
// received body is answered with its checksum; a request the proxy did not
// mark with X-Forwarded-By is refused, which the client counts as a failure.
func (g *loadgen) serveStub(c net.Conn) {
	w := getWire(c)
	defer func() {
		c.Close()
		g.mu.Lock()
		delete(g.conns, c)
		g.mu.Unlock()
		putWire(w)
		g.wg.Done()
	}()
	var head []byte
	for n := 0; ; n++ {
		m, err := readMessage(w)
		if err != nil {
			return
		}
		rec := g.rec.Load()
		start := rec.now()
		health := m.target == "/health"
		if n == 0 && !health {
			g.dials.Add(1)
		}
		var a, b []byte
		status := "200 OK"
		switch {
		case health:
			a = []byte("ok")
		case !m.forwarded:
			status = "400 Bad Request"
		case m.target == "/s":
			a, b = g.pat.segs(m.id, smallBody)
		case m.target == "/l":
			a, b = g.pat.segs(m.id, largeBody)
		case m.target == "/p":
			a = []byte(checksum(w.body[:m.length], nil))
		default:
			status = "404 Not Found"
		}
		head = append(head[:0], "HTTP/1.1 "...)
		head = append(head, status...)
		head = append(head, "\r\nContent-Type: application/octet-stream\r\nContent-Length: "...)
		head = strconv.AppendInt(head, int64(len(a)+len(b)), 10)
		head = append(head, "\r\n\r\n"...)
		bufs := net.Buffers{head, a, b}
		if _, err := bufs.WriteTo(c); err != nil {
			return
		}
		if rec != nil && m.id%traceEvery == 0 && !health {
			rec.put(rec.reserve(), "stub.serve", 0, m.id, start, rec.now())
		}
		if m.closing {
			return
		}
	}
}

// opRecord is one completed client operation, kept small: the records are
// the generator's largest contribution to the process's memory.
type opRecord struct {
	doneUS uint32 // completion, µs since the phase started
	latNS  uint32 // first request byte written → last reply byte read (saturates at 4.29 s)
	class  reqClass
	first  bool // first request on its connection
}

// client is one closed-loop user: it sends its next request only when the
// previous reply is complete, and holds at most one connection.
type client struct {
	g       *loadgen
	idx, n  int
	addr    string
	perConn int

	conn    net.Conn
	w       *wire
	onConn  int
	next    uint64
	req     []byte
	recs    []opRecord
	connect []float64 // µs per dial
	failed  uint64
	lastErr error
}

func (c *client) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.onConn = 0
}

// do runs one operation and verifies the reply: status, length, pattern or checksum.
func (c *client) do(class reqClass, phaseStart time.Time) error {
	id := c.next*uint64(c.n) + uint64(c.idx) + 1
	c.next++
	rec := c.g.rec.Load()
	if id%traceEvery != 0 {
		rec = nil
	}
	if c.conn == nil {
		s0, t := rec.now(), time.Now()
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		c.connect = append(c.connect, float64(time.Since(t))/1e3)
		rec.put(rec.reserve(), "client.connect", 0, id, s0, rec.now())
		c.conn = conn
		c.w.br.Reset(conn)
	}
	first := c.onConn == 0

	var a, b []byte
	c.req = c.req[:0]
	switch class {
	case getSmall:
		c.req = append(c.req, "GET /s"...)
	case getLarge:
		c.req = append(c.req, "GET /l"...)
	case postLarge:
		c.req = append(c.req, "POST /p"...)
		a, b = c.g.pat.segs(id, largeBody)
	}
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench.local\r\nUser-Agent: hermes-benchmark/1\r\nAccept: */*\r\nX-Bench-Id: "...)
	c.req = strconv.AppendUint(c.req, id, 10)
	if c.perConn == 1 {
		c.req = append(c.req, "\r\nConnection: close"...)
	}
	if class == postLarge {
		c.req = append(c.req, "\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, largeBody, 10)
	}
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(append(c.req, a...), b...)

	span, s0, t0 := rec.reserve(), rec.now(), time.Now()
	if _, err := c.conn.Write(c.req); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	m, err := readMessage(c.w)
	if err != nil {
		return fmt.Errorf("read reply: %w", err)
	}
	done := time.Now()
	rec.put(span, "client.request", 0, id, s0, rec.now())

	got := c.w.body[:m.length]
	switch {
	case m.target != "200":
		return fmt.Errorf("op %d: status %s", id, m.target)
	case class == getSmall && (len(got) != smallBody || !c.g.pat.matches(id, got)),
		class == getLarge && (len(got) != largeBody || !c.g.pat.matches(id, got)):
		return fmt.Errorf("op %d: reply of %d bytes does not match its pattern", id, len(got))
	case class == postLarge && string(got) != checksum(a, b):
		return fmt.Errorf("op %d: body checksum %q, want %q", id, got, checksum(a, b))
	}
	c.recs = append(c.recs, opRecord{
		doneUS: uint32(done.Sub(phaseStart) / time.Microsecond),
		latNS:  uint32(min(done.Sub(t0), math.MaxUint32)),
		class:  class, first: first,
	})
	if c.onConn++; c.onConn >= c.perConn {
		c.drop()
	}
	return nil
}

// loadPhase is what one stretch of client load produced.
type loadPhase struct {
	recs      []opRecord
	connectUS []float64
	attempted uint64
	failed    uint64
	lastErr   error
	seconds   float64
	cpuS      float64
	mallocs   uint64
	dials     uint64
	sliceCPU  []float64 // process CPU seconds spent in each slice
	peakRSS   float64   // MiB, read before the records are post-processed
}

// clientCount is the closed loop's width: never more clients, and so never
// more client connections, than processors.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// drive runs the clients against addr until each has done maxOps operations
// (0: no limit) or seconds have passed.
func (g *loadgen) drive(addr string, mixed bool, seconds float64, maxOps uint64) loadPhase {
	n := clientCount()
	clients := make([]*client, n)
	dials0 := g.dials.Load()
	m0 := readMeter()
	deadline := m0.t.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	sliceCPU := make([]float64, loadSlices)
	if maxOps == 0 {
		// Read the process's CPU clock at every slice boundary.
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := m0.cpuS
			for i := range sliceCPU {
				time.Sleep(time.Until(m0.t.Add(time.Duration(float64(i+1) / loadSlices * seconds * float64(time.Second)))))
				now := cpuSeconds()
				sliceCPU[i], prev = now-prev, now
			}
		}()
	}
	for i := range clients {
		c := &client{g: g, idx: i, n: n, addr: addr, perConn: 1, w: getWire(nil)}
		if mixed {
			c.perConn = keepAliveLen
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for (maxOps == 0 || c.next < maxOps) && time.Now().Before(deadline) {
				class := g.sched[(c.next*uint64(n)+uint64(c.idx))%uint64(len(g.sched))]
				if err := c.do(class, m0.t); err != nil {
					c.failed++
					c.lastErr = err
					c.drop()
				}
			}
			c.drop()
		}()
	}
	wg.Wait()
	m1 := readMeter()
	p := loadPhase{seconds: seconds, cpuS: m1.cpuS - m0.cpuS, mallocs: m1.mallocs - m0.mallocs,
		dials: g.dials.Load() - dials0, sliceCPU: sliceCPU, peakRSS: peakRSSMiB()}
	for _, c := range clients {
		p.recs = append(p.recs, c.recs...)
		p.connectUS = append(p.connectUS, c.connect...)
		p.attempted += c.next
		p.failed += c.failed
		if c.lastErr != nil {
			p.lastErr = c.lastErr
		}
		putWire(c.w)
	}
	return p
}

const loadSlices = 8 // every host-time metric is the median over this many equal slices of the phase

// slices cuts the phase's records into equal slices of time by completion.
// Throughput, CPU per op and the latency quantiles are each computed per
// slice and reported as the median over slices, so that a noisy neighbour's
// burst moves none of them.
func (p loadPhase) slices() [][]opRecord {
	out := make([][]opRecord, loadSlices)
	width := p.seconds / loadSlices * 1e6
	for _, r := range p.recs {
		i := int(float64(r.doneUS) / width)
		if i >= loadSlices {
			i = loadSlices - 1 // operations in flight at the deadline finish in the last slice
		}
		out[i] = append(out[i], r)
	}
	return out
}

// perSlice applies f to every slice and returns the results.
func (p loadPhase) perSlice(f func(i int, recs []opRecord) float64) []float64 {
	out := make([]float64, 0, loadSlices)
	for i, recs := range p.slices() {
		out = append(out, f(i, recs))
	}
	return out
}

func (p loadPhase) opsPerSecond() []float64 {
	return p.perSlice(func(_ int, recs []opRecord) float64 { return float64(len(recs)) / (p.seconds / loadSlices) })
}

// latencyUS returns the q-quantile latency of each slice's records that keep
// accepts (nil: all), in µs.
func (p loadPhase) latencyUS(q float64, keep func(opRecord) bool) []float64 {
	return p.perSlice(func(_ int, recs []opRecord) float64 {
		var lat []float64
		for _, r := range recs {
			if keep == nil || keep(r) {
				lat = append(lat, float64(r.latNS)/1e3)
			}
		}
		return quantile(lat, q)
	})
}

// proxySetup is one running proxy with its stubs.
type proxySetup struct {
	g *loadgen
	h *proxyHandle
}

func startProxySetup(seed int64, mixed bool) (*proxySetup, error) {
	g, err := newLoadgen(seed, mixed)
	if err != nil {
		return nil, err
	}
	h, err := startProxy(g.backends())
	if err != nil {
		g.stop()
		return nil, err
	}
	return &proxySetup{g, h}, nil
}

func (s *proxySetup) stop() error {
	err := s.h.stop()
	s.g.stop()
	return err
}

func runProxy(o runOpts, mixed bool) (*result, error) {
	name := "proxy-churn"
	if mixed {
		name = "proxy-keepalive-mixed"
	}
	r := &result{Workload: name, Trace: o.trace, Correct: true, Metrics: map[string]float64{}}
	account := func(p loadPhase) {
		r.Attempted += p.attempted
		r.Failed += p.failed
		if p.failed > 0 {
			r.fail("%d of %d operations failed, last: %v", p.failed, p.attempted, p.lastErr)
		}
	}

	// Set-up: stubs, proxy.New, and a fixed warm-up of the workload's own mix.
	var setups []float64
	var s *proxySetup
	warmOps := uint64(scaled(2000, 40) / clientCount())
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if s, err = startProxySetup(o.seed, mixed); err != nil {
			return nil, err
		}
		account(s.g.drive(s.h.addr(), mixed, 60, warmOps))
		setups = append(setups, time.Since(t).Seconds())
	}
	defer s.stop()
	r.Attempted, r.Failed = 0, 0 // warm-up operations are checked but not counted

	if !o.trace {
		p := s.g.drive(s.h.addr(), mixed, o.seconds, 0)
		account(p)
		ops := p.opsPerSecond()
		r.Metrics["setup_s"] = median(setups)
		r.Metrics["throughput_ops_s"] = median(ops)
		r.Metrics["cpu_us_per_op"] = median(p.perSlice(func(i int, recs []opRecord) float64 {
			return ratio(p.sliceCPU[i]*1e6, float64(len(recs)))
		}))
		r.Metrics["allocs_per_op"] = float64(p.mallocs) / float64(len(p.recs))
		r.Metrics["peak_rss_mb"] = p.peakRSS
		r.Metrics["p50_us"] = median(p.latencyUS(0.50, nil))
		r.notef("throughput_ops_s: median of %d slices, slice spread %.3f", len(ops), spread(ops))
		r.notef("p50_us: median over slices of %d samples each", len(p.recs)/loadSlices)
		return r, nil
	}

	m := r.Metrics
	base := s.g.drive(s.h.addr(), mixed, o.seconds/2, 0)
	account(base)
	handled0 := s.h.handled()
	rec := newRecorder()
	s.g.rec.Store(rec)
	var traced loadPhase
	shares, err := profileCPU(func() { traced = s.g.drive(s.h.addr(), mixed, o.seconds/2, 0) })
	s.g.rec.Store(nil)
	if err != nil {
		return nil, err
	}
	account(traced)
	ops := float64(len(traced.recs))

	m["client.p99_us"] = median(traced.latencyUS(0.99, nil))
	m["client.p999_us"] = median(traced.latencyUS(0.999, nil))
	r.notef("client.p99_us: median over slices of %d samples each, %d beyond p99", len(traced.recs)/loadSlices, len(traced.recs)/loadSlices/100)
	for ci, cn := range classNames {
		class := func(r opRecord) bool { return r.class == reqClass(ci) }
		m["proxy."+cn+"_p50_us"] = median(traced.latencyUS(0.50, class))
		m["proxy."+cn+"_p99_us"] = median(traced.latencyUS(0.99, class))
	}
	m["proxy.first_req_us"] = median(traced.latencyUS(0.50, func(r opRecord) bool { return r.first }))
	m["proxy.next_req_us"] = median(traced.latencyUS(0.50, func(r opRecord) bool { return !r.first }))
	m["proxy.connect_us"] = median(traced.connectUS)
	m["proxy.upstream_dials_per_op"] = float64(traced.dials) / ops

	// Join each sampled client.request to the stub.serve it caused: one
	// process, one clock, so the differences are exact.
	requests := map[uint64]*span{}
	for i := range rec.spans {
		if sp := &rec.spans[i]; sp.Name == "client.request" {
			requests[sp.Op] = sp
		}
	}
	var inbound, outbound []float64
	for i := range rec.spans {
		sp := &rec.spans[i]
		if req := requests[sp.Op]; sp.Name == "stub.serve" && req != nil {
			sp.Parent = req.ID
			inbound = append(inbound, float64(sp.Start-req.Start)/1e3)
			outbound = append(outbound, float64(req.End-sp.End)/1e3)
		}
	}
	m["proxy.inbound_us"] = median(inbound)
	m["proxy.outbound_us"] = median(outbound)

	handled := s.h.handled()
	for i := range handled {
		handled[i] -= handled0[i]
	}
	m["proxy.worker_spread"] = cv(handled)
	counts := s.h.counts()
	served := counts["proxy.worker.requests_served"]
	m["proxy.retry_share"] = ratio(counts["proxy.retry.attempts"], served)
	m["proxy.error_share"] = ratio(counts["proxy.upstream_errors"]+counts["proxy.unavailable"], served)
	m["proxy.internal_p50_us"] = counts["proxy.request_latency_ns.p50"] / 1e3
	m["core.recomputes_per_op"] = ratio(counts["core.schedule.recomputes"], served)
	m["core.syncs_per_recompute"] = ratio(counts["core.schedule.syncs"], counts["core.schedule.recomputes"])
	m["core.empty_set_share"] = ratio(counts["core.schedule.empty_sets"], counts["core.schedule.recomputes"])

	m["trace.overhead_ratio"] = median(base.opsPerSecond()) / median(traced.opsPerSecond())
	r.notef("trace: %d spans, %d request/stub pairs", len(rec.spans), len(inbound))
	r.finishTrace(shares, rec, o.seed)
	return r, nil
}
