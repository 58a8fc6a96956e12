package proxy

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/httpx"
)

// bufSize is the capacity of every pooled buffer — one holds a request while
// it is received and replayed, a second carries the reply past: room for the
// largest head httpx accepts plus a 64 KiB window of body.
const bufSize = httpx.MaxHeaderBytes + 64<<10

// freeSlots bounds both of the proxy's free lists: the idle buffers of
// bufPool and the parked goroutines of idleConns.
const freeSlots = 32

// bufPool is the proxy's one free list of data-path buffers (the FramePool
// idiom of internal/packet, made safe for many goroutines): a fixed number
// of fixed-size slots, so what it retains is bounded whatever traffic did. A
// buffer grown for a large request was never the pool's and is left to the
// GC; gets == puts once every connection has closed.
type bufPool struct {
	// free holds at most freeSlots idle buffers (4 MiB): sixteen requests
	// in flight allocate nothing once warm.
	free       chan []byte
	gets, puts atomic.Uint64
}

func newBufPool() *bufPool { return &bufPool{free: make(chan []byte, freeSlots)} }

func (bp *bufPool) get() []byte {
	bp.gets.Add(1)
	select {
	case b := <-bp.free:
		return b
	default:
		return make([]byte, bufSize)
	}
}

func (bp *bufPool) put(b []byte) {
	if cap(b) != bufSize {
		return
	}
	bp.puts.Add(1)
	select {
	case bp.free <- b[:bufSize]:
	default:
	}
}

// idleConns is the LIFO list of parked connection goroutines (fasthttp's
// worker pool): the acceptor hands a new client to the goroutine parked
// last, whose stack is the warmest, and starts a goroutine only when none is
// parked. It holds at most freeSlots; a goroutine that finds it full, or
// closed by Shutdown, exits instead of parking.
type idleConns struct {
	mu     sync.Mutex
	parked []*conn
	closed bool
}

// park puts c's goroutine on the list; false means it must exit.
func (l *idleConns) park(c *conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || len(l.parked) == freeSlots {
		return false
	}
	l.parked = append(l.parked, c)
	return true
}

// take pops the goroutine parked last: nil when none is parked.
func (l *idleConns) take() *conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.parked)
	if n == 0 {
		return nil
	}
	c := l.parked[n-1]
	l.parked[n-1] = nil
	l.parked = l.parked[:n-1]
	return c
}

// close ends every parked goroutine and refuses any that tries to park later.
func (l *idleConns) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	for _, c := range l.parked {
		close(c.wake)
	}
	l.parked = nil
}

// conn is one client connection's state, owned by a connection goroutine
// (run) that serves one client after another. While it serves one, it parks
// in the netpoller between requests and owns the connection's buffer, parse
// cursor and scratch; while parked with nothing pending it holds no pooled
// buffer.
type conn struct {
	// wake is how the acceptor hands this goroutine its next client while it
	// is parked on idleConns; closed, it tells the goroutine to exit. One
	// slot of buffer, so the acceptor never waits for a goroutine that has
	// parked but not yet reached its receive.
	wake chan struct{}

	w     *worker
	nc    net.Conn
	id    uint64 // flight-recorder identity: acceptLoop numbers every connection from 1
	estNS int64  // steering time: the accept-queue span starts here

	buf     []byte // request bytes at the front, buf[:pending]
	pending int
	headLen int // length of the scanned request head, 0 until it is complete
	first   [512]byte

	req, resp httpx.Head
	head      []byte // scratch the rewritten heads are built in
	vec       net.Buffers

	// First backing of req.Fields, resp.Fields, head and vec: a connection
	// with ordinary heads allocates nothing after this struct.
	fieldArr [2][16]httpx.Field
	headArr  [512]byte
	vecArr   [2][]byte
}

// refusal is a request the proxy answers itself and then hangs up on.
type refusal struct {
	status int
	msg    string
}

func (r *refusal) Error() string { return r.msg }

var (
	errTooLarge   = &refusal{413, "request exceeds buffer limit"}
	errBodyLimit  = &refusal{413, "request body exceeds limit"}
	errBadRequest = &refusal{400, ""}
	errChunkedReq = &refusal{501, "chunked request bodies are not supported"}
	errDraining   = errors.New("proxy: draining")
)

// run is a connection goroutine: it serves the client it was started for,
// then parks on p.idle and serves whichever client the acceptor hands it
// next, until the list is full or closed. It is counted in p.wg until it
// exits.
func (c *conn) run(p *Proxy) {
	defer p.wg.Done()
	for {
		c.serve()
		// Nothing of one client reaches the next: only the hand-off channel
		// survives, and the inline arrays are zeroed with the rest.
		*c = conn{wake: c.wake}
		if !p.idle.park(c) {
			return
		}
		if _, ok := <-c.wake; !ok {
			return
		}
	}
}

// serve runs the connection: read a request, proxy it, repeat while both
// sides want the connection kept.
func (c *conn) serve() {
	w, p := c.w, c.w.p
	w.hook.ConnOpened()
	w.tr.Accept(c.id, c.estNS, time.Now().UnixNano())
	c.req.Fields, c.resp.Fields, c.head = c.fieldArr[0][:0], c.fieldArr[1][:0], c.headArr[:0]
	defer func() {
		if c.buf != nil {
			p.bufs.put(c.buf)
		}
		p.untrack(c.nc)
		c.nc.Close()
		w.tr.Close(c.id, time.Now().UnixNano(), false)
		w.hook.ConnClosed()
		p.sync()
	}()
	for {
		reqLen, err := c.readRequest()
		if err != nil {
			// Idle keep-alive connections end here: EOF, a drain nudge, or
			// the idle deadline. Partial requests go with the connection.
			var r *refusal
			if errors.As(err, &r) {
				c.refuse(r)
			}
			return
		}
		arrivalNS := time.Now().UnixNano()
		if !w.stall(arrivalNS) {
			return // the drain ended a stall
		}
		w.hook.EventsFetched(1)
		if d := w.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		start := time.Now()
		keep := c.forward(reqLen)
		w.hook.EventHandled()
		w.handled.Inc()
		end := time.Now()
		p.tel.RequestLatencyNS.Observe(end.Sub(start).Nanoseconds())
		w.tr.Serve(c.id, arrivalNS, start.UnixNano(), end.UnixNano(), false)
		p.sync()
		if !keep {
			return
		}
		// A pipelined successor moves to the front; otherwise the buffer is
		// simply empty again.
		c.pending = copy(c.buf, c.buf[reqLen:c.pending])
		c.headLen = 0
	}
}

// readRequest returns once one complete request lies at buf[:reqLen], its
// head scanned into c.req. Requests are buffered whole, bounded by the
// configured body cap, so the retry path can replay them.
func (c *conn) readRequest() (reqLen int, err error) {
	p := c.w.p
	for {
		if c.headLen == 0 && c.pending > 0 {
			switch c.headLen, err = c.req.ScanRequest(c.buf[:c.pending]); {
			case err == httpx.ErrIncomplete:
			case err != nil:
				return 0, errBadRequest
			case c.req.HasTE:
				return 0, errChunkedReq
			case p.cfg.Buffer.MaxRequestBody > 0 && c.req.ContentLength > p.cfg.Buffer.MaxRequestBody:
				return 0, errBodyLimit
			}
		}
		if c.headLen > 0 {
			if reqLen = c.headLen + max(c.req.ContentLength, 0); c.pending >= reqLen {
				return reqLen, nil
			}
		}
		if err := c.fill(reqLen); err != nil {
			return 0, err
		}
	}
}

// fill reads more of the request; need is its full length once known. A
// connection with nothing pending is idle: it gives its buffer back and waits
// on a few inline bytes, so a parked connection costs its goroutine and this
// struct, not a pooled buffer.
func (c *conn) fill(need int) error {
	p := c.w.p
	_ = c.nc.SetReadDeadline(time.Now().Add(p.cfg.ClientIdleTimeout))
	if c.pending == 0 {
		// After the deadline is set: Shutdown raises the flag before it
		// nudges deadlines, so one of the two is seen.
		if p.draining.Load() {
			return errDraining
		}
		if c.buf != nil {
			p.bufs.put(c.buf)
			c.buf = nil
		}
		n, err := c.nc.Read(c.first[:])
		if err != nil {
			return err
		}
		c.buf = p.bufs.get()
		c.pending = copy(c.buf, c.first[:n])
		return nil
	}
	if size := max(need, c.pending+1); size > len(c.buf) {
		// Larger than the buffer: grow to the request's size (or double while
		// the head is still open) up to the configured bound, then refuse —
		// bounded buffering, not an OOM vector.
		if size > p.bufLimit() {
			return errTooLarge
		}
		if need == 0 {
			size = min(2*len(c.buf), p.bufLimit())
		}
		grown := make([]byte, size)
		copy(grown, c.buf[:c.pending])
		p.bufs.put(c.buf)
		c.buf = grown
		if c.headLen > 0 { // the head's views moved with the bytes
			_, _ = c.req.ScanRequest(c.buf[:c.headLen])
		}
	}
	n, err := c.nc.Read(c.buf[c.pending:])
	c.pending += n
	return err
}

// refuse answers a request the proxy will not forward and closes: the reply,
// then a bounded wait for the bytes the client is still sending, because
// closing on unread data would reset the connection under the reply.
func (c *conn) refuse(r *refusal) {
	c.answer(r.status, r.msg, false)
	if tc, ok := c.nc.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
		_ = c.nc.SetReadDeadline(time.Now().Add(time.Second))
		_, _ = io.CopyN(io.Discard, c.nc, int64(c.w.p.bufLimit()))
	}
}

// answer writes a reply of the proxy's own.
func (c *conn) answer(status int, msg string, keep bool) bool {
	resp := httpx.Response{Status: status, Body: []byte(msg)}
	if !keep {
		resp.Headers = []httpx.Header{{Name: "Connection", Value: "close"}}
	}
	c.head = resp.Append(c.head[:0])
	_, err := c.nc.Write(c.head)
	return keep && err == nil
}

func isIdempotent(method []byte) bool {
	switch string(method) {
	case "GET", "HEAD", "OPTIONS", "TRACE", "PUT", "DELETE":
		// The RFC 9110 idempotent set: safe to replay against a second
		// backend when the first attempt failed.
		return true
	}
	return false
}

// forward proxies the request at buf[:reqLen]: pick a backend under the
// policy (health and circuit state included), retry idempotent requests
// against other backends until a reply head has arrived, then relay that
// reply as it streams in; 502/503 when everything is down. Retry attempts
// publish extra busy units to the WST — a worker grinding on failed backends
// sheds new connections through the same Algorithm-1 path that balances
// load, making backend availability part of the steering decision. It
// reports whether the client connection stays open.
func (c *conn) forward(reqLen int) (keep bool) {
	w, p := c.w, c.w.p
	keep = c.req.Persistent() && !p.draining.Load()
	idempotent := isIdempotent(c.req.Method)
	attempts := 1
	if idempotent {
		attempts += p.cfg.Buffer.Retries
	}

	// The upstream request: the head rewritten once for every attempt, the
	// body as it already sits in the connection buffer. An HTTP/1.1 request
	// leaves the upstream connection open for the next one; an HTTP/1.0
	// request keeps its own framing rules and asks for it closed.
	c.head = append(append(c.head[:0], c.req.Line...), "\r\n"...)
	c.head = append(c.req.AppendEndToEnd(c.head), w.fwdTail...)
	if string(c.req.Proto) != "HTTP/1.1" {
		c.head = append(c.head, "Connection: close\r\n"...)
	}
	c.head = append(c.head, "\r\n"...)
	body := c.buf[c.headLen:reqLen]

	rbuf := p.bufs.get()
	defer p.bufs.put(rbuf)
	var tried uint64
	for attempt := 0; attempt < attempts; attempt++ {
		b, epoch := p.pool.Pick(tried)
		if b == nil {
			if attempt == 0 {
				p.tel.Unavailable.Inc()
				return c.answer(503, "no backend available", keep)
			}
			break // pool exhausted mid-retry
		}
		tried |= 1 << uint(b.idx)
		if attempt > 0 {
			p.tel.RetryAttempts.Inc()
			w.hook.EventsFetched(1) // retry pressure → WST busy → Algorithm 1
		}
		b.active.Add(1)
		up, n, respLen, err := c.roundTrip(b, body, rbuf, idempotent)
		// With a reply head in hand bytes start reaching the client, so from
		// here on nothing can be replayed.
		committed := err == nil
		if committed {
			var reuse bool
			keep, reuse, err = c.relay(up.nc, rbuf, n, respLen, keep)
			b.release(up, reuse && !p.draining.Load())
		}
		b.active.Add(-1)
		if attempt > 0 {
			w.hook.EventHandled()
		}
		p.pool.Observe(b, epoch, err == nil)
		switch {
		case !committed:
			continue
		case err != nil: // cut short mid-reply: the client has part of it
			p.tel.UpstreamErrors.Inc()
			return false
		case attempt > 0:
			p.tel.RetryRecovered.Inc()
		}
		return keep
	}
	if attempts > 1 {
		p.tel.RetryExhausted.Inc()
	}
	// The body is fixed, as nginx's 502 page is: the upstream error names the
	// backend's address, which is not the client's to read.
	p.tel.UpstreamErrors.Inc()
	return c.answer(502, "bad gateway", keep)
}

var errUpstreamProto = errors.New("proxy: upstream reply not relayable")

// roundTrip opens the upstream exchange against b — on an idle connection of
// b's when one is waiting, else on a new dial — sends the request and reads
// until a final reply head is scanned into c.resp. It returns the connection
// with rbuf[:n] holding the head (respLen bytes) and whatever of the body came
// with it. Nothing has reached the client yet, so any error here leaves the
// request replayable, and the connection is closed.
//
// take skips an idle connection the backend has closed or written on, but
// the backend may still close one just as the request goes out. One that then
// fails before any reply byte, other than by timing out, sends the request
// once more on a new dial to the same backend when the request is idempotent
// or not one byte of it was written (net/http's rule: the backend cannot have
// acted on it). That redial is part of this attempt, not a retry: only the new
// connection's outcome is reported.
func (c *conn) roundTrip(b *Backend, body, rbuf []byte, idempotent bool) (up upstream, n, respLen int, err error) {
	p := c.w.p
	up, pooled := b.take(rbuf)
	for {
		if !pooled {
			if up.nc, err = p.dialer.Dial("tcp", b.addr); err != nil {
				return up, 0, 0, err
			}
			up.fd = socketFD(up.nc)
			b.dials.Inc()
		}
		// One deadline bounds the whole exchange, the write included: a
		// backend that stops reading cannot hold the request past it.
		_ = up.nc.SetDeadline(time.Now().Add(p.cfg.ResponseTimeout))
		var written int64
		if len(body) == 0 {
			var m int
			m, err = up.nc.Write(c.head)
			written = int64(m)
		} else {
			c.vec = append(c.vecArr[:0], c.head, body)
			written, err = c.vec.WriteTo(up.nc)
		}
		read := false
		for err == nil {
			switch respLen, err = c.resp.ScanResponse(rbuf[:n]); {
			case err == httpx.ErrIncomplete:
				// rbuf outsizes the largest head the scanner accepts, so while
				// the head is incomplete there is room to read into.
				var m int
				if m, err = up.nc.Read(rbuf[n:]); m > 0 {
					n, err, read = n+m, nil, true
				} else if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
			case err != nil:
			case c.resp.Status == 101, c.resp.Chunked && string(c.req.Proto) == "HTTP/1.0":
				err = errUpstreamProto
			case c.resp.Status/100 == 1:
				// An interim reply (100 Continue, 103 Early Hints): drop it and
				// look for the final one behind it.
				n = copy(rbuf, rbuf[respLen:n])
			default:
				return up, n, respLen, nil
			}
		}
		up.nc.Close()
		if !pooled || read || (written > 0 && !idempotent) || errors.Is(err, os.ErrDeadlineExceeded) {
			return up, 0, 0, err
		}
		up, pooled = upstream{gen: b.gen.Load()}, false
	}
}

// relay sends the reply to the client as it arrives: the head rewritten once
// (hop-by-hop fields dropped, persistence answered from the client's own
// request), then the body through rbuf, framed by Content-Length, chunked or
// close as the upstream framed it. It reports whether the client connection
// is still good for another request, whether the upstream one is, and the
// upstream's error if the reply was cut short. The upstream connection is
// good only when both ends meant to keep it (an HTTP/1.1 request, a
// persistent reply) and the reply ended where its framing says, with no byte
// past it.
func (c *conn) relay(up net.Conn, rbuf []byte, n, respLen int, keep bool) (bool, bool, error) {
	framing := c.resp.ReplyFraming(string(c.req.Method) == "HEAD")
	if framing == httpx.FrameClose {
		keep = false // only our close can end this body for the client
	}
	reusable := framing != httpx.FrameClose && c.resp.Persistent() && string(c.req.Proto) == "HTTP/1.1"
	c.head = append(append(c.head[:0], c.resp.Line...), "\r\n"...)
	c.head = c.resp.AppendEndToEnd(c.head)
	if framing == httpx.FrameChunked {
		c.head = append(c.head, "Transfer-Encoding: chunked\r\n"...)
	}
	switch {
	case !keep:
		c.head = append(c.head, "Connection: close\r\n"...)
	case string(c.req.Proto) == "HTTP/1.0":
		c.head = append(c.head, "Connection: keep-alive\r\n"...)
	}
	c.head = append(c.head, "\r\n"...)

	var (
		chunks httpx.Chunked
		remain = c.resp.ContentLength // FrameLength: body bytes still to come
		part   = rbuf[respLen:n]      // body bytes in hand
		done   bool
		upErr  error
	)
	for first := true; ; first = false {
		got := len(part)
		switch framing {
		case httpx.FrameNone:
			part, done = part[:0], true
		case httpx.FrameLength:
			part = part[:min(len(part), remain)]
			remain -= len(part)
			done = remain == 0
		case httpx.FrameChunked:
			var m int
			m, done, upErr = chunks.Feed(part)
			part = part[:m]
		}
		var err error
		switch {
		case first && len(c.head)+len(part) <= cap(c.head):
			// A small reply goes out in one write, head and body together:
			// no writev, whose iovec cache a new socket would build first.
			_, err = c.nc.Write(append(c.head, part...))
		case first:
			c.vec = append(c.vecArr[:0], c.head, part)
			_, err = c.vec.WriteTo(c.nc)
		case len(part) > 0:
			_, err = c.nc.Write(part)
		}
		if err != nil {
			return false, false, nil // the client went away; not the backend's fault
		}
		if done || upErr != nil {
			ok := upErr == nil
			return keep && ok, reusable && ok && len(part) == got, upErr
		}
		m, err := up.Read(rbuf)
		if part = rbuf[:m]; m == 0 && err != nil {
			if err == io.EOF && framing == httpx.FrameClose {
				return false, false, nil
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return false, false, err
		}
	}
}
