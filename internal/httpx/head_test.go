package httpx

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestScanRequestViews(t *testing.T) {
	raw := []byte("POST /submit?x=1 HTTP/1.1\r\nHost: svc\r\nContent-Length:  5 \r\nX-Empty:\r\n\r\nhelloNEXT")
	var h Head
	n, err := h.ScanRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(raw) - len("helloNEXT"); n != want {
		t.Fatalf("head length %d, want %d", n, want)
	}
	if string(h.Line) != "POST /submit?x=1 HTTP/1.1" || string(h.Method) != "POST" ||
		string(h.Target) != "/submit?x=1" || string(h.Proto) != "HTTP/1.1" {
		t.Fatalf("request line: %q %q %q %q", h.Line, h.Method, h.Target, h.Proto)
	}
	if h.ContentLength != 5 || h.Chunked || h.HasTE || h.Close || h.KeepAlive || !h.Persistent() {
		t.Fatalf("framing: %+v", h)
	}
	if len(h.Fields) != 3 || string(h.Fields[2].Name) != "X-Empty" || len(h.Fields[2].Value) != 0 {
		t.Fatalf("empty value: %q", h.Fields)
	}
	if f := h.Fields[1]; string(f.Name) != "Content-Length" || string(f.Value) != "5" {
		t.Fatalf("optional whitespace not trimmed: %q: %q", f.Name, f.Value)
	}
	// Views, not copies: a change to the buffer shows through.
	raw[0] = 'G'
	if h.Method[0] != 'G' {
		t.Fatal("Method is a copy, not a view into the buffer")
	}
}

// A reused Head scans a steady stream of heads without allocating.
func TestScanReusedHeadDoesNotAllocate(t *testing.T) {
	req := []byte("GET /s HTTP/1.1\r\nHost: bench.local\r\nUser-Agent: x\r\nAccept: */*\r\nX-Bench-Id: 12345\r\n\r\n")
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 128\r\n\r\n")
	var h Head
	dst := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := h.ScanRequest(req); err != nil {
			t.Fatal(err)
		}
		dst = h.AppendEndToEnd(dst[:0])
		if _, err := h.ScanResponse(resp); err != nil {
			t.Fatal(err)
		}
		dst = h.AppendEndToEnd(dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per scan pair, want 0", allocs)
	}
}

func TestPersistent(t *testing.T) {
	cases := []struct {
		head string
		want bool
	}{
		{"GET / HTTP/1.1\r\n\r\n", true},
		{"GET / HTTP/1.0\r\n\r\n", false},
		{"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
		{"GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n", true},
		{"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
		{"GET / HTTP/1.1\r\nConnection: x-foo, CLOSE\r\n\r\n", false},
	}
	for _, c := range cases {
		var h Head
		if _, err := h.ScanRequest([]byte(c.head)); err != nil {
			t.Fatalf("%q: %v", c.head, err)
		}
		if got := h.Persistent(); got != c.want {
			t.Errorf("%q: persistent = %v, want %v", c.head, got, c.want)
		}
	}
}

// RFC 9110 §7.6.1: the listed fields, and whatever Connection nominates, stay
// on this hop; Content-Length goes when a Transfer-Encoding overrides it.
func TestAppendEndToEndDropsHopByHop(t *testing.T) {
	raw := "GET / HTTP/1.1\r\nHost: h\r\nConnection: keep-alive, X-Hop\r\nKeep-Alive: timeout=5\r\n" +
		"Proxy-Connection: keep-alive\r\nTE: trailers\r\nUpgrade: websocket\r\nX-Hop: 1\r\nX-End:2\r\n" +
		"Transfer-Encoding: gzip, chunked\r\nContent-Length: 3\r\n\r\n"
	var h Head
	if _, err := h.ScanRequest([]byte(raw)); err != nil {
		t.Fatal(err)
	}
	if !h.Chunked || !h.HasTE || !h.KeepAlive {
		t.Fatalf("flags: %+v", h)
	}
	if got, want := string(h.AppendEndToEnd(nil)), "Host: h\r\nX-End: 2\r\n"; got != want {
		t.Fatalf("forwarded fields %q, want %q", got, want)
	}
}

func TestScanRefusesSmugglingShapes(t *testing.T) {
	cases := []string{
		"GET / HTTP/1.1\r\nX: a\nTransfer-Encoding: chunked\r\n\r\n", // bare LF inside a field
		"GET / HTTP/1.1\r\nX: a\rb\r\n\r\n",                          // bare CR
		"GET / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: +3\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: 3 4\r\n\r\n",
	}
	for _, c := range cases {
		var h Head
		if _, err := h.ScanRequest([]byte(c)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%q: err = %v, want ErrMalformed", c, err)
		}
	}
	var h Head
	if _, err := h.ScanRequest([]byte("GET / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\n")); err != nil {
		t.Errorf("two equal Content-Lengths refused: %v", err)
	}
}

func TestReplyFraming(t *testing.T) {
	cases := []struct {
		head   string
		toHead bool
		want   Framing
	}{
		{"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n", false, FrameLength},
		{"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", false, FrameNone},
		{"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n", true, FrameNone},
		{"HTTP/1.1 204 No Content\r\n\r\n", false, FrameNone},
		{"HTTP/1.1 304 Not Modified\r\nContent-Length: 9\r\n\r\n", false, FrameNone},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n", false, FrameChunked},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", false, FrameClose},
		{"HTTP/1.1 200 OK\r\n\r\n", false, FrameClose},
	}
	for _, c := range cases {
		var h Head
		if _, err := h.ScanResponse([]byte(c.head)); err != nil {
			t.Fatalf("%q: %v", c.head, err)
		}
		if got := h.ReplyFraming(c.toHead); got != c.want {
			t.Errorf("%q (HEAD=%v): framing %d, want %d", c.head, c.toHead, got, c.want)
		}
	}
}

// The chunked tracker must find the same end however the stream is cut up.
func TestChunkedFindsEndAtEverySplit(t *testing.T) {
	body := "5\r\nhello\r\nA;name=val\r\n0123456789\r\n0\r\nX-Trailer: t\r\n\r\n"
	wire := body + "HTTP/1.1 200 next"
	for cut := 0; cut <= len(wire); cut++ {
		var c Chunked
		total := 0
		var done bool
		for _, part := range []string{wire[:cut], wire[cut:]} {
			n, d, err := c.Feed([]byte(part))
			if err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
			total += n
			done = d
		}
		if !done || total != len(body) {
			t.Fatalf("cut=%d: consumed %d (done=%v), want %d", cut, total, done, len(body))
		}
	}
	var c Chunked
	if n, done, err := c.Feed([]byte("0\r\n\r\n")); n != 5 || !done || err != nil {
		t.Fatalf("empty body: n=%d done=%v err=%v", n, done, err)
	}
}

func TestChunkedMalformed(t *testing.T) {
	for _, wire := range []string{
		"\r\n",                       // no size
		"zz\r\n",                     // not hex
		"3\r\nabcd\r\n",              // data longer than its size
		"3\r\nabc\rX",                // CR without LF after data
		"0\r\n\rX",                   // bad final CRLF
		"fffffffffffffffffff\r\nabc", // size overflows
	} {
		var c Chunked
		if _, _, err := c.Feed([]byte(wire)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%q: err = %v, want ErrMalformed", wire, err)
		}
	}
}

// FuzzChunkedFeed generalises TestChunkedFindsEndAtEverySplit to any input
// and any cutting of it: each byte of cuts is the length of the next piece
// fed (0 feeds an empty piece), the last piece takes the rest. Fed whole or
// in pieces, the tracker must end at the same place with the same verdict,
// never report more bytes than it was given, consume a whole piece unless
// the body ended or broke inside it, consume nothing once done, and never
// panic.
func FuzzChunkedFeed(f *testing.F) {
	for _, seed := range []struct{ wire, cuts string }{
		// The wires of TestChunkedFindsEndAtEverySplit and TestChunkedMalformed.
		{"5\r\nhello\r\nA;name=val\r\n0123456789\r\n0\r\nX-Trailer: t\r\n\r\nHTTP/1.1 200 next", "\x07"},
		{"5\r\nhello\r\nA;name=val\r\n0123456789\r\n0\r\nX-Trailer: t\r\n\r\nHTTP/1.1 200 next", "\x07\x2e"},
		{"0\r\n\r\n", ""},
		{"\r\n", "\x01"},
		{"zz\r\n", ""},
		{"3\r\nabcd\r\n", "\x04\x00\x01"},
		{"3\r\nabc\rX", "\x06"},
		{"0\r\n\rX", "\x03\x01"},
		{"fffffffffffffffffff\r\nabc", "\x08\x08"},
		// A size, an extension and a trailer each cut mid-way, and the bytes
		// after the end fed as a piece of their own.
		{"1a;ext=\"x\"\r\nabcdefghijklmnopqrstuvwxyz\r\n0\r\nA: 1\r\nB: 2\r\n\r\ntail", "\x01\x05\x0b\x1b\x0d"},
	} {
		f.Add([]byte(seed.wire), []byte(seed.cuts))
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var whole Chunked
		wn, wdone, werr := whole.Feed(data)
		if wn < 0 || wn > len(data) {
			t.Fatalf("whole: n=%d of %d bytes", wn, len(data))
		}
		if werr != nil && !errors.Is(werr, ErrMalformed) || werr != nil && wdone {
			t.Fatalf("whole: done=%v err=%v", wdone, werr)
		}
		if werr == nil && !wdone && wn != len(data) {
			t.Fatalf("whole: consumed %d of %d bytes, neither done nor broken", wn, len(data))
		}
		if wdone && data[wn-1] != '\n' {
			t.Fatalf("whole: done after %q, not at the final CRLF's LF", data[:wn])
		}
		var c Chunked
		total, done := 0, false
		var err error
		for i, off := 0, 0; off < len(data) || i < len(cuts); i++ {
			k := len(data) - off
			if i < len(cuts) {
				k = min(k, int(cuts[i]))
			}
			piece := data[off : off+k]
			off += k
			var n int
			if n, done, err = c.Feed(piece); n < 0 || n > len(piece) {
				t.Fatalf("piece %d: n=%d of %d bytes", i, n, len(piece))
			}
			total += n
			if err != nil {
				break
			}
			if done {
				if n, d, e := c.Feed(data[off:]); n != 0 || !d || e != nil {
					t.Fatalf("after done: n=%d done=%v err=%v", n, d, e)
				}
				break
			}
			if n != len(piece) {
				t.Fatalf("piece %d: consumed %d of %d bytes, neither done nor broken", i, n, len(piece))
			}
		}
		if total != wn || done != wdone || (err == nil) != (werr == nil) {
			t.Fatalf("cut by %v: consumed %d, done=%v, err=%v; whole: %d, %v, %v", cuts, total, done, err, wn, wdone, werr)
		}
	})
}

// inside reports whether view lies within data's backing array bounds.
func inside(data, view []byte) bool {
	if len(view) == 0 {
		return true
	}
	off := cap(data) - cap(view)
	return off >= 0 && off+len(view) <= len(data) && &data[off] == &view[0]
}

// FuzzScanHead throws arbitrary bytes at both scanners. They must never
// panic; a scanned head is at most the input and ends in a blank line; every
// view lies inside the input; and an owned copy serialized with Append scans
// back to the same head.
func FuzzScanHead(f *testing.F) {
	for _, seed := range []string{
		// The corpus of hardening_test.go and httpx_test.go.
		"HTTP/1.1 200 OK\r\nContent-Length: 6\r\nServer: b1\r\n\r\nstream",
		"HTTP/1.1\r\n\r\n",
		"HTTP/1.1 20x OK\r\n\r\n",
		"HTTP/1.1 42 Answer\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBad Header: x\r\n\r\n",
		"HTTP/1.1 200 OK\r\nNoColon\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n",
		"POST /upload HTTP/1.1\r\nContent-Length: 10485760\r\n\r\nxxxx",
		"GET / HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", 300) + "\r\n\r\n",
		"GET  / HTTP/1.1\r\n\r\n",
		"GET / \r\n\r\n",
		"GET  HTTP/1.1\r\n\r\n",
		"\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\nNEXT",
		"GARBAGE\r\n\r\n",
		" GET / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\nConnection: close, X-Hop\r\nX-Hop: 1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.0 200\r\n\r\n",
		"GET / HTTP/1.1\r\nX: a\nb\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Head
		n, err := h.ScanRequest(data)
		checkScan(t, data, &h, n, err)
		if err == nil {
			if missing := n + h.ContentLength - len(data); missing > 1<<16 {
				return // not worth materializing the declared body
			} else if missing > 0 {
				data = append(data[:len(data):len(data)], make([]byte, missing)...)
				h.ScanRequest(data) // the views follow the bytes
			}
			req, consumed, perr := ParseRequest(data)
			if perr != nil || consumed != n+max(h.ContentLength, 0) {
				t.Fatalf("ParseRequest disagrees with ScanRequest: consumed %d, err %v", consumed, perr)
			}
			var back Head
			if _, err := back.ScanRequest(req.Append(nil)); err != nil {
				t.Fatalf("Append → scan: %v", err)
			}
			sameHead(t, &h, &back)
		}

		n, err = h.ScanResponse(data)
		checkScan(t, data, &h, n, err)
		if err == nil && len(data)-n >= max(h.ContentLength, 0) {
			resp, _, perr := ParseResponse(data)
			if perr != nil {
				t.Fatalf("ParseResponse disagrees with ScanResponse: %v", perr)
			}
			if string(h.Reason) == "" {
				return // Append supplies a default reason
			}
			var back Head
			if _, err := back.ScanResponse(resp.Append(nil)); err != nil {
				t.Fatalf("Append → scan: %v", err)
			}
			if back.Status != h.Status || !bytes.Equal(back.Reason, h.Reason) {
				t.Fatalf("status line %d %q, want %d %q", back.Status, back.Reason, h.Status, h.Reason)
			}
			sameHead(t, &h, &back)
		}
	})
}

func checkScan(t *testing.T, data []byte, h *Head, n int, err error) {
	t.Helper()
	if err != nil {
		if n != 0 || (!errors.Is(err, ErrIncomplete) && !errors.Is(err, ErrMalformed)) {
			t.Fatalf("n=%d err=%v", n, err)
		}
		return
	}
	if n < 4 || n > len(data) || n > MaxHeaderBytes+4 || !bytes.HasSuffix(data[:n], crlfcrlf) {
		t.Fatalf("head length %d of %d", n, len(data))
	}
	views := [][]byte{h.Line, h.Method, h.Target, h.Reason, h.Proto}
	for _, f := range h.Fields {
		views = append(views, f.Name, f.Value)
	}
	for _, v := range views {
		if !inside(data[:n], v) {
			t.Fatalf("view %q lies outside the scanned head", v)
		}
	}
}

func sameHead(t *testing.T, a, b *Head) {
	t.Helper()
	if !bytes.Equal(a.Proto, b.Proto) || !bytes.Equal(a.Method, b.Method) || !bytes.Equal(a.Target, b.Target) ||
		len(a.Fields) != len(b.Fields) || a.ContentLength != b.ContentLength ||
		a.Chunked != b.Chunked || a.Close != b.Close || a.KeepAlive != b.KeepAlive {
		t.Fatalf("round trip changed the head:\n %+v\n %+v", a, b)
	}
	for i := range a.Fields {
		if !bytes.Equal(a.Fields[i].Name, b.Fields[i].Name) || !bytes.Equal(a.Fields[i].Value, b.Fields[i].Value) {
			t.Fatalf("field %d: %q: %q, want %q: %q", i, b.Fields[i].Name, b.Fields[i].Value, a.Fields[i].Name, a.Fields[i].Value)
		}
	}
}
