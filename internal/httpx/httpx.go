// Package httpx is a small HTTP/1.1 codec built for the L7 LB data path. Its
// one parser is the head scanner (Head.ScanRequest / Head.ScanResponse): it
// reads a message head where it lies and leaves views into the caller's
// buffer, so a proxy inspects what it routes on and copies nothing it does
// not (§2.1; Libra's point in PAPERS.md). ParseRequest and ParseResponse are
// the copying convenience wrappers over that scanner for callers that want
// an owned message; Chunked tracks where a chunked body ends as its bytes
// stream past. Serialization is zero-dependency appends onto a caller slice.
package httpx

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
)

// Parse errors.
var (
	// ErrIncomplete reports that more bytes are needed to finish parsing.
	ErrIncomplete = errors.New("httpx: need more data")
	// ErrMalformed reports an unrecoverable syntax error.
	ErrMalformed = errors.New("httpx: malformed message")
)

// MaxHeaderBytes bounds the header section (DoS guard).
const MaxHeaderBytes = 64 << 10

// Header is one name/value pair. Order is preserved.
type Header struct {
	Name  string
	Value string
}

// Request is a parsed HTTP/1.1 request.
type Request struct {
	Method  string
	Target  string
	Proto   string
	Headers []Header
	Body    []byte
}

// Response is a parsed or constructed HTTP/1.1 response.
type Response struct {
	Status  int
	Reason  string
	Proto   string
	Headers []Header
	Body    []byte
}

// Get returns the first header with the given name, case-insensitively.
func (r *Request) Get(name string) (string, bool) { return getHeader(r.Headers, name) }

// Get returns the first header with the given name, case-insensitively.
func (r *Response) Get(name string) (string, bool) { return getHeader(r.Headers, name) }

func getHeader(hs []Header, name string) (string, bool) {
	for _, h := range hs {
		if strings.EqualFold(h.Name, name) {
			return h.Value, true
		}
	}
	return "", false
}

// Host returns the Host header ("" if absent).
func (r *Request) Host() string {
	v, _ := r.Get("Host")
	return v
}

// Path returns the request target up to any query string.
func (r *Request) Path() string {
	if i := strings.IndexByte(r.Target, '?'); i >= 0 {
		return r.Target[:i]
	}
	return r.Target
}

// WantsKeepAlive reports whether the connection should persist after this
// request (HTTP/1.1 defaults to keep-alive).
func (r *Request) WantsKeepAlive() bool {
	v, ok := r.Get("Connection")
	if !ok {
		return r.Proto != "HTTP/1.0"
	}
	return !strings.EqualFold(v, "close")
}

// Field is one header line as views into the scanned buffer.
type Field struct {
	Name, Value []byte
}

// Head is a message head scanned in place. Every []byte in it is a view into
// the buffer handed to ScanRequest or ScanResponse and dies with that
// buffer's contents. A Head is meant to be reused: a scan resets it and
// keeps the Fields backing array, so a steady connection scans without
// allocating.
type Head struct {
	Line   []byte // the start line as received, without its CRLF
	Method []byte // request line
	Target []byte
	Status int // status line
	Reason []byte
	Proto  []byte
	Fields []Field

	// Framing and persistence, noted as the fields go by.
	ContentLength int  // -1 when absent
	Chunked       bool // the final Transfer-Encoding is chunked
	HasTE         bool // a Transfer-Encoding field is present
	Close         bool // Connection: close
	KeepAlive     bool // Connection: keep-alive
	nominated     bool // Connection names some other field as hop-by-hop
}

var (
	crlf     = []byte("\r\n")
	crlfcrlf = []byte("\r\n\r\n")
	httpSl   = []byte("HTTP/")
)

// ScanRequest scans one request head from the front of data and returns its
// length, terminating blank line included. ErrIncomplete means data holds
// only a prefix of a head.
func (h *Head) ScanRequest(data []byte) (int, error) {
	rest, n, err := h.scanStart(data)
	if err != nil {
		return 0, err
	}
	line := h.Line
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 <= 0 {
		return 0, ErrMalformed
	}
	sp2 := bytes.IndexByte(line[sp1+1:], ' ')
	if sp2 <= 0 {
		return 0, ErrMalformed
	}
	sp2 += sp1 + 1
	h.Method, h.Target, h.Proto = line[:sp1], line[sp1+1:sp2], line[sp2+1:]
	if !bytes.HasPrefix(h.Proto, httpSl) {
		return 0, ErrMalformed
	}
	return h.scanFields(rest, n)
}

// ScanResponse scans one response head from the front of data, like
// ScanRequest.
func (h *Head) ScanResponse(data []byte) (int, error) {
	rest, n, err := h.scanStart(data)
	if err != nil {
		return 0, err
	}
	line := h.Line
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 < 0 {
		return 0, ErrMalformed
	}
	h.Proto = line[:sp1]
	code := line[sp1+1:]
	if sp2 := bytes.IndexByte(code, ' '); sp2 >= 0 {
		code, h.Reason = code[:sp2], code[sp2+1:]
	}
	status, ok := atoi(code)
	if !ok || status < 100 || status > 999 || !bytes.HasPrefix(h.Proto, httpSl) {
		return 0, ErrMalformed
	}
	h.Status = status
	return h.scanFields(rest, n)
}

// scanStart resets h, finds the end of the head and splits off the start
// line; rest is the field section.
func (h *Head) scanStart(data []byte) (rest []byte, n int, err error) {
	*h = Head{Fields: h.Fields[:0], ContentLength: -1}
	end := bytes.Index(data, crlfcrlf)
	if end > MaxHeaderBytes || (end < 0 && len(data) > MaxHeaderBytes) {
		return nil, 0, ErrMalformed
	}
	if end < 0 {
		return nil, 0, ErrIncomplete
	}
	var ok bool
	if h.Line, rest, ok = cutLine(data[:end]); !ok {
		return nil, 0, ErrMalformed
	}
	return rest, end + len(crlfcrlf), nil
}

// cutLine splits b at its first CRLF. A CR or LF on its own is refused: a
// peer that treats one as a line end would see different fields than we do.
func cutLine(b []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '\n')
	switch {
	case i < 0:
		line, rest = b, b[len(b):]
	case i == 0 || b[i-1] != '\r':
		return nil, nil, false
	default:
		line, rest = b[:i-1], b[i+1:]
	}
	return line, rest, bytes.IndexByte(line, '\r') < 0
}

// scanFields scans the field section of a head of n bytes and returns n.
func (h *Head) scanFields(rest []byte, n int) (int, error) {
	for len(rest) > 0 {
		var line []byte
		var ok bool
		if line, rest, ok = cutLine(rest); !ok {
			return 0, ErrMalformed
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || bytes.IndexByte(line[:colon], ' ') >= 0 || bytes.IndexByte(line[:colon], '\t') >= 0 {
			return 0, ErrMalformed
		}
		f := Field{Name: line[:colon], Value: trimOWS(line[colon+1:])}
		h.Fields = append(h.Fields, f)
		if !h.note(f) {
			return 0, ErrMalformed
		}
	}
	return n, nil
}

// note records what a field says about framing and persistence; false means
// the field makes the message malformed.
func (h *Head) note(f Field) bool {
	switch {
	case equalFold(f.Name, "content-length"):
		n, ok := atoi(f.Value)
		if !ok || (h.ContentLength >= 0 && h.ContentLength != n) {
			return false // not a length, or two lengths that disagree
		}
		h.ContentLength = n
	case equalFold(f.Name, "transfer-encoding"):
		h.HasTE = true
		last := f.Value[bytes.LastIndexByte(f.Value, ',')+1:]
		h.Chunked = equalFold(trimOWS(last), "chunked")
	case equalFold(f.Name, "connection"):
		for tok, v := nextToken(f.Value); tok != nil; tok, v = nextToken(v) {
			switch {
			case equalFold(tok, "close"):
				h.Close = true
			case equalFold(tok, "keep-alive"):
				h.KeepAlive = true
			case len(tok) > 0:
				h.nominated = true
			}
		}
	}
	return true
}

// Persistent reports whether the sender of this head wants the connection
// kept open after the message: the HTTP/1.1 default unless it said close,
// and for HTTP/1.0 only when it said keep-alive.
func (h *Head) Persistent() bool {
	if h.Close {
		return false
	}
	return h.KeepAlive || !bytes.Equal(h.Proto, []byte("HTTP/1.0"))
}

// hopByHop are the fields RFC 9110 §7.6.1 has an intermediary consume
// instead of forward, besides whatever Connection nominates.
var hopByHop = [...]string{"connection", "keep-alive", "proxy-connection", "te", "transfer-encoding", "upgrade"}

func (h *Head) isHopByHop(name []byte) bool {
	for _, hop := range hopByHop {
		if equalFold(name, hop) {
			return true
		}
	}
	if !h.nominated {
		return false
	}
	for _, f := range h.Fields {
		if !equalFold(f.Name, "connection") {
			continue
		}
		for tok, v := nextToken(f.Value); tok != nil; tok, v = nextToken(v) {
			if bytes.EqualFold(tok, name) {
				return true
			}
		}
	}
	return false
}

// AppendEndToEnd appends every field an intermediary forwards, one
// "Name: value\r\n" line each: the hop-by-hop fields are dropped, and so is
// Content-Length beside a Transfer-Encoding, which overrides it.
func (h *Head) AppendEndToEnd(dst []byte) []byte {
	for _, f := range h.Fields {
		if h.isHopByHop(f.Name) || (h.HasTE && equalFold(f.Name, "content-length")) {
			continue
		}
		dst = append(dst, f.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, f.Value...)
		dst = append(dst, crlf...)
	}
	return dst
}

// Framing says how a message body is delimited.
type Framing uint8

const (
	FrameNone    Framing = iota // no body
	FrameLength                 // ContentLength bytes
	FrameChunked                // chunked transfer coding
	FrameClose                  // everything until the sender closes
)

// ReplyFraming returns how the body after this response head is delimited
// (RFC 9112 §6.3); toHead says the request was a HEAD.
func (h *Head) ReplyFraming(toHead bool) Framing {
	switch {
	case toHead || h.Status/100 == 1 || h.Status == 204 || h.Status == 304:
		return FrameNone
	case h.Chunked:
		return FrameChunked
	case h.HasTE:
		return FrameClose
	case h.ContentLength > 0:
		return FrameLength
	case h.ContentLength == 0:
		return FrameNone
	}
	return FrameClose
}

// Chunked follows a chunked body (RFC 9112 §7.1) through the byte stream
// without decoding it, so a relay knows where the message ends. The zero
// value is ready at the first chunk-size line.
type Chunked struct {
	state  uint8
	remain int // data bytes left in the current chunk
	digits int
}

const (
	chSize    = iota // in the hex chunk size
	chExt            // after the size, up to the line's LF
	chData           // inside chunk data
	chDataCR         // at the CR that ends chunk data
	chDataLF         // at its LF
	chTrailer        // at the start of a trailer line (or the final CRLF)
	chLine           // inside a trailer line, up to its LF
	chEndLF          // at the LF of the final CRLF
	chDone
)

// Feed consumes the bytes of p that belong to the body and returns how many
// that was; done reports that the body, trailer section included, is
// complete, after which Feed consumes nothing.
func (c *Chunked) Feed(p []byte) (n int, done bool, err error) {
	for n < len(p) && c.state != chDone {
		b := p[n]
		switch c.state {
		case chSize:
			if d, ok := hexVal(b); ok {
				if c.remain > math.MaxInt>>4 {
					return n, false, ErrMalformed
				}
				c.remain, c.digits = c.remain<<4|d, c.digits+1
				break
			}
			if c.digits == 0 {
				return n, false, ErrMalformed
			}
			c.state = chExt
			continue // b is the first byte after the size
		case chExt:
			if b == '\n' {
				c.digits = 0
				if c.state = chData; c.remain == 0 {
					c.state = chTrailer
				}
			}
		case chData:
			k := min(c.remain, len(p)-n)
			c.remain -= k
			n += k
			if c.remain == 0 {
				c.state = chDataCR
			}
			continue
		case chDataCR:
			if b != '\r' {
				return n, false, ErrMalformed
			}
			c.state = chDataLF
		case chDataLF:
			if b != '\n' {
				return n, false, ErrMalformed
			}
			c.state = chSize
		case chTrailer:
			if c.state = chLine; b == '\r' {
				c.state = chEndLF
			}
		case chLine:
			if b == '\n' {
				c.state = chTrailer
			}
		case chEndLF:
			if b != '\n' {
				return n, false, ErrMalformed
			}
			c.state = chDone
		}
		n++
	}
	return n, c.state == chDone, nil
}

func hexVal(b byte) (int, bool) {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0'), true
	case b|0x20 >= 'a' && b|0x20 <= 'f':
		return int(b|0x20-'a') + 10, true
	}
	return 0, false
}

// atoi reads a non-negative decimal that fits an int: digits only.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return int(n), n <= math.MaxInt
}

// trimOWS strips the optional whitespace RFC 9110 allows around field values
// and list elements: spaces and tabs only.
func trimOWS(b []byte) []byte { return bytes.Trim(b, " \t") }

// equalFold reports whether b equals lower, an all-lower-case ASCII string,
// ignoring ASCII case.
func equalFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 'A' && c <= 'Z' {
			c |= 0x20
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// nextToken cuts the first element off a comma-separated list; tok is nil
// once the list is used up.
func nextToken(list []byte) (tok, rest []byte) {
	if len(list) == 0 {
		return nil, nil
	}
	if i := bytes.IndexByte(list, ','); i >= 0 {
		return trimOWS(list[:i]), list[i+1:]
	}
	return trimOWS(list), nil
}

// owned copies the scanned head once and returns a function turning any view
// into data[:n] into a string backed by that one copy.
func owned(data []byte, n int) func(view []byte) string {
	s := string(data[:n])
	return func(view []byte) string {
		if len(view) == 0 {
			return ""
		}
		// A view is a subslice of data, so the capacities differ by its offset.
		off := cap(data) - cap(view)
		return s[off : off+len(view)]
	}
}

func (h *Head) headers(str func([]byte) string) []Header {
	if len(h.Fields) == 0 {
		return nil
	}
	hs := make([]Header, len(h.Fields))
	for i, f := range h.Fields {
		hs[i] = Header{Name: str(f.Name), Value: str(f.Value)}
	}
	return hs
}

// body returns a copy of the Content-Length body that follows a head of n
// bytes, and the length of head plus body.
func (h *Head) body(data []byte, n int) (body []byte, consumed int, err error) {
	cl := max(h.ContentLength, 0)
	if len(data)-n < cl {
		return nil, 0, ErrIncomplete
	}
	if cl > 0 {
		body = append([]byte(nil), data[n:n+cl]...)
	}
	return body, n + cl, nil
}

// ParseRequest parses one complete request from the front of data, returning
// an owned copy and the number of bytes consumed. It returns ErrIncomplete
// when data holds only a prefix. The body is Content-Length bytes, none when
// the field is absent.
func ParseRequest(data []byte) (*Request, int, error) {
	var h Head
	n, err := h.ScanRequest(data)
	if err != nil {
		return nil, 0, err
	}
	body, consumed, err := h.body(data, n)
	if err != nil {
		return nil, 0, err
	}
	str := owned(data, n)
	return &Request{Method: str(h.Method), Target: str(h.Target), Proto: str(h.Proto),
		Headers: h.headers(str), Body: body}, consumed, nil
}

// ParseResponse parses one complete response from the front of data, like
// ParseRequest.
func ParseResponse(data []byte) (*Response, int, error) {
	var h Head
	n, err := h.ScanResponse(data)
	if err != nil {
		return nil, 0, err
	}
	body, consumed, err := h.body(data, n)
	if err != nil {
		return nil, 0, err
	}
	str := owned(data, n)
	return &Response{Status: h.Status, Reason: str(h.Reason), Proto: str(h.Proto),
		Headers: h.headers(str), Body: body}, consumed, nil
}

// Append serializes the request onto dst and returns the extended slice. A
// Content-Length header is added if a body is present and none was set.
func (r *Request) Append(dst []byte) []byte {
	dst = append(dst, r.Method...)
	dst = append(dst, ' ')
	dst = append(dst, r.Target...)
	dst = append(dst, ' ')
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	dst = append(dst, proto...)
	dst = append(dst, "\r\n"...)
	dst = appendHeaders(dst, r.Headers, len(r.Body))
	return append(dst, r.Body...)
}

// Append serializes the response onto dst and returns the extended slice.
func (r *Response) Append(dst []byte) []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	reason := r.Reason
	if reason == "" {
		reason = defaultReason(r.Status)
	}
	dst = append(dst, proto...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = append(dst, ' ')
	dst = append(dst, reason...)
	dst = append(dst, "\r\n"...)
	dst = appendHeaders(dst, r.Headers, len(r.Body))
	return append(dst, r.Body...)
}

func appendHeaders(dst []byte, hs []Header, bodyLen int) []byte {
	haveCL := false
	for _, h := range hs {
		if strings.EqualFold(h.Name, "Content-Length") {
			haveCL = true
		}
		dst = append(dst, h.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, h.Value...)
		dst = append(dst, "\r\n"...)
	}
	if bodyLen > 0 && !haveCL {
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(bodyLen), 10)
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "\r\n"...)
}

func defaultReason(status int) string {
	switch status {
	case 200:
		return "OK"
	case 204:
		return "No Content"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 413:
		return "Content Too Large"
	case 499:
		return "Client Closed Request"
	case 501:
		return "Not Implemented"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}
