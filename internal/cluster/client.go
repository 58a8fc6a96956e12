package cluster

import (
	"math/rand"
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/packet"
)

// Client emulates Internet clients in front of the gateway: it builds real
// VXLAN-encapsulated TCP frames and feeds them through Ingress on the
// virtual clock. One Client drives one tenant.
type Client struct {
	c      *Cluster
	tenant Tenant
	rng    *rand.Rand

	gatewayIP uint32
	l4IP      uint32

	// Errors counts Ingress rejections.
	Errors uint64

	nextSrc uint32

	// frames recycles the wire buffers: a frame is consumed synchronously by
	// Ingress (nothing downstream retains it), so one Get/Put bracket per
	// push keeps the client's steady state allocation-free.
	frames *packet.FramePool
	// payload is the request-body scratch, zeroed before each use so frame
	// bytes (and checksums) match the old freshly-allocated payloads.
	payload []byte
}

// NewClient creates a client fleet for the tenant with the given VNI.
func (c *Cluster) NewClient(vni uint32) *Client {
	return &Client{
		c:         c,
		tenant:    c.Tenants[vni],
		rng:       c.Eng.Rand(),
		gatewayIP: 0x0b00_0001,
		l4IP:      0x0b00_0002,
		frames:    packet.NewFramePool(0, 1),
	}
}

func (cl *Client) push(srcIP uint32, srcPort uint16, flags uint8, payload []byte) {
	frame := packet.AppendEncapTCPFrame(cl.frames.Get(),
		cl.gatewayIP, cl.l4IP, cl.tenant.VNI,
		srcIP, 0x0a00_0001, packet.TCP{
			SrcPort: srcPort,
			DstPort: cl.tenant.PublicPort,
			Flags:   flags,
			Window:  65535,
		}, payload)
	if err := cl.c.Ingress(frame); err != nil {
		cl.Errors++
	}
	cl.frames.Put(frame)
}

// reqPayload returns an n-byte zeroed request body from the client's scratch
// (n ≥ 1), with the close marker set when closeAfter. Valid until the next
// call; push consumes it synchronously.
func (cl *Client) reqPayload(n int, closeAfter bool) []byte {
	n = max(1, n)
	if cap(cl.payload) < n {
		cl.payload = make([]byte, n)
	}
	p := cl.payload[:n]
	clear(p)
	if closeAfter {
		p[n-1] = closeMarker
	}
	return p
}

// OpenAndRequest schedules, at absolute virtual time at: a SYN, then after
// delay one PSH request of reqBytes payload (its last byte flags close when
// closeAfter). It sends no FIN: with closeAfter false the flow stays open
// until a FIN or RST frame for it reaches Ingress.
func (cl *Client) OpenAndRequest(at, delay time.Duration, reqBytes int, closeAfter bool) {
	cl.nextSrc++
	srcIP := 0xc0a8_0000 + cl.nextSrc
	srcPort := uint16(1024 + cl.nextSrc%60000)
	cl.c.Eng.At(int64(at), func() {
		cl.push(srcIP, srcPort, packet.FlagSYN, nil)
		cl.c.Eng.After(delay, func() {
			cl.push(srcIP, srcPort, packet.FlagPSH|packet.FlagACK, cl.reqPayload(reqBytes, closeAfter))
		})
	})
}

// DefaultWorkFactory derives a simple cost model from payload size: base
// parse cost plus a per-byte component — enough to exercise the pipeline
// end to end.
func DefaultWorkFactory(base time.Duration, perByte time.Duration) WorkFactory {
	return func(t Tenant, payload []byte, arrivalNS int64, last bool) l7lb.Work {
		return l7lb.Work{
			ArrivalNS: arrivalNS,
			Cost:      base + time.Duration(len(payload))*perByte,
			Close:     last,
			Tenant:    t.L7Port,
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
