package workload

import (
	"math/rand"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
)

// SurgeSpec models the lag effect of Fig. 3: a large population of
// long-lived connections is established quietly, then — when some external
// condition fires (the paper's example: quantitative trading) — all of them
// burst requests at once. CPU imbalance inherited from uneven connection
// placement is amplified exactly at the burst.
type SurgeSpec struct {
	// Conns is the long-lived connection population.
	Conns int
	// Port is the tenant port.
	Port uint16
	// EstablishWindow is how long the population takes to build up.
	EstablishWindow time.Duration
	// QuietUntil is the virtual time at which the burst fires (absolute).
	QuietUntil time.Duration
	// BurstRequests is requests per connection in the burst.
	BurstRequests int
	// BurstWindow spreads each connection's burst start uniformly.
	BurstWindow time.Duration
	// BurstCostNS samples per-request CPU during the burst.
	BurstCostNS Dist
	// BurstInterReqNS samples intra-burst request spacing.
	BurstInterReqNS Dist
}

// DefaultSurge returns the Fig. 3 scenario sized for a 32-core LB.
func DefaultSurge(port uint16) SurgeSpec {
	return SurgeSpec{
		Conns:           20_000,
		Port:            port,
		EstablishWindow: 2 * time.Second,
		QuietUntil:      4 * time.Second,
		BurstRequests:   10,
		BurstWindow:     200 * time.Millisecond,
		BurstCostNS:     Exp{MeanVal: 120 * us},
		BurstInterReqNS: Exp{MeanVal: 2 * ms},
	}
}

// Surge drives a SurgeSpec against an LB.
type Surge struct {
	lb   *l7lb.LB
	spec SurgeSpec
	rng  *rand.Rand

	// Established counts successfully opened connections.
	Established int
	// RequestsSent counts burst requests delivered.
	RequestsSent uint64

	// conns holds checked refs: the population is retained across virtual
	// time, and a reset connection's pooled object may be recycled.
	conns []kernel.ConnRef
}

// NewSurge builds the surge driver.
func NewSurge(lb *l7lb.LB, spec SurgeSpec) *Surge {
	return &Surge{lb: lb, spec: spec, rng: lb.Eng.Rand()}
}

// Run schedules the establishment phase and the burst.
func (s *Surge) Run() {
	start := s.lb.Eng.Now()
	for i := 0; i < s.spec.Conns; i++ {
		i := i
		at := start + int64(float64(s.spec.EstablishWindow)*float64(i)/float64(s.spec.Conns))
		s.lb.Eng.At(at, func() {
			tuple := kernel.FourTuple{
				SrcIP:   s.rng.Uint32(),
				SrcPort: uint16(1024 + i%60000),
				DstIP:   0x0a00_0001,
				DstPort: s.spec.Port,
			}
			if conn, ok := s.lb.NS.DeliverSYN(tuple, nil); ok {
				s.Established++
				s.conns = append(s.conns, conn.Ref())
			}
		})
	}
	s.lb.Eng.At(start+int64(s.spec.QuietUntil), func() { s.burst() })
}

func (s *Surge) burst() {
	for _, ref := range s.conns {
		ref := ref
		offset := int64(s.rng.Float64() * float64(s.spec.BurstWindow))
		s.lb.Eng.After(time.Duration(offset), func() {
			s.sendBurstReq(ref, s.spec.BurstRequests)
		})
	}
}

func (s *Surge) sendBurstReq(ref kernel.ConnRef, remaining int) {
	conn := ref.Get()
	if remaining == 0 || conn == nil || conn.Sock().Closed() {
		return
	}
	s.RequestsSent++
	s.lb.Deliver(conn, l7lb.Work{
		ArrivalNS: s.lb.Eng.Now(),
		Cost:      time.Duration(s.spec.BurstCostNS.Sample(s.rng)),
		Close:     remaining == 1,
		Tenant:    s.spec.Port,
	})
	gap := time.Duration(s.spec.BurstInterReqNS.Sample(s.rng))
	s.lb.Eng.After(gap, func() { s.sendBurstReq(ref, remaining-1) })
}
