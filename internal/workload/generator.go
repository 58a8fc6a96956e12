package workload

import (
	"math/rand"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/sim"
)

// Generator replays a Spec against one LB in open loop: Poisson connection
// arrivals, scheduled request trains per connection, FIN after the last
// request. Open loop is what traffic replay at a fixed rate means (§6.2
// "replayed traffic at 2 to 3 times the original rate"): an overloaded LB
// keeps receiving traffic and its queues grow, exactly as in production.
type Generator struct {
	lb   *l7lb.LB
	spec Spec
	rng  *rand.Rand

	srcSeq uint32

	// ConnsAttempted counts SYNs sent.
	ConnsAttempted uint64
	// ConnsRejected counts SYNs refused (queue overflow).
	ConnsRejected uint64
	// RequestsSent counts requests delivered (probes excluded).
	RequestsSent uint64
	// LiveConns tracks currently open generated connections.
	LiveConns int

	// Pools of the arrival-chain and request-train state objects. Each is a
	// sim.Handler that schedules itself, so the open-loop steady state — one
	// timer per arrival, one per request — schedules no closures: allocation
	// is bounded by peak concurrency, not event count.
	chains sim.Slab[connChain]
	trains sim.Slab[reqTrain]
}

// connChain is one Run/RunWindow arrival chain: exactly one timer is
// outstanding per chain, so the object is recycled when the chain passes its
// window end.
type connChain struct {
	g    *Generator
	next int64
	end  int64
}

// reqTrain is one connection's request train: exactly one timer outstanding
// per live train, recycled when the train finishes or its connection dies.
type reqTrain struct {
	g     *Generator
	ref   kernel.ConnRef
	port  uint16
	total int
	idx   int
}

// NewGenerator builds a generator for the spec. The generator derives its
// randomness from the LB's engine RNG, so a run is fully determined by the
// engine seed.
func NewGenerator(lb *l7lb.LB, spec Spec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Generator{lb: lb, spec: spec, rng: lb.Eng.Rand()}, nil
}

// Run schedules connection arrivals over the window [now, now+d). Request
// trains may extend past the window; run the engine as long as you want to
// observe them.
func (g *Generator) Run(d time.Duration) {
	g.scheduleNextConn(g.lb.Eng.Now(), g.lb.Eng.Now()+int64(d))
}

// RunWindow schedules arrivals over the absolute virtual window
// [start, end), for phased traffic (diurnal slices, staged surges). start
// must not be in the engine's past.
func (g *Generator) RunWindow(start, end time.Duration) {
	g.scheduleNextConn(int64(start), int64(end))
}

func (g *Generator) scheduleNextConn(prev, end int64) {
	ch := g.chains.Get()
	ch.g, ch.end = g, end
	ch.advance(prev)
}

// advance draws the next Poisson gap and schedules the chain's single timer,
// retiring the chain once it crosses the window end.
func (ch *connChain) advance(prev int64) {
	g := ch.g
	gap := int64(g.rng.ExpFloat64() * float64(time.Second) / g.spec.ConnRate)
	next := prev + gap
	if next >= ch.end {
		ch.end = 0
		g.chains.Put(ch)
		return
	}
	ch.next = next
	g.lb.Eng.Schedule(next, ch)
}

// Fire opens the chain's connection and schedules the next arrival.
func (ch *connChain) Fire() {
	ch.g.openConn()
	ch.advance(ch.next)
}

func (g *Generator) pickPort() uint16 {
	if g.spec.PortWeights != nil {
		return g.spec.Ports[PickWeighted(g.rng, g.spec.PortWeights)]
	}
	return g.spec.Ports[g.rng.Intn(len(g.spec.Ports))]
}

func (g *Generator) openConn() {
	g.srcSeq++
	port := g.pickPort()
	tuple := kernel.FourTuple{
		SrcIP:   g.rng.Uint32(),
		SrcPort: uint16(1024 + g.srcSeq%60000),
		DstIP:   0x0a00_0001,
		DstPort: port,
	}
	g.ConnsAttempted++
	conn, ok := g.lb.NS.DeliverSYN(tuple, nil)
	if !ok {
		g.ConnsRejected++
		return
	}
	g.LiveConns++

	reqs := int(g.spec.ReqPerConn.Sample(g.rng))
	if reqs < 1 {
		reqs = 1
	}
	delay := int64(g.spec.FirstReqDelayNS.Sample(g.rng))

	t := g.trains.Get()
	// The train holds a checked ref, not a bare *Conn: the connection may be
	// reset — and its pooled object recycled into a different connection —
	// before the timer fires.
	t.g, t.ref, t.port, t.total, t.idx = g, conn.Ref(), port, reqs, 1
	t.schedule(g.lb.Eng.Now() + delay)
}

func (t *reqTrain) schedule(at int64) {
	if now := t.g.lb.Eng.Now(); at < now {
		at = now
	}
	t.g.lb.Eng.Schedule(at, t)
}

// retire recycles a finished train (last request sent, or connection dead).
func (t *reqTrain) retire() {
	g := t.g
	g.LiveConns--
	t.ref = kernel.ConnRef{}
	g.trains.Put(t)
}

// LiveTrains returns how many request trains are out: one per live generated
// connection (LiveConns), each with its one timer pending, unless the pool
// leaks.
func (g *Generator) LiveTrains() int { return g.trains.Live() }

// Fire sends the train's next request and schedules the one after it.
func (t *reqTrain) Fire() {
	g := t.g
	conn := t.ref.Get()
	if conn == nil || conn.Sock().Closed() {
		t.retire()
		return
	}
	last := t.idx == t.total
	g.RequestsSent++
	work := l7lb.Work{
		ArrivalNS: g.lb.Eng.Now(),
		Cost:      time.Duration(g.spec.CostNS.Sample(g.rng)),
		Close:     last,
		Tenant:    t.port,
	}
	// Bytes on the wire are not simulated, but the two size draws keep their
	// place in the engine's random stream: every gap, cost and arrival after
	// them depends on it.
	g.spec.SizeBytes.Skip(g.rng)
	g.spec.RespBytes.Skip(g.rng)
	g.lb.Deliver(conn, work)
	if last {
		t.retire()
		return
	}
	gap := int64(g.spec.InterReqNS.Sample(g.rng))
	t.idx++
	t.schedule(g.lb.Eng.Now() + gap)
}
