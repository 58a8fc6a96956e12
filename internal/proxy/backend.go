package proxy

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/telemetry"
)

// Backend health-state codes, exported in backend_state trace spans and the
// admin API. Circuit transitions use 100+CircuitState so the two state
// machines share one span kind without colliding.
const (
	stateUnhealthy int64 = 0
	stateHealthy   int64 = 1
	stateCircuit   int64 = 100
)

// Backend is one upstream server's runtime state.
type Backend struct {
	idx    int
	addr   string
	weight int

	// The backend's slots of the proxy.backend.* rows are where these four
	// facts live (as worker.handled is its slot of requests_served): the
	// health verdict (1 = healthy), the in-flight proxied request count (the
	// least-conn metric), proxied requests completed, upstream failures.
	healthy  *telemetry.Gauge
	active   *telemetry.Gauge
	requests *telemetry.Counter
	errors   *telemetry.Counter
	// dials counts upstream connections opened to the backend: its slot of
	// proxy.backend.dials. A request on a pooled connection opens none.
	dials *telemetry.Counter

	// idle is the backend's one list of upstream connections waiting for a
	// request, shared by every worker. gen moves whenever the backend's
	// connections stop being trusted (the prober marks it down, its breaker
	// opens, the proxy shuts down): a connection stamped with an older one
	// is closed, never used again.
	idle chan upstream
	gen  atomic.Uint64

	// Active-probe streaks (health checker goroutine only).
	probeOKs   int
	probeFails int

	lastProbeNS   atomic.Int64 // wall time of the last active probe (0 = never)
	lastProbeOK   atomic.Bool
	lastChangeNS  atomic.Int64 // wall time of the last health transition
	circuit       *Circuit     // nil when circuit breaking is disabled
	smoothCurrent int          // smooth-weighted-RR state (pool.mu)
}

// idleMax bounds each backend's idle list, sized like bufPool's free list:
// what an idle backend retains stays bounded whatever traffic did, and beyond
// 32 requests in flight to one backend at once the extra connections are
// closed, not kept, when done.
const idleMax = 32

// upstream is one connection to a backend, stamped with the backend's
// generation when it was opened; fd is its socket, for idleOpen.
type upstream struct {
	nc  net.Conn
	fd  int
	gen uint64
}

// take returns an idle connection to b when a current one is waiting that the
// backend has neither closed nor written on (idleOpen, peeking into scratch);
// any other met on the way is closed. Otherwise it returns false and the
// stamp a new dial must carry.
func (b *Backend) take(scratch []byte) (upstream, bool) {
	for {
		select {
		case u := <-b.idle:
			if u.gen == b.gen.Load() && idleOpen(u.fd, scratch) {
				return u, true
			}
			u.nc.Close()
		default:
			return upstream{gen: b.gen.Load()}, false
		}
	}
}

// release ends u's exchange: kept, it waits on b's idle list for the next
// request; otherwise, or when it is stale or the list is full, it is closed.
func (b *Backend) release(u upstream, keep bool) {
	if keep && u.gen == b.gen.Load() {
		_ = u.nc.SetDeadline(time.Time{})
		select {
		case b.idle <- u:
			if u.gen != b.gen.Load() {
				// A flush ran between the check and the push and found the
				// list empty: drain it again, so u is not kept.
				b.drain()
			}
			return
		default:
		}
	}
	u.nc.Close()
}

// flush retires every connection to b: the generation moves, so one out on
// a request is closed when it comes back, and the idle ones are closed now.
func (b *Backend) flush() {
	b.gen.Add(1)
	b.drain()
}

// drain closes every connection on b's idle list.
func (b *Backend) drain() {
	for {
		select {
		case u := <-b.idle:
			u.nc.Close()
		default:
			return
		}
	}
}

// Healthy reports the prober's out-of-band verdict. What proxied requests
// say about the backend is the circuit breaker's to judge.
func (b *Backend) Healthy() bool { return b.healthy.Load() != 0 }

// available reports whether the pool may pick this backend at all: healthy
// and not rejected by an open circuit. Half-open admission is checked at
// pick time (it consumes a trial slot).
func (b *Backend) available() bool {
	if !b.Healthy() {
		return false
	}
	if b.circuit != nil && b.circuit.State() == CircuitOpen {
		return false
	}
	return true
}

// Pool is the shared backend pool: selection policy plus health/circuit
// bookkeeping. Workers call Pick/Observe concurrently.
type Pool struct {
	backends []*Backend
	policy   string
	now      func() int64

	// mu guards the weighted policy's smooth-RR state.
	mu sync.Mutex
	rr atomic.Uint32

	// tel is where the pool counts and traces: the per-backend rows are handed
	// to the backends slot by slot, transitions go on its trace handle.
	tel *Instruments
}

// newPool builds the pool from validated config; its backends and breakers
// count on tel's rows and trace their transitions as backend_state instants.
func newPool(cfg Config, now func() int64, tel *Instruments) *Pool {
	p := &Pool{policy: cfg.Policy, now: now, tel: tel}
	for i, bc := range cfg.Backends {
		w := bc.Weight
		if w < 1 {
			w = 1
		}
		b := &Backend{
			idx: i, addr: bc.Address, weight: w,
			healthy:  tel.BackendHealthy.At(i),
			active:   tel.BackendActive.At(i),
			requests: tel.BackendRequests.At(i),
			errors:   tel.BackendErrors.At(i),
			dials:    tel.BackendDials.At(i),
			idle:     make(chan upstream, idleMax),
		}
		// Backends start healthy: the first probe round or an opened circuit
		// takes them out, so a cold start never black-holes traffic.
		b.healthy.Set(stateHealthy)
		if cfg.CircuitBreaker.Enabled {
			b.circuit = NewCircuit(cfg.CircuitBreaker, now)
			b.circuit.rows = [...]*telemetry.Counter{
				CircuitClosed: tel.CircuitCloses, CircuitOpen: tel.CircuitOpens, CircuitHalfOpen: tel.CircuitHalfOpens,
			}
			b.circuit.onTransition = func(to CircuitState) {
				if to == CircuitOpen {
					b.flush()
				}
				tel.ptr.BackendState(i, now(), stateCircuit+int64(to))
			}
		}
		p.backends = append(p.backends, b)
	}
	return p
}

// AvailableCount returns how many backends are currently pickable.
func (p *Pool) AvailableCount() int {
	n := 0
	for _, b := range p.backends {
		if b.available() {
			n++
		}
	}
	return n
}

// Pick selects a backend under the configured policy, skipping members whose
// index bit is set in tried (the retry path's exclusion mask) and members
// that are unhealthy or circuit-rejected. A half-open circuit admits the
// pick as a trial request. The epoch names the breaker state the pick was
// admitted in; hand it back to Observe. Returns nil when nothing is
// available.
func (p *Pool) Pick(tried uint64) (*Backend, uint64) {
	switch p.policy {
	case PolicyLeastConn:
		return p.pickLeastConn(tried)
	case PolicyWeighted:
		return p.pickWeighted(tried)
	default:
		return p.pickRoundRobin(tried)
	}
}

// admit finalizes a candidate: the circuit must allow the request — open
// circuits reject (counted), half-open circuits must grant a trial slot.
func (p *Pool) admit(b *Backend) (uint64, bool) {
	if b.circuit == nil {
		return 0, true
	}
	epoch, ok := b.circuit.Allow()
	if !ok {
		p.tel.CircuitRejections.Inc()
	}
	return epoch, ok
}

// eligible is the pre-admission filter shared by the pick paths: not yet
// tried this request, and healthy. Circuit state is judged by admit so
// rejections are counted and half-open trials consume a slot.
func (b *Backend) eligible(tried uint64) bool {
	return tried&(1<<uint(b.idx)) == 0 && b.Healthy()
}

func (p *Pool) pickRoundRobin(tried uint64) (*Backend, uint64) {
	n := len(p.backends)
	start := int(p.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		b := p.backends[(start+i)%n]
		if !b.eligible(tried) {
			continue
		}
		if epoch, ok := p.admit(b); ok {
			return b, epoch
		}
	}
	return nil, 0
}

// pickWeighted runs smooth weighted round-robin (the nginx algorithm): each
// eligible backend gains its weight, the leader is picked and pays the total
// back, interleaving picks proportionally to weight without bursts.
func (p *Pool) pickWeighted(tried uint64) (*Backend, uint64) {
	p.mu.Lock()
	var (
		best  *Backend
		total int
	)
	for _, b := range p.backends {
		if !b.eligible(tried) {
			continue
		}
		b.smoothCurrent += b.weight
		total += b.weight
		if best == nil || b.smoothCurrent > best.smoothCurrent {
			best = b
		}
	}
	if best != nil {
		best.smoothCurrent -= total
	}
	p.mu.Unlock()
	if best == nil {
		return nil, 0
	}
	if epoch, ok := p.admit(best); ok {
		return best, epoch
	}
	// The leader's circuit declined (open, or half-open with no free trial
	// slot): fall back to any other admissible backend this round.
	return p.pickRoundRobin(tried | 1<<uint(best.idx))
}

// pickLeastConn picks the backend with the fewest in-flight requests per
// unit weight (ties broken by index for determinism).
func (p *Pool) pickLeastConn(tried uint64) (*Backend, uint64) {
	var (
		best      *Backend
		bestScore float64
	)
	for _, b := range p.backends {
		if !b.eligible(tried) {
			continue
		}
		score := float64(b.active.Load()) / float64(b.weight)
		if best == nil || score < bestScore {
			best, bestScore = b, score
		}
	}
	if best == nil {
		return nil, 0
	}
	if epoch, ok := p.admit(best); ok {
		return best, epoch
	}
	return p.pickLeastConn(tried | 1<<uint(best.idx))
}

// Observe records one proxied request's outcome against b, picked at epoch:
// the breaker's verdict and the per-backend counters.
func (p *Pool) Observe(b *Backend, epoch uint64, ok bool) {
	if !ok {
		b.errors.Inc()
		if b.circuit != nil {
			b.circuit.Failure(epoch)
		}
		return
	}
	b.requests.Inc()
	if b.circuit != nil {
		b.circuit.Success(epoch)
	}
}

// flush retires every backend's connections (Shutdown, once every exchange
// has ended).
func (p *Pool) flush() {
	for _, b := range p.backends {
		b.flush()
	}
}

// setHealthy flips b's health verdict, counted and traced once per flip; a
// backend marked down has its connections retired.
func (p *Pool) setHealthy(b *Backend, healthy bool) {
	state := stateUnhealthy
	if healthy {
		state = stateHealthy
	}
	if b.healthy.Swap(state) == state {
		return
	}
	if !healthy {
		b.flush()
	}
	p.tel.HealthTransitions.Inc()
	now := p.now()
	b.lastChangeNS.Store(now)
	p.tel.ptr.BackendState(b.idx, now, state)
}
