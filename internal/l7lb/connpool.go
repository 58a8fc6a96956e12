package l7lb

// UpstreamPool models connection reuse toward backend servers (§7 "More
// connections established with backend servers"). Every proxied request
// needs an upstream connection; an idle pooled one is reused, otherwise a
// new handshake is paid (expensive when backends sit in on-premises IDCs
// across the Internet — TCP and TLS round trips).
//
// With PerWorker pools, spreading requests across all workers (what Hermes
// does) fragments the idle set: worker A cannot reuse a connection worker B
// opened, so handshakes multiply. The production fix is the shared pool, and
// it is the shape the real proxy implements: internal/proxy keeps one
// bounded idle list per backend that every worker takes from and returns to
// (proxy.backend.dials counts the handshakes it still pays).
type UpstreamPool struct {
	// PerWorker isolates idle connections by worker (the original design);
	// false = one shared pool (the §7 fix).
	PerWorker bool
	// MaxIdlePerBackend bounds idle connections kept per backend (per
	// worker when PerWorker).
	MaxIdlePerBackend int

	// Handshakes counts new upstream connections established.
	Handshakes uint64
	// Reuses counts requests served over a pooled connection.
	Reuses uint64

	idle map[poolKey]int
}

type poolKey struct {
	worker  int // -1 in shared mode
	backend int
}

// NewUpstreamPool creates a pool. maxIdle ≤ 0 defaults to 4.
func NewUpstreamPool(perWorker bool, maxIdle int) *UpstreamPool {
	if maxIdle <= 0 {
		maxIdle = 4
	}
	return &UpstreamPool{
		PerWorker:         perWorker,
		MaxIdlePerBackend: maxIdle,
		idle:              make(map[poolKey]int),
	}
}

func (p *UpstreamPool) key(worker, backend int) poolKey {
	if !p.PerWorker {
		worker = -1
	}
	return poolKey{worker: worker, backend: backend}
}

// Acquire takes an upstream connection for worker→backend, reporting
// whether it was reused (false = a fresh handshake was paid).
func (p *UpstreamPool) Acquire(worker, backend int) (reused bool) {
	k := p.key(worker, backend)
	if p.idle[k] > 0 {
		p.idle[k]--
		p.Reuses++
		return true
	}
	p.Handshakes++
	return false
}

// Release returns the connection to the idle set (dropped if the idle cap
// is reached, as real pools do).
func (p *UpstreamPool) Release(worker, backend int) {
	k := p.key(worker, backend)
	if p.idle[k] < p.MaxIdlePerBackend {
		p.idle[k]++
	}
}

// IdleTotal returns the pooled idle connection count (diagnostics).
func (p *UpstreamPool) IdleTotal() int {
	t := 0
	for _, n := range p.idle {
		t += n
	}
	return t
}

// HandshakeRate returns handshakes per request.
func (p *UpstreamPool) HandshakeRate() float64 {
	total := p.Handshakes + p.Reuses
	if total == 0 {
		return 0
	}
	return float64(p.Handshakes) / float64(total)
}
