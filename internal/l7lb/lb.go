package l7lb

import (
	"fmt"
	"time"

	"hermes/internal/core"
	"hermes/internal/kernel"
	"hermes/internal/sim"
	"hermes/internal/stats"
)

// LB is one simulated L7 LB device: a netstack, a set of workers, and the
// dispatch mode's wiring. Workload generators inject traffic through NS and
// observe results through the counters and samples here.
type LB struct {
	// Eng is the virtual clock everything runs on.
	Eng *sim.Engine
	// NS is the device's simulated kernel.
	NS *kernel.NetStack
	// Cfg is the build configuration.
	Cfg Config

	// Workers are the event-loop workers (executors in ModeDispatcher).
	Workers []*Worker
	// Dispatcher is ModeDispatcher's extra core (nil in every other mode):
	// an ordinary worker, ID Workers, whose epoll takes every event and
	// whose handle hands each request to the least-loaded executor — the
	// userspace-dispatcher design §2.2 rejects for LBs.
	Dispatcher *Worker
	// Ctl is the Hermes controller (Hermes modes; one group per 64 workers,
	// §7).
	Ctl *core.Controller

	groups      []*kernel.ReuseportGroup
	shared      []*kernel.Socket
	mutex       *acceptMutex
	acceptExtra time.Duration // per-accept dispatch overhead (mode-dependent)
	obs         []workerObs   // per worker slot; nil unless Config.Telemetry or Config.Tracer is set
	probeSinks  []func(work Work, latencyNS int64)

	// Latency samples end-to-end request time (ms).
	Latency stats.Sample
	// Completed counts finished requests (excluding probes).
	Completed uint64

	// OnResponse, if set, fires at each request completion — closed-loop
	// clients use it to send their next request. The conn ref must be
	// revalidated (ConnRef.Get) before use: the connection may have been
	// reset — and its pooled object recycled — between serve start and
	// completion.
	OnResponse func(conn kernel.ConnRef, work Work)
	// OnConnReset, if set, fires when the LB resets a connection, so the
	// workload can model client reconnects. The ref's ID is always the
	// reset connection's ID; Get still resolves within the callback.
	OnConnReset func(conn kernel.ConnRef)
}

// New assembles an LB on the engine. Call Start to begin the worker loops.
func New(eng *sim.Engine, cfg Config) (*LB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	wake := kernel.WakeExclusiveLIFO
	switch cfg.Mode {
	case ModeHerd:
		wake = kernel.WakeHerd
	case ModeExclusiveRR:
		wake = kernel.WakeExclusiveRR
	case ModeIOUring:
		wake = kernel.WakeExclusiveFIFO
	}
	lb := &LB{
		Eng: eng,
		NS:  kernel.NewNetStack(eng, wake),
		Cfg: cfg,
	}
	if cfg.Mode == ModeHermes {
		ctl, err := core.New(cfg.Workers, cfg.Hermes)
		if err != nil {
			return nil, err
		}
		lb.Ctl = ctl
	}
	lb.observe()

	switch cfg.Mode {
	case ModeExclusive, ModeExclusiveRR, ModeHerd, ModeAcceptMutex, ModeDispatcher, ModeIOUring:
		for _, p := range cfg.Ports {
			s, err := lb.NS.ListenShared(p, 0)
			if err != nil {
				return nil, err
			}
			lb.shared = append(lb.shared, s)
		}
	case ModeReuseport, ModeHermes:
		for _, p := range cfg.Ports {
			g, err := lb.NS.ListenReuseport(p, cfg.Workers, 0)
			if err != nil {
				return nil, err
			}
			lb.groups = append(lb.groups, g)
		}
	default:
		return nil, fmt.Errorf("l7lb: unknown mode %v", cfg.Mode)
	}

	if lb.Ctl != nil {
		for _, g := range lb.groups {
			if err := lb.Ctl.AttachEBPF(g); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Mode == ModeAcceptMutex {
		lb.mutex = &acceptMutex{}
	}

	for i := 0; i < cfg.Workers; i++ {
		var hook *core.WorkerHook // nil: the unmodified baseline loop
		if lb.Ctl != nil {
			hook = lb.Ctl.NewWorkerHook(i)
		}
		w := newWorker(lb, i, hook)
		if cfg.Backends != nil {
			w.backend = cfg.Backends.NewClient()
		}
		lb.Workers = append(lb.Workers, w)
		lb.registerWorkerSockets(w)
	}
	// Every planned connection completes at least one request; with no hint
	// this reserves nothing.
	lb.Latency.Reserve(cfg.ConnsPerWorkerHint * cfg.Workers)
	if cfg.Mode == ModeDispatcher {
		lb.Dispatcher = newWorker(lb, cfg.Workers, nil)
		lb.registerWorkerSockets(lb.Dispatcher)
	}

	registered := cfg.RegisteredPorts
	if registered == 0 {
		registered = len(cfg.Ports)
	}
	switch cfg.Mode {
	case ModeReuseport, ModeHermes:
		lb.acceptExtra = time.Duration(len(cfg.Ports)) * cfg.Costs.PerWatch
	case ModeDispatcher:
		// Only the dispatcher core accepts; it pays its per-event Dispatch
		// cost, not the O(#ports) watch walk (a known deviation,
		// EXPERIMENTS.md).
		lb.acceptExtra = cfg.Costs.Dispatch
	default:
		lb.acceptExtra = time.Duration(registered) * cfg.Costs.PerWatch
	}
	return lb, nil
}

// Start launches all worker loops (and the dispatcher core's) at the
// current virtual time.
func (lb *LB) Start() {
	for _, w := range lb.Workers {
		w.Start()
	}
	if lb.Dispatcher != nil {
		lb.Dispatcher.Start()
	}
}

// registerWorkerSockets wires a worker's epoll to the listening sockets:
// shared-socket modes register every listener (in ModeDispatcher only the
// dispatcher core does; executors run job queues instead), accept-mutex
// workers register lazily while holding the mutex, and reuseport/Hermes
// workers own their group slot. Called at build time and again when a
// crashed worker restarts with a fresh epoll instance.
func (lb *LB) registerWorkerSockets(w *Worker) {
	switch lb.Cfg.Mode {
	case ModeExclusive, ModeExclusiveRR, ModeHerd, ModeIOUring, ModeDispatcher:
		if w.executor {
			return
		}
		for _, s := range lb.shared {
			w.ep.Add(s)
		}
	case ModeAcceptMutex:
		w.listenSocks = lb.shared
	case ModeReuseport, ModeHermes:
		for _, g := range lb.groups {
			w.ep.Add(g.Sockets()[w.ID])
		}
	}
}

// Groups returns the per-port reuseport groups (reuseport/Hermes modes).
func (lb *LB) Groups() []*kernel.ReuseportGroup { return lb.groups }

// SharedSockets returns the shared listening sockets (shared-socket modes).
func (lb *LB) SharedSockets() []*kernel.Socket { return lb.shared }

// SetWorkerAvailable vetoes (ok=false) or restores (ok=true) one worker in
// the published selection bitmap: the eviction path backend-health wiring and
// graceful drains share (docs/PROXY.md). The veto is ANDed onto every
// Algorithm-1 result of the worker's group until lifted; Hermes modes only.
func (lb *LB) SetWorkerAvailable(id int, ok bool) error {
	if lb.Ctl == nil {
		return fmt.Errorf("l7lb: worker availability veto needs a Hermes mode, not %v", lb.Cfg.Mode)
	}
	return lb.Ctl.SetWorkerAvailable(id, ok)
}

// TotalBusyNS sums worker busy time as of now (plus the dispatcher core's,
// if present).
func (lb *LB) TotalBusyNS() int64 {
	now := lb.Eng.Now()
	var t int64
	for _, w := range lb.Workers {
		t += w.BusyNS(now)
	}
	if lb.Dispatcher != nil {
		t += lb.Dispatcher.BusyNS(now)
	}
	return t
}

// leastLoaded is the executor with the least queued work. On a tie — every
// queue empty, the common case at moderate load — the lowest index wins, so
// the spread over executors is uneven (EXPERIMENTS.md, baselines).
func (lb *LB) leastLoaded() *Worker {
	best := lb.Workers[0]
	for _, w := range lb.Workers[1:] {
		if w.queuedCostNS < best.queuedCostNS {
			best = w
		}
	}
	return best
}

// Deliver makes one request readable on conn. The request crosses the
// simulated kernel by value in the connection's skb, so delivering it
// allocates nothing, and a request still queued when its connection is
// closed or reset goes with the skb. Data for a connection already closed is
// dropped, as NS.DeliverData drops it.
func (lb *LB) Deliver(conn *kernel.Conn, work Work) {
	lb.NS.DeliverData(conn, work)
}

// CheckPools holds the device's pools to what holds their objects and names
// the first that does not balance: connection pairs out of the stack's slab
// against the connection sockets open (queued for accept or in a worker's
// table), watches against the epoll registrations, and skbs against the
// requests queued on open connections. It walks every connection, each accept
// queue through its links (which must reach its depth and stop): call it at a
// drain, not per event.
func (lb *LB) CheckPools() error {
	var open, regs, queued int
	var broken error
	worker := func(w *Worker) {
		regs += w.ep.Watches()
		open += len(w.conns)
		for _, s := range w.conns {
			queued += s.PendingData()
		}
	}
	listener := func(ls *kernel.Socket) {
		n := 0
		for c := ls.QueueHead(); c != nil && n <= ls.QueueLen(); c = c.NextQueued() {
			n++
			queued += c.Sock().PendingData()
		}
		if n != ls.QueueLen() && broken == nil {
			// n stops one past the depth: a link that loops ends the walk.
			broken = fmt.Errorf("l7lb: accept queue of socket %d holds %d connections, its links reach %d", ls.ID, ls.QueueLen(), n)
		}
		open += n
	}
	for _, w := range lb.Workers {
		worker(w)
	}
	if lb.Dispatcher != nil {
		worker(lb.Dispatcher)
	}
	for _, ls := range lb.shared {
		listener(ls)
	}
	for _, g := range lb.groups {
		for _, ls := range g.Sockets() {
			listener(ls)
		}
	}
	conns, watches, skbs := lb.NS.Live()
	switch {
	case broken != nil:
		return broken
	case conns != open:
		return fmt.Errorf("l7lb: %d connection pairs out of the pool, %d connections open", conns, open)
	case watches != regs:
		return fmt.Errorf("l7lb: %d watches out of the pool, %d epoll registrations", watches, regs)
	case skbs != queued:
		return fmt.Errorf("l7lb: %d skbs out of the pool, %d payloads queued on open connections", skbs, queued)
	}
	return nil
}

// WorkerConnCounts returns each worker's live connection count.
func (lb *LB) WorkerConnCounts() []int {
	out := make([]int, len(lb.Workers))
	for i, w := range lb.Workers {
		out[i] = w.OpenConns()
	}
	return out
}

func (lb *LB) recordCompletion(w *Worker, conn kernel.ConnRef, work Work) {
	now := lb.Eng.Now()
	lat := now - work.ArrivalNS
	if work.Probe {
		if i := int(work.ProbeSrc); i > 0 && i <= len(lb.probeSinks) {
			lb.probeSinks[i-1](work, lat)
		}
	} else {
		lb.Completed++
		lb.Latency.AddDuration(lat)
		if o := w.obs; o != nil {
			o.latency.Observe(lat)
		}
	}
	if lb.OnResponse != nil {
		lb.OnResponse(conn, work)
	}
}

// RegisterProbeSink adds a per-prober completion callback and returns the
// tag to stamp on that prober's probe Work (Work.ProbeSrc). Completions of
// tagged probes are forwarded with their latency, so several probers on one
// LB keep exact independent accounting; the LB itself keeps none.
func (lb *LB) RegisterProbeSink(fn func(work Work, latencyNS int64)) int32 {
	lb.probeSinks = append(lb.probeSinks, fn)
	return int32(len(lb.probeSinks))
}

func (lb *LB) notifyReset(conn kernel.ConnRef) {
	if lb.OnConnReset != nil {
		lb.OnConnReset(conn)
	}
}
