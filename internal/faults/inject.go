package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"hermes/internal/ebpf"
	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/probe"
	"hermes/internal/tracing"
)

// Worker is what a worker fault acts on, on either data path: the
// simulator's *l7lb.Worker and the real proxy's worker both implement it, so
// one Injector picks the victims and applies the faults for both.
type Worker interface {
	// Crashed reports whether a crash is in force.
	Crashed() bool
	// OpenConns is the victim rule's load: the connections the worker holds.
	OpenConns() int
	// Hang stalls the worker for d; overlapping hangs extend, never shorten.
	Hang(d time.Duration)
	// Crash stops the worker until Restart; drop resets its connections.
	Crash(drop bool)
	// Restart brings a crashed worker back.
	Restart()
	// SetCostMultiplier scales what each request costs (1 = full speed).
	SetCostMultiplier(f float64)
}

// Injector applies a Schedule through one clock: the simulator's virtual one
// for an LB (NewInjector), or wall time for workers alone (NewWorkerInjector,
// the real proxy). In the simulator every decision is deterministic: victims
// are picked from sim state, the only randomness (per-probe loss) comes from
// the injector's own seeded generator, and every event lands at a scheduled
// instant — so runs with the same seed and schedule are byte-identical
// regardless of host parallelism.
type Injector struct {
	lb      *l7lb.LB // nil when the injector drives workers alone
	workers []Worker // indexed by worker id
	sched   Schedule
	rng     *rand.Rand
	now     func() int64
	after   func(time.Duration, func())

	// StaleFallback, if set before Start, arms the stale-bitmap recovery
	// path on every selection map (Hermes modes): entries not re-synced
	// within this age read as empty, so the kernel falls back to reuseport
	// hashing instead of steering on a stale bitmap during sync stalls.
	StaleFallback time.Duration

	// Injected counts applied fault events; Skipped counts events that did
	// not apply (no such worker, fault not applicable to the mode).
	Injected uint64
	Skipped  uint64
	// Restarts counts crash-scheduled worker restarts.
	Restarts uint64

	// mu serialises every fault callback, since wall-clock timers fire on
	// goroutines of their own; it is taken when a fault fires or ends, never
	// on a request path. It guards everything below and the counts above.
	mu          sync.Mutex
	stopped     bool
	dropUntilNS int64
	dropProb    float64
	slow        []slowdowns // per worker, by ID

	obs *injectorObs // nil until Observe
}

// NewInjector builds an injector for lb on its virtual clock. seed drives
// probe-loss coin flips (and nothing else); the schedule itself is already
// deterministic.
func NewInjector(lb *l7lb.LB, sched Schedule, seed int64) *Injector {
	ws := make([]Worker, len(lb.Workers))
	for i, w := range lb.Workers {
		ws[i] = w
	}
	return &Injector{lb: lb, workers: ws, sched: sched, rng: rand.New(rand.NewSource(seed)), now: lb.Eng.Now,
		after: func(d time.Duration, fn func()) { lb.Eng.After(d, fn) }, slow: make([]slowdowns, len(ws))}
}

// NewWorkerInjector builds an injector that drives ws alone, with no LB
// behind them, scheduling through now and after. It refuses a schedule
// holding a kind that needs an LB (shrinkq, syncstall, probeloss) or pinning
// a worker past ws, so the caller hears it before anything fires.
func NewWorkerInjector(ws []Worker, sched Schedule, now func() int64, after func(time.Duration, func())) (*Injector, error) {
	for _, ev := range sched.Events {
		if k := ev.Kind; k == ShrinkQueue || k == SyncStall || k == ProbeLoss {
			return nil, fmt.Errorf("faults: %s needs an LB's queues, selection maps or probers; workers alone take hang, crash and slow", ev.Kind)
		}
		if ev.Worker >= len(ws) {
			return nil, fmt.Errorf("faults: %s pins worker %d of %d", ev.Kind, ev.Worker, len(ws))
		}
	}
	return &Injector{workers: ws, sched: sched, now: now, after: after, slow: make([]slowdowns, len(ws))}, nil
}

// AttachProber points a prober's loss hook at this injector's probe-loss
// window. Attach every prober whose stream the schedule should affect.
func (inj *Injector) AttachProber(p *probe.WorkerProber) {
	p.SetDrop(func() bool {
		return inj.now() < inj.dropUntilNS && inj.rng.Float64() < inj.dropProb
	})
}

// Start arms the recovery fallback and schedules every event relative to
// the current time.
func (inj *Injector) Start() {
	if inj.StaleFallback > 0 {
		for _, m := range inj.selMaps() {
			m.SetStaleness(inj.now, int64(inj.StaleFallback))
		}
	}
	for _, ev := range inj.sched.Events {
		inj.at(time.Duration(ev.AtNS), func() { inj.apply(ev) })
	}
}

// Stop ends the schedule: once it returns, no fault fires or ends, and every
// fault callback already running has finished.
func (inj *Injector) Stop() {
	inj.mu.Lock()
	inj.stopped = true
	inj.mu.Unlock()
}

// at runs fn after d on the injector's clock, under its lock, unless Stop
// came first.
func (inj *Injector) at(d time.Duration, fn func()) {
	inj.after(d, func() {
		inj.mu.Lock()
		defer inj.mu.Unlock()
		if !inj.stopped {
			fn()
		}
	})
}

// selMaps returns every group's selection map behind the LB; empty for
// non-Hermes modes and for workers alone.
func (inj *Injector) selMaps() []*ebpf.ArrayMap {
	if inj.lb == nil || inj.lb.Ctl == nil {
		return nil
	}
	return inj.lb.Ctl.SelMaps()
}

// victim resolves an event's target worker id: a pinned id, or the worker
// with the most open connections at fire time, ties toward the lowest id,
// skipping crashed workers. -1 if no worker qualifies.
func (inj *Injector) victim(ev Event) int {
	if ev.Worker >= 0 {
		if ev.Worker >= len(inj.workers) {
			return -1
		}
		return ev.Worker
	}
	best, most := -1, 0
	for id, w := range inj.workers {
		if w.Crashed() {
			continue
		}
		if n := w.OpenConns(); best < 0 || n > most {
			best, most = id, n
		}
	}
	return best
}

func (inj *Injector) apply(ev Event) {
	now := inj.now()
	switch ev.Kind {
	case Hang, Crash, Slow:
		id := inj.victim(ev)
		if id < 0 || inj.workers[id].Crashed() {
			inj.Skipped++
			return
		}
		inj.hit(ev, id, now)
	case ShrinkQueue:
		socks := inj.shrinkTargets(ev)
		if len(socks) == 0 {
			inj.Skipped++
			return
		}
		saved := make([]int, len(socks))
		for i, s := range socks {
			saved[i] = s.AcceptCap()
			s.SetAcceptCap(ev.Cap)
		}
		inj.record(ev.Kind, tracing.KernelTrack, now, int64(ev.Cap))
		if ev.DurNS > 0 {
			inj.at(time.Duration(ev.DurNS), func() {
				for i, s := range socks {
					s.SetAcceptCap(saved[i])
				}
			})
		}
	case SyncStall:
		maps := inj.selMaps()
		if len(maps) == 0 {
			inj.Skipped++
			return
		}
		end := now + ev.DurNS
		fail := func() bool { return ev.DurNS <= 0 || inj.now() < end }
		for _, m := range maps {
			m.SetFailUpdates(fail)
		}
		inj.record(ev.Kind, tracing.KernelTrack, now, ev.DurNS)
		if ev.DurNS > 0 {
			inj.at(time.Duration(ev.DurNS), func() {
				for _, m := range maps {
					m.SetFailUpdates(nil)
				}
			})
		}
	case ProbeLoss:
		inj.dropProb = ev.Prob
		if ev.DurNS > 0 {
			inj.dropUntilNS = now + ev.DurNS
		} else {
			inj.dropUntilNS = 1<<63 - 1
		}
		inj.record(ev.Kind, tracing.KernelTrack, now, int64(ev.Prob*1000))
	default:
		inj.Skipped++
	}
}

// hit applies a worker fault to live worker id and records it with its
// kind-specific parameter: hang duration, restart delay, slow factor × 1000.
func (inj *Injector) hit(ev Event, id int, now int64) {
	w, track := inj.workers[id], int32(id)
	switch ev.Kind {
	case Hang:
		w.Hang(time.Duration(ev.DurNS))
		inj.record(ev.Kind, track, now, ev.DurNS)
	case Crash:
		w.Crash(ev.Drop)
		inj.record(ev.Kind, track, now, ev.RestartNS)
		if ev.RestartNS > 0 {
			inj.at(time.Duration(ev.RestartNS), func() {
				if !w.Crashed() {
					return // something else (the watchdog) got there first
				}
				w.Restart()
				inj.Restarts++
				if o := inj.obs; o != nil {
					o.restarts.Inc()
					o.tr.Event(track, inj.now(), int64(Restart), 0)
				}
			})
		}
	case Slow:
		end := inj.slow[id].start(ev.Factor, w.SetCostMultiplier)
		inj.record(ev.Kind, track, now, int64(ev.Factor*1000))
		if ev.DurNS > 0 {
			inj.at(time.Duration(ev.DurNS), end)
		}
	}
}

// shrinkTargets picks the sockets an accept-queue shrink applies to: every
// shared listener in shared-socket modes (one queue, LB-wide blast), the
// victim worker's slot in each reuseport group otherwise.
func (inj *Injector) shrinkTargets(ev Event) []*kernel.Socket {
	if shared := inj.lb.SharedSockets(); len(shared) > 0 {
		return shared
	}
	id := inj.victim(ev)
	if id < 0 {
		return nil
	}
	groups := inj.lb.Groups()
	out := make([]*kernel.Socket, 0, len(groups))
	for _, g := range groups {
		out = append(out, g.Sockets()[id])
	}
	return out
}

// slowdowns is the set of slow faults in force on one worker. Windows may
// overlap: the slowdown started last sets the factor, and an expiry ends only
// its own, handing the factor back to the latest one still in force (1, full
// speed, once none is). The zero value holds none; the injector's lock
// guards it.
type slowdowns struct {
	active []*float64
}

// start puts a slowdown by factor in force through set and returns the func
// that ends it.
func (s *slowdowns) start(factor float64, set func(float64)) (end func()) {
	self := &factor
	s.active = append(s.active, self)
	set(factor)
	return func() {
		s.active = slices.DeleteFunc(s.active, func(f *float64) bool { return f == self })
		now := 1.0
		if n := len(s.active); n > 0 {
			now = *s.active[n-1]
		}
		set(now)
	}
}

func (inj *Injector) record(k Kind, track int32, nowNS, param int64) {
	inj.Injected++
	if o := inj.obs; o != nil {
		o.injected.At(int(k)).Inc()
		o.tr.Event(track, nowNS, int64(k), param)
	}
}
