package faults

import (
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

// Injector applies a Schedule to one LB on its virtual clock. All decisions
// are deterministic: victims are picked from sim state, the only randomness
// (per-probe loss) comes from the injector's own seeded generator, and every
// event lands at a scheduled instant — so runs with the same seed and
// schedule are byte-identical regardless of host parallelism.
type Injector struct {
	lb    *l7lb.LB
	sched Schedule
	rng   *rand.Rand

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

	startNS     int64
	dropUntilNS int64
	dropProb    float64
	slow        []Slowdowns // per worker, by ID

	obs *injectorObs // nil until Observe
}

// NewInjector builds an injector for lb. seed drives probe-loss coin flips
// (and nothing else); the schedule itself is already deterministic.
func NewInjector(lb *l7lb.LB, sched Schedule, seed int64) *Injector {
	return &Injector{lb: lb, sched: sched, rng: rand.New(rand.NewSource(seed)),
		slow: make([]Slowdowns, len(lb.Workers))}
}

// AttachProber points a prober's loss hook at this injector's probe-loss
// window. Attach every prober whose stream the schedule should affect.
func (inj *Injector) AttachProber(p *probe.WorkerProber) {
	p.SetDrop(func() bool {
		return inj.lb.Eng.Now() < inj.dropUntilNS && inj.rng.Float64() < inj.dropProb
	})
}

// Start arms the recovery fallback and schedules every event relative to
// the current virtual time.
func (inj *Injector) Start() {
	inj.startNS = inj.lb.Eng.Now()
	if inj.StaleFallback > 0 {
		eng := inj.lb.Eng
		for _, m := range inj.selMaps() {
			m.SetStaleness(eng.Now, int64(inj.StaleFallback))
		}
	}
	for _, ev := range inj.sched.Events {
		ev := ev
		inj.lb.Eng.At(inj.startNS+ev.AtNS, func() { inj.apply(ev) })
	}
}

// selMaps returns every group's selection map behind the LB; empty for
// non-Hermes modes.
func (inj *Injector) selMaps() []*ebpf.ArrayMap {
	if inj.lb.Ctl == nil {
		return nil
	}
	return inj.lb.Ctl.SelMaps()
}

// victim resolves an event's target worker: a pinned id, or the most-loaded
// live worker at fire time (ties toward the lowest id). nil if no worker
// qualifies.
func (inj *Injector) victim(ev Event) *l7lb.Worker {
	ws := inj.lb.Workers
	if ev.Worker >= 0 {
		if ev.Worker >= len(ws) {
			return nil
		}
		return ws[ev.Worker]
	}
	var best *l7lb.Worker
	for _, w := range ws {
		if w.Crashed() {
			continue
		}
		if best == nil || w.OpenConns() > best.OpenConns() {
			best = w
		}
	}
	return best
}

func (inj *Injector) apply(ev Event) {
	eng := inj.lb.Eng
	now := eng.Now()
	switch ev.Kind {
	case Hang:
		w := inj.victim(ev)
		if w == nil || w.Crashed() {
			inj.Skipped++
			return
		}
		w.Hang(time.Duration(ev.DurNS))
		inj.record(ev.Kind, int32(w.ID), now, ev.DurNS)
	case Crash:
		w := inj.victim(ev)
		if w == nil || w.Crashed() {
			inj.Skipped++
			return
		}
		w.Crash(ev.Drop)
		inj.record(ev.Kind, int32(w.ID), now, ev.RestartNS)
		if ev.RestartNS > 0 {
			eng.After(time.Duration(ev.RestartNS), func() {
				if !w.Crashed() {
					return // something else (the watchdog) got there first
				}
				w.Restart()
				inj.Restarts++
				if o := inj.obs; o != nil {
					o.restarts.Inc()
					o.tr.Event(int32(w.ID), eng.Now(), int64(Restart), 0)
				}
			})
		}
	case Slow:
		w := inj.victim(ev)
		if w == nil || w.Crashed() {
			inj.Skipped++
			return
		}
		end := inj.slow[w.ID].Start(ev.Factor, w.SetCostMultiplier)
		inj.record(ev.Kind, int32(w.ID), now, int64(ev.Factor*1000))
		if ev.DurNS > 0 {
			eng.After(time.Duration(ev.DurNS), end)
		}
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
			eng.After(time.Duration(ev.DurNS), func() {
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
		fail := func() bool { return ev.DurNS <= 0 || eng.Now() < end }
		for _, m := range maps {
			m.SetFailUpdates(fail)
		}
		inj.record(ev.Kind, tracing.KernelTrack, now, ev.DurNS)
		if ev.DurNS > 0 {
			eng.After(time.Duration(ev.DurNS), func() {
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

// shrinkTargets picks the sockets an accept-queue shrink applies to: every
// shared listener in shared-socket modes (one queue, LB-wide blast), the
// victim worker's slot in each reuseport group otherwise.
func (inj *Injector) shrinkTargets(ev Event) []*kernel.Socket {
	if shared := inj.lb.SharedSockets(); len(shared) > 0 {
		return shared
	}
	w := inj.victim(ev)
	if w == nil {
		return nil
	}
	groups := inj.lb.Groups()
	out := make([]*kernel.Socket, 0, len(groups))
	for _, g := range groups {
		out = append(out, g.Sockets()[w.ID])
	}
	return out
}

// Slowdowns is the set of slow faults in force on one worker, on either data
// path. Windows may overlap: the slowdown started last sets the factor, and
// an expiry ends only its own, handing the factor back to the latest one
// still in force (1, full speed, once none is). The zero value holds none.
type Slowdowns struct {
	mu     sync.Mutex // the real proxy's fault timers run concurrently
	active []*float64
}

// Start puts a slowdown by factor in force through set and returns the func
// that ends it. set runs under s's lock, so the last factor set is the one in
// force; it must not call back into s.
func (s *Slowdowns) Start(factor float64, set func(float64)) (end func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	self := &factor
	s.active = append(s.active, self)
	set(factor)
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
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
