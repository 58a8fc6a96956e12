package l7lb

import (
	"time"

	"hermes/internal/kernel"
)

// dispatcher implements the userspace-dispatcher baseline of §2.2: one
// dedicated pseudo-core fetches every epoll event (listen and connection
// sockets alike) and fans the work out to executor workers, always choosing
// the least-loaded queue. The design gives perfect job-level balance but
// serializes all event intake through one core — the bottleneck the paper
// predicts for high-CPS network workloads.
type dispatcher struct {
	lb *LB
	w  *Worker // the dispatcher's own core (accounting + epoll)

	// onWakeFn is the pre-bound onWake method value (binding per Wait
	// call allocates on every loop iteration).
	onWakeFn func([]kernel.Event)
}

func newDispatcher(lb *LB) *dispatcher {
	d := &dispatcher{lb: lb, w: newWorker(lb, -1, nil)}
	d.onWakeFn = d.onWake
	for _, s := range lb.shared {
		d.w.ep.Add(s)
	}
	return d
}

func (d *dispatcher) start() { d.loop() }

func (d *dispatcher) loop() {
	if d.w.crashed {
		return
	}
	d.w.waitStart = d.lb.Eng.Now()
	d.w.ep.Wait(d.lb.Cfg.Hermes.MaxEvents, d.lb.Cfg.Hermes.EpollTimeout, d.onWakeFn)
}

func (d *dispatcher) onWake(evs []kernel.Event) {
	if d.w.crashed {
		return
	}
	d.processBatch(evs, 0)
}

func (d *dispatcher) processBatch(evs []kernel.Event, i int) {
	if i >= len(evs) {
		d.loop()
		return
	}
	cost := d.handle(evs[i])
	d.w.beginWork(cost)
	d.lb.Eng.After(cost, func() {
		d.w.endWork()
		d.processBatch(evs, i+1)
	})
}

// handle runs on the dispatcher core: it performs the cheap event intake
// itself and pushes the expensive request processing to an executor.
func (d *dispatcher) handle(ev kernel.Event) time.Duration {
	costs := d.lb.Cfg.Costs
	switch ev.Kind {
	case kernel.EvAccept:
		conn, ok := ev.Sock.Accept()
		if !ok {
			return costs.SpuriousWake
		}
		d.w.Accepted++
		if o := d.w.obs; o != nil {
			o.tr.Accept(uint64(conn.ID), conn.EstablishedNS, conn.AcceptedNS)
		}
		d.w.addConn(conn.Sock())
		return costs.Accept + costs.Dispatch
	case kernel.EvReadable:
		payload, ok := ev.Sock.PopData()
		if !ok {
			return costs.SpuriousWake
		}
		work := d.lb.takeWork(payload)
		sock := ev.Sock
		// The executor's completion fires later; capture a checked ref now
		// in case the connection is reset and recycled meanwhile.
		connRef := sock.Conn().Ref()
		ex := d.leastLoaded()
		ex.pushJob(work.Cost, func() {
			ex.Completed++
			// The job ran contiguously for work.Cost ending now, so the
			// serve span's start is recoverable without threading it through.
			end := d.lb.Eng.Now()
			if o := ex.obs; o != nil {
				o.tr.Serve(uint64(connRef.ID()), work.ArrivalNS, end-int64(work.Cost), end, work.Probe)
			}
			d.lb.recordCompletion(ex, connRef, work)
			if work.Close && connRef.Get() != nil {
				d.w.closeConn(sock)
			}
		})
		return costs.Dispatch
	case kernel.EvHangup:
		d.w.closeConn(ev.Sock)
		return costs.Close
	default:
		return 0
	}
}

func (d *dispatcher) leastLoaded() *Worker {
	best := d.lb.Workers[0]
	for _, w := range d.lb.Workers[1:] {
		if w.queuedCostNS < best.queuedCostNS {
			best = w
		}
	}
	return best
}
