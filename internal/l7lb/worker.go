package l7lb

import (
	"time"

	"hermes/internal/core"
	"hermes/internal/kernel"
	"hermes/internal/sim"
	"hermes/internal/stats"
)

// maxEvents is the epoll_wait batch every worker asks for, in every mode.
const maxEvents = 64

// Worker is one LB worker process pinned to one CPU core, running the
// run-to-completion epoll event loop of Fig. A1 (baselines) or Fig. 9
// (Hermes). CPU occupancy is modelled in virtual time: handling an event
// charges its cost to the worker's core and defers the next step until the
// cost has elapsed, so an expensive request really does block everything
// behind it — the mechanism behind worker hangs (§5.2.1). An injected hang is
// more of the same: CPU work on the core's run bracket that holds the next
// step back until it releases.
type Worker struct {
	// ID is the worker index (== CPU core == reuseport socket index).
	ID int

	lb *LB
	ep *kernel.Epoll
	// hook is the Hermes instrumentation of Fig. 9 (WST publication and
	// schedule_and_sync); nil in the baseline modes, whose loop is unmodified.
	hook    *core.WorkerHook
	backend *BackendClient // round-robin cursor when Config.Backends is set

	crashed bool
	// executor marks a ModeDispatcher executor: it runs the serves the
	// dispatcher core queues on it (pushJob), not an epoll loop of its own.
	executor bool

	// hangUntilNS, while in the future, models a busy-spinning hang: the
	// worker burns CPU without making progress (Appendix C case 1).
	hangUntilNS int64
	// costMult scales every handled event's CPU cost (slow-worker fault).
	costMult float64

	// conns is the worker's connection table. Each owned socket carries an
	// owner stamp (worker ID, slot index) instead of a side map, so adds
	// and swap-removes are O(1) with no hashing or per-conn map growth.
	conns []*kernel.Socket

	listenSocks []*kernel.Socket // accept-mutex: sockets registered while holding

	waitStart    int64
	batchStart   int64
	prevSpurious uint64

	// onWakeFn is the pre-bound onWake method value: binding it per Wait
	// call would allocate on every loop iteration.
	onWakeFn func([]kernel.Event)

	// Batched dispatch state. The in-flight event burst, its cursor, and
	// the pending serve completion live on the worker, and the loop's
	// continuations are the worker itself seen as a sim.Handler (wakeHeld,
	// eventDone, loopTail, nextJob, jobDone) — so neither building a worker
	// nor steady-state dispatch makes a closure. At most one continuation
	// timer is outstanding: the charge of an event, job or loop tail, or a
	// step held back by a hang (stalled). Crash cancels it, so a restarted
	// incarnation can never be driven by its predecessor's timer.
	batchEvs  []kernel.Event
	batchIdx  int
	contTimer sim.Timer
	serv      servState

	// ConnTableGrows counts conns-slice regrowths after construction; the
	// scale harness pins it at zero (a close-on-reply cell never holds 256
	// connections open on one worker).
	ConnTableGrows uint64

	// Executor state (ModeDispatcher): the serves queued behind the one in
	// w.serv, head-indexed and reused, and their total unscaled cost.
	jobs         []servState
	jobHead      int
	queuedCostNS int64

	// busyDoneNS is CPU time of finished work. [runStartNS, runEndNS] is the
	// core's one run bracket: the CPU time in flight, an event's charge or a
	// hang's spin or both back to back. BusyNS counts only its elapsed part,
	// so a long charge or hang never reads ahead of the clock.
	busyDoneNS int64
	runStartNS int64
	runEndNS   int64
	// Completed counts requests finished on this worker.
	Completed uint64
	// Accepted counts connections accepted.
	Accepted uint64
	// ResetConns counts connections reset by pool exhaustion or shedding.
	ResetConns uint64
	// Restarts counts recoveries from a crash.
	Restarts uint64

	// Detailed per-worker distributions (enabled by Config.DetailedStats).
	EventsPerWait *stats.Sample // Fig. 4
	BatchProcNS   *stats.Sample // Fig. 5a
	BlockNS       *stats.Sample // Fig. 5b

	// obs is this worker's share of the LB's observer: its metric slots and
	// trace track (nil = unobserved, see Config.Telemetry / Config.Tracer).
	obs *workerObs
}

// The loop's continuations: a *Worker converted to one of these types is the
// sim.Handler of one step, which makes no closure and no method value.
type (
	wakeHeld  Worker // onWake on the batch a hang held back
	eventDone Worker // afterEvent: the event at the batch cursor is charged
	loopTail  Worker // endLoopCont: the loop tail is charged
	nextJob   Worker // runNextJob: an executor takes its next serve
	jobDone   Worker // afterJob: an executor's serve is charged
)

func (h *wakeHeld) Fire()  { w := (*Worker)(h); w.onWake(w.batchEvs) }
func (h *eventDone) Fire() { (*Worker)(h).afterEvent() }
func (h *loopTail) Fire()  { (*Worker)(h).endLoopCont() }
func (h *nextJob) Fire()   { (*Worker)(h).runNextJob() }
func (h *jobDone) Fire()   { (*Worker)(h).afterJob() }

// servState carries an EvReadable serve from handle to its completion in
// finishServe. Only one serve is in flight per worker (run-to-completion), so
// a single embedded struct replaces a closure allocation per request. owner
// is the worker whose table holds the connection: the serving worker itself,
// or in ModeDispatcher the dispatcher core that handed it to an executor.
type servState struct {
	active     bool
	owner      *Worker
	sock       *kernel.Socket
	connRef    kernel.ConnRef
	work       Work
	serveStart int64
	backendID  int
	forwarded  bool
}

func newWorker(lb *LB, id int, hook *core.WorkerHook) *Worker {
	// The connection table holds what is open, not what a cell plans to
	// open: 256 slots, bounded by the pool cap, regrown by append past that.
	tableCap := 256
	if max := lb.Cfg.MaxConnsPerWorker; max > 0 && max < tableCap {
		tableCap = max
	}
	w := &Worker{
		ID:       id,
		lb:       lb,
		ep:       lb.NS.NewEpoll(),
		hook:     hook,
		costMult: 1,
		conns:    make([]*kernel.Socket, 0, tableCap),
	}
	w.onWakeFn = w.onWake
	w.executor = lb.Cfg.Mode == ModeDispatcher && id < lb.Cfg.Workers
	if lb.Cfg.DetailedStats {
		w.EventsPerWait = &stats.Sample{}
		w.BatchProcNS = &stats.Sample{}
		w.BlockNS = &stats.Sample{}
	}
	if lb.obs != nil {
		w.obs = &lb.obs[id]
	}
	w.ep.BindWorker(id)
	return w
}

// OpenConns returns the number of live connections owned by this worker.
func (w *Worker) OpenConns() int { return len(w.conns) }

// ConnTableCap returns the connection table's current capacity (pre-sizing
// and regrowth checks).
func (w *Worker) ConnTableCap() int { return cap(w.conns) }

// SampleConn returns one of the worker's live connection sockets (nil if it
// has none) — used by the prober to reach every worker through real
// connections.
func (w *Worker) SampleConn() *kernel.Socket {
	if len(w.conns) == 0 {
		return nil
	}
	return w.conns[0]
}

// OwnsConn reports whether this worker holds the given connection socket.
func (w *Worker) OwnsConn(s *kernel.Socket) bool {
	tag, _, ok := s.Owner()
	return ok && tag == int32(w.ID)
}

// Crashed reports whether the worker has crashed.
func (w *Worker) Crashed() bool { return w.crashed }

// Crash kills the worker (§7 "How worker failures impact tenant services").
// With dropConns, its established connections are reset, notifying the
// workload's reset callback so clients can reconnect. As when a real
// process dies, the kernel closes its epoll fd: the outstanding waiter is
// cancelled and every watch (including listen sockets) leaves its socket's
// wait queue, so exclusive wakeup walks can no longer select — and lose —
// a wakeup on the dead worker. The reuseport listen socket, owned by the
// group rather than the process in this model, stays open until Restart,
// so steered connections queue behind the dead worker meanwhile.
func (w *Worker) Crash(dropConns bool) {
	if w.crashed {
		return
	}
	w.crashed = true
	// Bank the elapsed part of the run bracket: the CPU was really spent
	// even though the continuation will never run.
	w.busyDoneNS = w.BusyNS(w.lb.Eng.Now())
	w.runStartNS, w.runEndNS, w.hangUntilNS = 0, 0, 0
	// The dead process takes its loop continuation with it: cancel the one
	// outstanding timer and drop any parked serve so a restarted incarnation
	// cannot be driven by — or complete — its predecessor's work.
	w.contTimer.Cancel()
	w.serv = servState{}
	w.ep.Close()
	if m := w.lb.mutex; m != nil && m.holder == w {
		w.releaseMutex()
	}
	if dropConns {
		for len(w.conns) > 0 {
			w.resetConn(w.conns[len(w.conns)-1])
		}
	}
}

// Restart brings a crashed worker back: a fresh process with a fresh epoll
// instance, re-registered on the mode's listen sockets (including its
// reuseport slot), with any connections stranded by a Crash(false) reset —
// the dead process's fds are unrecoverable. Telemetry and tracing keep
// flowing into the worker's existing slots.
func (w *Worker) Restart() {
	if !w.crashed {
		return
	}
	for len(w.conns) > 0 {
		w.resetConn(w.conns[len(w.conns)-1])
	}
	w.crashed = false
	w.Restarts++
	w.costMult = 1
	clear(w.jobs)
	w.jobs, w.jobHead, w.queuedCostNS = w.jobs[:0], 0, 0
	w.ep = w.lb.NS.NewEpoll()
	w.ep.BindWorker(w.ID)
	w.lb.registerWorkerSockets(w)
	w.Start()
}

// Hang busy-spins the worker for d: it stops fetching and handling events
// (its loop-enter timestamp goes stale — the paper's FilterTime signal)
// while still burning its core, then resumes where it left off. The spin is
// ordinary CPU work: it extends the in-flight run bracket to the release (the
// charge in flight finishes first, so the core is never counted twice), or
// opens [now, release] on an idle core. Overlapping hangs extend the spin
// rather than stacking.
func (w *Worker) Hang(d time.Duration) {
	if w.crashed || d <= 0 {
		return
	}
	now := w.lb.Eng.Now()
	until := now + int64(d)
	if until <= w.hangUntilNS {
		return
	}
	w.hangUntilNS = until
	if w.runEndNS > now {
		w.runEndNS = max(w.runEndNS, until)
		return
	}
	w.endWork() // a finished hang the idle core has not woken from yet
	w.runStartNS, w.runEndNS = now, until
}

// Hung reports whether the worker is currently inside an injected hang.
func (w *Worker) Hung() bool { return w.hangUntilNS > w.lb.Eng.Now() }

// SetCostMultiplier scales the CPU cost of every event this worker handles
// (slow-worker fault; 1 restores normal speed).
func (w *Worker) SetCostMultiplier(m float64) {
	if m <= 0 {
		m = 1
	}
	w.costMult = m
}

// CostMultiplier returns the current slow-worker scale factor.
func (w *Worker) CostMultiplier() float64 { return w.costMult }

func (w *Worker) scaleCost(d time.Duration) time.Duration {
	if w.costMult != 1 && d > 0 {
		return time.Duration(float64(d) * w.costMult)
	}
	return d
}

// stalled holds back a loop step that a hang caught: while the core is hung
// it re-arms the one continuation timer for step at the release and reports
// true (an extended hang re-arms it again). Otherwise the run bracket has
// ended — the charge step waited on, or a hang the core slept through — and
// stalled banks it and reports false.
func (w *Worker) stalled(step sim.Handler) bool {
	if w.hangUntilNS > w.lb.Eng.Now() {
		w.contTimer = w.lb.Eng.Schedule(w.hangUntilNS, step)
		return true
	}
	w.endWork()
	return false
}

// after arms the one continuation timer for step once d of CPU has elapsed.
func (w *Worker) after(d time.Duration, step sim.Handler) {
	w.contTimer = w.lb.Eng.Schedule(w.lb.Eng.Now()+max(int64(d), 0), step)
}

// busy charges completed (instantaneous) CPU work.
func (w *Worker) busy(d time.Duration) {
	if d > 0 {
		w.busyDoneNS += int64(d)
	}
}

// beginWork opens the run bracket on a deferred piece of work of duration
// d; the continuation's stalled check banks it. Observations in between see
// only the elapsed fraction.
func (w *Worker) beginWork(d time.Duration) {
	if d <= 0 {
		return
	}
	now := w.lb.Eng.Now()
	w.runStartNS, w.runEndNS = now, now+int64(d)
}

// endWork banks the whole run bracket.
func (w *Worker) endWork() {
	w.busyDoneNS += w.runEndNS - w.runStartNS
	w.runStartNS, w.runEndNS = 0, 0
}

// BusyNS returns accumulated virtual CPU time as of nowNS, including the
// elapsed part of the run bracket.
func (w *Worker) BusyNS(nowNS int64) int64 {
	if end := min(nowNS, w.runEndNS); end > w.runStartNS {
		return w.busyDoneNS + end - w.runStartNS
	}
	return w.busyDoneNS
}

// Start schedules the first event-loop iteration.
func (w *Worker) Start() {
	if w.executor {
		return // executors are driven by the dispatcher core
	}
	w.loopEnter()
}

func (w *Worker) loopEnter() {
	now := w.lb.Eng.Now()
	h := w.hook
	if h != nil {
		h.LoopEnter(now)
	}
	if o := w.obs; o != nil {
		o.openConns.Set(int64(len(w.conns)))
	}
	if h != nil && w.lb.Cfg.ScheduleAtLoopStart {
		h.ScheduleAndSync(now)
		w.busy(w.lb.Cfg.Costs.Schedule)
	}
	if w.lb.mutex != nil {
		w.tryAcquireMutex()
	}
	w.waitStart = now
	w.prevSpurious = w.ep.SpuriousWakeups
	w.ep.Wait(maxEvents, w.lb.Cfg.Hermes.EpollTimeout, w.onWakeFn)
}

func (w *Worker) onWake(evs []kernel.Event) {
	// A hung worker has fetched the batch but spins before touching it: the
	// events (and any queued connections behind them) stall until release.
	// The batch is parked on the worker so the held step needs no per-wake
	// closure; the buffer is the epoll's scratch, stable until this worker's
	// next Wait. The crashed check drops a delivery the dead epoll had
	// already scheduled.
	w.batchEvs = evs
	if w.crashed || w.stalled((*wakeHeld)(w)) {
		return
	}
	now := w.lb.Eng.Now()
	if w.BlockNS != nil {
		w.BlockNS.Add(float64(now - w.waitStart))
	}
	if w.EventsPerWait != nil {
		w.EventsPerWait.Add(float64(len(evs)))
	}
	if h := w.hook; h != nil {
		h.EventsFetched(len(evs))
	}
	w.batchStart = now
	if len(evs) == 0 && w.ep.SpuriousWakeups > w.prevSpurious {
		// Thundering-herd loser: charge the wasted wakeup.
		w.busy(w.lb.Cfg.Costs.SpuriousWake)
	}
	w.batchIdx = 0
	w.processBatch()
}

func (w *Worker) processBatch() {
	if w.crashed {
		return
	}
	if w.batchIdx >= len(w.batchEvs) {
		w.endLoop()
		return
	}
	cost := w.handle(w.batchEvs[w.batchIdx])
	cost = w.scaleCost(cost)
	w.beginWork(cost)
	w.after(cost, (*eventDone)(w))
}

// afterEvent finishes the event at the batch cursor once its CPU charge has
// elapsed (and any injected hang has released), then continues the batch.
func (w *Worker) afterEvent() {
	if w.stalled((*eventDone)(w)) {
		return
	}
	if h := w.hook; h != nil {
		h.EventHandled()
	}
	if w.serv.active {
		w.finishServe()
	}
	ev := w.batchEvs[w.batchIdx]
	if w.lb.Cfg.EdgeTriggered && ev.Kind == kernel.EvReadable &&
		!ev.Sock.Closed() && ev.Sock.PendingData() > 0 {
		if p := w.lb.Cfg.Shed; p.Enabled && p.PendingThreshold > 0 &&
			ev.Sock.PendingData() > p.PendingThreshold {
			// Proactive degradation (Appendix C): RST the runaway
			// connection instead of staying trapped in its drain.
			w.ResetConns++
			w.resetConn(ev.Sock)
			w.busy(w.lb.Cfg.Costs.Close)
			w.batchIdx++
			w.processBatch()
			return
		}
		// Edge-triggered drain obligation: keep consuming this socket
		// before touching the rest of the loop — the trap of Appendix C
		// when data arrives faster than it is processed.
		if h := w.hook; h != nil {
			h.EventsFetched(1)
		}
		w.processBatch()
		return
	}
	w.batchIdx++
	w.processBatch()
}

// finishServe completes the in-flight serve parked by handle (or, on an
// executor, by runNextJob): upstream release, completion accounting, and
// Connection: close teardown through the owner's table.
func (w *Worker) finishServe() {
	s := w.serv
	w.serv = servState{}
	if s.forwarded && w.lb.Cfg.Upstream != nil {
		w.lb.Cfg.Upstream.Release(w.ID, s.backendID)
	}
	w.Completed++
	if o := w.obs; o != nil {
		o.served.Inc()
		o.tr.Serve(uint64(s.connRef.ID()), s.work.ArrivalNS, s.serveStart, w.lb.Eng.Now(), s.work.Probe)
	}
	w.lb.recordCompletion(w, s.connRef, s.work)
	if s.work.Close && s.connRef.Get() != nil {
		s.owner.closeConn(s.sock)
	}
}

// handle applies an event's immediate effects and returns its CPU cost. An
// EvReadable serve parks its completion state in w.serv; afterEvent runs
// finishServe when the cost has elapsed.
func (w *Worker) handle(ev kernel.Event) time.Duration {
	costs := w.lb.Cfg.Costs
	switch ev.Kind {
	case kernel.EvAccept:
		conn, ok := ev.Sock.Accept()
		if !ok {
			// Raced by another worker (herd / shared-socket modes).
			return costs.SpuriousWake
		}
		w.Accepted++
		if o := w.obs; o != nil {
			o.accepted.Inc()
			o.acceptWait.Observe(conn.AcceptedNS - conn.EstablishedNS)
			o.tr.Accept(uint64(conn.ID), conn.EstablishedNS, conn.AcceptedNS)
		}
		if max := w.lb.Cfg.MaxConnsPerWorker; max > 0 && len(w.conns) >= max {
			// Connection pool exhausted: reset (§5.1.1).
			w.ResetConns++
			sock := conn.Sock()
			ref := conn.Ref()
			w.lb.NS.CloseSocket(sock)
			if o := w.obs; o != nil {
				o.tr.Close(uint64(ref.ID()), w.lb.Eng.Now(), true)
			}
			w.lb.notifyReset(ref)
			return costs.Close
		}
		w.addConn(conn.Sock())
		if h := w.hook; h != nil {
			h.ConnOpened()
		}
		// Accept cost includes the dispatch overhead: O(#registered ports)
		// for shared-socket modes, O(#owned ports) for reuseport/Hermes
		// (§6.2 Case 1), the per-event Dispatch cost for the dispatcher core.
		return costs.Accept + w.lb.acceptExtra
	case kernel.EvReadable:
		work, ok := ev.Sock.PopData()
		if !ok {
			return costs.SpuriousWake
		}
		sock := ev.Sock
		// The completion fires after the cost elapses (and, in
		// ModeDispatcher, after the executor's queue); by then the
		// connection may have been reset (crash, shed) and its socket
		// recycled into a different connection, so capture a checked ref
		// now rather than re-reading sock.Conn() later.
		s := servState{active: true, owner: w, sock: sock, connRef: sock.Conn().Ref(), work: work}
		if w == w.lb.Dispatcher {
			// The dispatcher core only takes the request in; an executor
			// serves it.
			w.lb.leastLoaded().pushJob(s)
			return costs.Dispatch
		}
		s.serveStart = w.lb.Eng.Now()
		cost := work.Cost
		if w.backend != nil {
			// Forward to a backend (§7): a pool miss pays the cross-network
			// handshake before the request can proceed.
			b := w.backend.Pick()
			s.backendID, s.forwarded = b.ID, true
			if w.lb.Cfg.Upstream != nil && !w.lb.Cfg.Upstream.Acquire(w.ID, b.ID) {
				cost += costs.UpstreamHandshake
			}
		}
		w.serv = s
		return cost
	case kernel.EvHangup:
		w.closeConn(ev.Sock)
		return costs.Close
	default:
		return 0
	}
}

func (w *Worker) endLoop() {
	now := w.lb.Eng.Now()
	if w.BatchProcNS != nil && now > w.batchStart {
		w.BatchProcNS.Add(float64(now - w.batchStart))
	}

	var tail time.Duration
	if h := w.hook; h != nil && !w.lb.Cfg.ScheduleAtLoopStart {
		h.ScheduleAndSync(now)
		tail += w.lb.Cfg.Costs.Schedule
	}
	if p := w.lb.Cfg.Shed; p.Enabled {
		for len(w.conns) > p.ConnThreshold {
			w.ResetConns++
			w.resetConn(w.conns[len(w.conns)-1])
			tail += w.lb.Cfg.Costs.Close
		}
	}
	if w.lb.mutex != nil && w.lb.mutex.holder == w {
		w.releaseMutex()
		tail += w.lb.Cfg.Costs.MutexOp
	}
	w.beginWork(tail)
	w.after(tail, (*loopTail)(w))
}

// endLoopCont is the loop tail's continuation: bank the tail cost and
// re-enter the loop.
func (w *Worker) endLoopCont() {
	if !w.stalled((*loopTail)(w)) {
		w.loopEnter()
	}
}

func (w *Worker) addConn(s *kernel.Socket) {
	if w.lb.Cfg.EdgeTriggered {
		w.ep.AddET(s)
	} else {
		w.ep.Add(s)
	}
	s.SetOwner(int32(w.ID), int32(len(w.conns)))
	if len(w.conns) == cap(w.conns) {
		w.ConnTableGrows++
	}
	w.conns = append(w.conns, s)
}

func (w *Worker) removeConn(s *kernel.Socket) {
	tag, pos, ok := s.Owner()
	if !ok || tag != int32(w.ID) {
		return
	}
	i, last := int(pos), len(w.conns)-1
	w.conns[i] = w.conns[last]
	w.conns[i].SetOwner(int32(w.ID), int32(i))
	w.conns[last] = nil
	w.conns = w.conns[:last]
	s.ClearOwner()
}

// closeConn tears down a connection in response to protocol events
// (hangup or Connection: close).
func (w *Worker) closeConn(s *kernel.Socket) {
	if s.Closed() {
		return
	}
	w.removeConn(s)
	if h := w.hook; h != nil {
		h.ConnClosed()
	}
	w.lb.NS.CloseSocket(s)
	if o := w.obs; o != nil {
		if c := s.Conn(); c != nil {
			o.tr.Close(uint64(c.ID), w.lb.Eng.Now(), false)
		}
	}
}

// resetConn force-closes a connection (RST): pool exhaustion, shedding, or
// crash. The workload's reset callback fires so clients can reconnect.
func (w *Worker) resetConn(s *kernel.Socket) {
	if s.Closed() {
		return
	}
	// Capture the ref before CloseSocket recycles the pair: the ID is
	// intact until a later handshake reuses the object, which cannot
	// happen within this event.
	var ref kernel.ConnRef
	if c := s.Conn(); c != nil {
		ref = c.Ref()
	}
	w.removeConn(s)
	if h := w.hook; h != nil {
		h.ConnClosed()
	}
	w.lb.NS.CloseSocket(s)
	if o := w.obs; o != nil && ref.Get() != nil {
		o.tr.Close(uint64(ref.ID()), w.lb.Eng.Now(), true)
	}
	w.lb.notifyReset(ref)
}

// --- accept-mutex mode ---

type acceptMutex struct {
	holder *Worker
	next   int // rotation cursor for handoff kicks
}

func (w *Worker) tryAcquireMutex() {
	m := w.lb.mutex
	if m.holder != nil {
		return
	}
	m.holder = w
	w.busy(w.lb.Cfg.Costs.MutexOp)
	for _, ls := range w.listenSocks {
		w.ep.Add(ls)
	}
}

func (w *Worker) releaseMutex() {
	for _, ls := range w.listenSocks {
		w.ep.Del(ls)
	}
	m := w.lb.mutex
	m.holder = nil
	// Hand off: kick one sleeping worker so the mutex is contended again
	// immediately rather than after somebody's epoll timeout (nginx
	// workers retry on their own wakeups / accept_mutex_delay).
	ws := w.lb.Workers
	for i := 0; i < len(ws); i++ {
		cand := ws[(m.next+i)%len(ws)]
		if cand != w && !cand.crashed && cand.ep.Blocked() {
			m.next = (m.next + i + 1) % len(ws)
			cand.ep.Kick()
			return
		}
	}
}

// --- dispatcher-mode executor ---

// pushJob queues a serve the dispatcher core handed over and starts it if
// the executor is idle: no serve in flight and no step held by a hang.
func (w *Worker) pushJob(s servState) {
	if len(w.jobs) == cap(w.jobs) && w.jobHead > 0 {
		n := copy(w.jobs, w.jobs[w.jobHead:])
		clear(w.jobs[n:])
		w.jobs, w.jobHead = w.jobs[:n], 0
	}
	w.jobs = append(w.jobs, s)
	w.queuedCostNS += int64(s.work.Cost)
	if !w.contTimer.Pending() {
		w.runNextJob()
	}
}

// runNextJob moves the queue head into w.serv and charges its cost on the
// loop's one continuation timer; afterJob completes it. A hung executor holds
// its queue until the release.
func (w *Worker) runNextJob() {
	if w.crashed || w.jobHead == len(w.jobs) || w.stalled((*nextJob)(w)) {
		return
	}
	w.serv = w.jobs[w.jobHead]
	w.jobs[w.jobHead] = servState{}
	if w.jobHead++; w.jobHead == len(w.jobs) {
		w.jobs, w.jobHead = w.jobs[:0], 0
	}
	w.serv.serveStart = w.lb.Eng.Now()
	// queuedCostNS tracks the unscaled cost pushJob added, so the slow
	// multiplier applies only to the charge, not the queue accounting.
	cost := w.scaleCost(w.serv.work.Cost)
	w.beginWork(cost)
	w.after(cost, (*jobDone)(w))
}

func (w *Worker) afterJob() {
	if w.stalled((*jobDone)(w)) {
		return
	}
	w.queuedCostNS -= int64(w.serv.work.Cost)
	w.finishServe()
	w.runNextJob()
}
