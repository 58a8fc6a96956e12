package bench

import (
	"fmt"
	"time"

	"hermes/internal/faults"
	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/probe"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

// The faults experiment measures blast radius and recovery under injected
// faults: the three production modes run the *identical* fault schedule
// (§7, Appendix C) over the same steady + churn workload, and the table
// compares how many connections each mode damages, for how long, and how
// fast it comes back. Two scenarios:
//
//   - crash: the most-loaded worker is killed (connections reset) and
//     restarted, with a slow worker and an accept-queue shrink layered
//     into the same fault window.
//   - hang: the most-loaded worker busy-spins for half a window. Hermes
//     modes run the WST watchdog with auto-restart — the recovery the
//     baselines structurally cannot have, since only Hermes exports the
//     loop-enter heartbeat — plus probe loss and a selmap sync stall
//     (stale-bitmap window with hash fallback armed).
//
// Each cell is an independent sim seeded from opts.Seed, so output is
// byte-identical at any -parallel setting.
func init() {
	Register(Experiment{
		Name:   "faults",
		Desc:   "blast radius & recovery, identical fault schedule, 3 modes",
		Cells:  faultsCells,
		Render: faultsRender,
	})
}

// faultsScenario is one fault script shared by every mode.
type faultsScenario struct {
	name     string
	schedule func(opts Options) faults.Schedule
	watchdog bool // arm WST watchdog + auto-restart (Hermes modes only)
}

// crashSchedule: kill + restart the most-loaded worker, then a 6× slow
// worker and an accept-queue shrink inside the same fault window.
func crashSchedule(opts Options) faults.Schedule {
	w := int64(opts.Window)
	return faults.Schedule{Events: []faults.Event{
		{Kind: faults.Crash, AtNS: w, Worker: -1, Drop: true, RestartNS: w / 4},
		{Kind: faults.Slow, AtNS: w + w/8, Worker: -1, Factor: 6, DurNS: w / 4},
		{Kind: faults.ShrinkQueue, AtNS: w + w/4, Worker: -1, Cap: 2, DurNS: w / 8},
	}}
}

// hangSchedule: busy-spin the most-loaded worker for half a window, drop a
// quarter of the probes at the same time, and stall selmap syncs during
// the baseline phase (exercising the stale-bitmap hash fallback).
func hangSchedule(opts Options) faults.Schedule {
	w := int64(opts.Window)
	return faults.Schedule{Events: []faults.Event{
		{Kind: faults.SyncStall, AtNS: w/2 + w/8, Worker: -1, DurNS: w / 8},
		{Kind: faults.Hang, AtNS: w, Worker: -1, DurNS: w / 2},
		{Kind: faults.ProbeLoss, AtNS: w, Worker: -1, Prob: 0.25, DurNS: w / 4},
	}}
}

var faultsScenarios = []faultsScenario{
	{name: "crash", schedule: crashSchedule},
	{name: "hang", schedule: hangSchedule, watchdog: true},
}

// faultsRow is one cell's result.
type faultsRow struct {
	completed  uint64
	resets     uint64
	synDrops   uint64
	restarts   uint64
	detections uint64
	affected   int
	blastMS    float64
	p99        [3]float64 // base / fault / after, ms
	recoverMS  float64
	series     []float64 // p99 per window slice, ms
	delayed    [3]string // probes delayed/sent per phase
	injected   uint64
}

// faultsTraffic drives the workload: a fixed population of long-lived
// connections each streaming paced requests, plus a churn of short-lived
// connections arriving throughout — the churn is what exposes dispatch to
// dead or hung workers (reuseport keeps hashing into the outage; Hermes
// filters the victim out of the bitmap).
type faultsTraffic struct {
	lb       *l7lb.LB
	port     uint16
	endNS    int64
	interReq time.Duration
	cost     workload.Dist

	synDrops uint64
}

func (tr *faultsTraffic) establish(n int, window time.Duration) {
	eng := tr.lb.Eng
	rng := eng.Rand()
	for i := 0; i < n; i++ {
		i := i
		at := eng.Now() + int64(float64(window)*float64(i)/float64(n))
		eng.At(at, func() {
			tuple := kernel.FourTuple{
				SrcIP: rng.Uint32(), SrcPort: uint16(1024 + i%30000),
				DstIP: 0x0a00_0001, DstPort: tr.port,
			}
			if conn, ok := tr.lb.NS.DeliverSYN(tuple, nil); ok {
				ref := conn.Ref()
				phase := time.Duration(rng.Float64() * float64(tr.interReq))
				eng.After(phase, func() { tr.stream(ref) })
			} else {
				tr.synDrops++
			}
		})
	}
}

// stream sends one request and reschedules until the connection dies or
// the traffic window closes.
func (tr *faultsTraffic) stream(ref kernel.ConnRef) {
	eng := tr.lb.Eng
	conn := ref.Get()
	if conn == nil || conn.Sock().Closed() || eng.Now() >= tr.endNS {
		return
	}
	rng := eng.Rand()
	tr.lb.Deliver(conn, l7lb.Work{
		ArrivalNS: eng.Now(),
		Cost:      time.Duration(tr.cost.Sample(rng)),
		Tenant:    tr.port,
	})
	gap := time.Duration(float64(tr.interReq) * (0.5 + rng.Float64()))
	eng.After(gap, func() { tr.stream(ref) })
}

// churn opens one short-lived connection every gap over [from, endNS),
// each sending reqs requests and closing.
func (tr *faultsTraffic) churn(from time.Duration, gap time.Duration, reqs int) {
	eng := tr.lb.Eng
	rng := eng.Rand()
	i := 0
	for at := int64(from); at < tr.endNS; at += int64(gap) {
		i++
		i := i
		eng.At(at, func() {
			tuple := kernel.FourTuple{
				SrcIP: rng.Uint32(), SrcPort: uint16(34000 + i%30000),
				DstIP: 0x0a00_0001, DstPort: tr.port,
			}
			conn, ok := tr.lb.NS.DeliverSYN(tuple, nil)
			if !ok {
				tr.synDrops++
				return
			}
			tr.churnReqs(conn.Ref(), reqs)
		})
	}
}

func (tr *faultsTraffic) churnReqs(ref kernel.ConnRef, remaining int) {
	eng := tr.lb.Eng
	conn := ref.Get()
	if remaining == 0 || conn == nil || conn.Sock().Closed() {
		return
	}
	rng := eng.Rand()
	tr.lb.Deliver(conn, l7lb.Work{
		ArrivalNS: eng.Now(),
		Cost:      time.Duration(tr.cost.Sample(rng)),
		Close:     remaining == 1,
		Tenant:    tr.port,
	})
	eng.After(tr.interReq/4, func() { tr.churnReqs(ref, remaining-1) })
}

func faultsCells(opts Options) []Cell {
	cells := make([]Cell, 0, len(faultsScenarios)*len(Table3Modes))
	for _, scen := range faultsScenarios {
		for _, mode := range Table3Modes {
			cells = append(cells, Cell{
				Name: scen.name + "/" + mode.String(),
				Run:  func() any { return runFaultsCell(opts, scen, mode) },
			})
		}
	}
	return cells
}

func runFaultsCell(opts Options, scen faultsScenario, mode l7lb.Mode) faultsRow {
	var (
		w          = opts.Window
		t1         = int64(w)        // fault instant
		faultEnd   = t1 + int64(w)/2 // end of the fault window
		trafficEnd = faultEnd + int64(w)
		threshNS   = int64(w) / 100 // "degraded" latency bound
		sliceNS    = int64(w) / 5   // recovery-series resolution
		baseStart  = int64(w) / 2
	)
	cfg := lbConfig(mode, opts.Workers, tenantPorts(1))
	cfg.RegisteredPorts = opts.RegisteredPorts
	lb := opts.newLB(scen.name+"/"+mode.String(), opts.Seed, cfg)
	eng := lb.Eng

	var row faultsRow
	// Latency accounting, attributed to phases by request *arrival* so a
	// request stalled behind a hang is charged to the fault window it
	// arrived in, however late it completes.
	var phases [3]stats.Sample
	slices := make([]stats.Sample, (trafficEnd-baseStart)/sliceNS)
	affected := map[kernel.ConnID]struct{}{}
	lastDegradedNS := int64(-1)
	lb.OnResponse = func(conn kernel.ConnRef, work l7lb.Work) {
		if work.Probe {
			return
		}
		row.completed++
		latNS := eng.Now() - work.ArrivalNS
		switch at := work.ArrivalNS; {
		case at >= baseStart && at < t1:
			phases[0].AddDuration(latNS)
		case at >= t1 && at < faultEnd:
			phases[1].AddDuration(latNS)
		case at >= faultEnd && at < trafficEnd:
			phases[2].AddDuration(latNS)
		}
		if s := (work.ArrivalNS - baseStart) / sliceNS; s >= 0 && s < int64(len(slices)) {
			slices[s].AddDuration(latNS)
		}
		if work.ArrivalNS >= t1 && latNS > threshNS {
			affected[conn.ID()] = struct{}{}
			row.blastMS += float64(latNS-threshNS) / 1e6
			if work.ArrivalNS > lastDegradedNS {
				lastDegradedNS = work.ArrivalNS
			}
		}
	}
	lb.OnConnReset = func(conn kernel.ConnRef) {
		row.resets++
		affected[conn.ID()] = struct{}{}
	}
	lb.Start()

	tr := &faultsTraffic{
		lb: lb, port: cfg.Ports[0], endNS: trafficEnd,
		interReq: w / 125,
		cost:     workload.Exp{MeanVal: 25_000},
	}
	nSteady := int(800 * opts.RateScale)
	if nSteady < 48 {
		nSteady = 48
	}
	tr.establish(nSteady, w/2)
	tr.churn(w/2, w/250, 3)

	inj := faults.NewInjector(lb, scen.schedule(opts), opts.Seed)
	inj.StaleFallback = w / 16
	inj.Observe(lb.Cfg.Telemetry, lb.Cfg.Tracer)
	inj.Start()

	var dog *faults.Watchdog
	if scen.watchdog {
		// NewWatchdog returns nil for the baselines (no WST to scan) —
		// exactly the recovery gap this experiment quantifies.
		if dog = faults.NewWatchdog(lb, w/100); dog != nil {
			dog.AutoRestart = true
			dog.RestartDelay = w / 50
			dog.Observe(lb.Cfg.Telemetry, lb.Cfg.Tracer)
			dog.Start(time.Duration(trafficEnd))
		}
	}

	// One prober per phase: before / during / after the fault window
	// (Fig. 11-style, with the delay driven by the injected hang).
	probers := [3]*probe.WorkerProber{}
	spans := [3][2]int64{{baseStart, t1}, {t1, faultEnd}, {faultEnd, trafficEnd}}
	for i := range probers {
		i := i
		p := probe.NewWorkerProber(lb, cfg.Ports[0], w/100)
		inj.AttachProber(p)
		probers[i] = p
		eng.At(spans[i][0], func() { p.Run(time.Duration(spans[i][1] - spans[i][0])) })
	}

	eng.RunUntil(trafficEnd + int64(opts.Drain))

	row.synDrops = tr.synDrops
	row.injected = inj.Injected
	row.restarts = inj.Restarts
	if dog != nil {
		row.detections = dog.Detections
		row.restarts += dog.Restarts
	}
	row.affected = len(affected)
	for i := range phases {
		row.p99[i] = phases[i].Percentile(99)
	}
	if lastDegradedNS >= 0 {
		row.recoverMS = float64(lastDegradedNS-t1) / 1e6
	}
	row.series = make([]float64, len(slices))
	for i := range slices {
		row.series[i] = slices[i].Percentile(99)
	}
	for i, p := range probers {
		row.delayed[i] = fmt.Sprintf("%d/%d", p.DelayedCount(), p.Sent)
	}
	return row
}

func faultsRender(opts Options, results []any) string {
	var out string
	rows := map[string]faultsRow{}
	i := 0
	for _, scen := range faultsScenarios {
		for _, mode := range Table3Modes {
			rows[scen.name+"/"+mode.String()] = results[i].(faultsRow)
			i++
		}
	}
	for _, scen := range faultsScenarios {
		out += fmt.Sprintf("schedule[%s]: %s\n", scen.name, scen.schedule(opts).String())
	}
	for _, scen := range faultsScenarios {
		tb := stats.NewTable(
			fmt.Sprintf("Blast radius — %s scenario (identical schedule, all modes)", scen.name),
			"mode", "completed", "resets", "SYN drops", "restarts", "detects",
			"affected", "blast conn-ms", "p99 base", "p99 fault", "p99 after", "recovery ms")
		for _, mode := range Table3Modes {
			r := rows[scen.name+"/"+mode.String()]
			tb.AddRow(mode.String(), r.completed, r.resets, r.synDrops, r.restarts,
				r.detections, r.affected, fmt.Sprintf("%.1f", r.blastMS),
				fmt.Sprintf("%.2f", r.p99[0]), fmt.Sprintf("%.2f", r.p99[1]),
				fmt.Sprintf("%.2f", r.p99[2]), fmt.Sprintf("%.1f", r.recoverMS))
		}
		out += tb.Render()
	}

	pt := stats.NewTable("Hang scenario — delayed probes by phase (Fig. 11-style)",
		"mode", "before", "during", "after")
	for _, mode := range Table3Modes {
		r := rows["hang/"+mode.String()]
		pt.AddRow(mode.String(), r.delayed[0], r.delayed[1], r.delayed[2])
	}
	out += pt.Render()

	st := stats.NewTable(fmt.Sprintf("Hang scenario — p99 (ms) per %v window", opts.Window/5),
		"mode", "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9")
	for _, mode := range Table3Modes {
		r := rows["hang/"+mode.String()]
		vals := make([]any, 0, 11)
		vals = append(vals, mode.String())
		for i := 0; i < 10 && i < len(r.series); i++ {
			vals = append(vals, fmt.Sprintf("%.2f", r.series[i]))
		}
		st.AddRow(vals...)
	}
	out += st.Render()

	excl := rows["hang/"+l7lb.ModeExclusive.String()]
	herm := rows["hang/"+l7lb.ModeHermes.String()]
	out += fmt.Sprintf("hang blast radius: exclusive %.0f conn-ms vs hermes %.0f conn-ms "+
		"(§7: the watchdog converts a long hang into a fast restart; baselines stall the full hang)\n",
		excl.blastMS, herm.blastMS)
	return out
}
