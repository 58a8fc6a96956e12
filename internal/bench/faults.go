package bench

import (
	"fmt"
	"slices"
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
	Register(Experiment{Name: "faults", Cells: faultsCells, Tables: faultsTables,
		Desc: "blast radius & recovery, identical fault schedule, 3 modes"})
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
	series     []float64    // p99 per window slice, ms
	delayed    [3][2]uint64 // probes delayed, sent per phase
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
		row.delayed[i] = [2]uint64{p.DelayedCount(), p.Sent}
	}
	return row
}

func faultsTables(opts Options, results []any) []*stats.Table {
	// rows[scenario][mode], in faultsCells' order.
	rows := make([][]faultsRow, len(faultsScenarios))
	for i, r := range results {
		rows[i/len(Table3Modes)] = append(rows[i/len(Table3Modes)], r.(faultsRow))
	}
	var tables []*stats.Table
	for si, scen := range faultsScenarios {
		tb := stats.NewTable(
			fmt.Sprintf("Blast radius — %s scenario (identical schedule, all modes)", scen.name),
			stats.Col("mode"), stats.Col("completed"), stats.Col("resets"), stats.Col("SYN drops"),
			stats.Col("restarts"), stats.Col("detects"), stats.Col("affected"), stats.Fixed("blast conn-ms", 1),
			stats.Fixed("p99 base", 2), stats.Fixed("p99 fault", 2), stats.Fixed("p99 after", 2),
			stats.Fixed("recovery ms", 1))
		for mi, r := range rows[si] {
			tb.AddRow(Table3Modes[mi].String(), r.completed, r.resets, r.synDrops, r.restarts,
				r.detections, r.affected, r.blastMS, r.p99[0], r.p99[1], r.p99[2], r.recoverMS)
		}
		tables = append(tables, tb)
	}
	for _, scen := range faultsScenarios {
		tables[0].Lead("schedule[%s]: %s", scen.name, scen.schedule(opts))
	}

	pt := stats.NewTable("Hang scenario — delayed probes by phase (Fig. 11-style)",
		stats.Col("mode"), stats.Col("before"), stats.Col("during"), stats.Col("after"))
	st := stats.NewTable("", stats.Col("mode"),
		stats.Fixed("w0", 2), stats.Fixed("w1", 2), stats.Fixed("w2", 2), stats.Fixed("w3", 2), stats.Fixed("w4", 2),
		stats.Fixed("w5", 2), stats.Fixed("w6", 2), stats.Fixed("w7", 2), stats.Fixed("w8", 2), stats.Fixed("w9", 2))
	st.Title = stats.Textf("Hang scenario — p99 (ms) per %v window", opts.Window/5)
	hang := rows[1] // faultsScenarios[1]
	for mi, r := range hang {
		row := []any{Table3Modes[mi].String()}
		for _, d := range r.delayed {
			row = append(row, stats.Textf("%d/%d", d[0], d[1]))
		}
		pt.AddRow(row...)
		row = []any{Table3Modes[mi].String()}
		for _, p99 := range r.series[:min(10, len(r.series))] {
			row = append(row, p99)
		}
		st.AddRow(row...)
	}
	st.Note("hang blast radius: exclusive %.0f conn-ms vs hermes %.0f conn-ms "+
		"(§7: the watchdog converts a long hang into a fast restart; baselines stall the full hang)",
		hang[slices.Index(Table3Modes, l7lb.ModeExclusive)].blastMS, hang[slices.Index(Table3Modes, l7lb.ModeHermes)].blastMS)
	return append(tables, pt, st)
}
