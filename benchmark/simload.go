package main

// simload.go: the two simulator workloads. sim-churn spends everything on
// connection set-up and steering; sim-table3 uses the same kernel, l7lb and
// sim layers for long-lived connections with real processing times, where
// steering runs once per connection and in a third of the cells only.

import (
	"fmt"
	"time"
)

// sizeScale shrinks every fixed amount of work (cell sizes, virtual windows,
// warm-ups, rung iterations). The self-test sets it; users never do.
var sizeScale = 1.0

func scaled(n, min int) int {
	if v := int(float64(n) * sizeScale); v > min {
		return v
	}
	return min
}

const setupRepeats = 5 // setup_s is the median of this many full set-ups

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	notes     []string           // human-readable: slice spreads, sample counts, failed checks
}

func (r *result) notef(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// fail records a failed correctness check; the command then exits non-zero.
func (r *result) fail(format string, a ...any) {
	r.Correct = false
	r.notef("CHECK FAILED: "+format, a...)
}

type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
}

// phase is one measured stretch of rounds. Every round does the same work,
// cell by cell, so a cell's host time can be compared across rounds.
type phase struct {
	ops        uint64
	mallocs    uint64
	roundOpsS  []float64   // ops per host second, one value per round
	roundWalls []float64   // host seconds inside the program, one value per round
	cellWalls  [][]float64 // the same per cell: [cell][round]
	cellCPU    [][]float64 // process CPU seconds per cell: [cell][round]
}

// cellCost is what one cell of a round cost the host.
type cellCost struct{ wallS, cpuS float64 }

// sumOfMedians adds each cell's median across rounds: a round's cost with
// whatever a noisy neighbour's burst added to single cells left out.
func sumOfMedians(cells [][]float64) (s float64) {
	for _, c := range cells {
		s += median(c)
	}
	return s
}

func (p phase) opsPerRound() float64 { return float64(p.ops) / float64(len(p.roundWalls)) }

// opsPerSecond is the phase's throughput and cpuUSPerOp its CPU cost, both
// from per-cell medians.
func (p phase) opsPerSecond() float64 { return p.opsPerRound() / sumOfMedians(p.cellWalls) }
func (p phase) cpuUSPerOp() float64   { return sumOfMedians(p.cellCPU) * 1e6 / p.opsPerRound() }

// runRounds repeats round until about seconds have passed (a further round
// starts only if more than half of it fits) and meters the whole stretch.
// round returns its op count and what each of its cells cost.
func runRounds(seconds float64, round func() (ops uint64, cells []cellCost, err error)) (phase, error) {
	var p phase
	m0 := readMeter()
	for {
		t := time.Now()
		ops, cells, err := round()
		if err != nil {
			return p, err
		}
		if p.cellWalls == nil {
			p.cellWalls, p.cellCPU = make([][]float64, len(cells)), make([][]float64, len(cells))
		}
		var wall float64
		for i, c := range cells {
			p.cellWalls[i] = append(p.cellWalls[i], c.wallS)
			p.cellCPU[i] = append(p.cellCPU[i], c.cpuS)
			wall += c.wallS
		}
		p.ops += ops
		p.roundWalls = append(p.roundWalls, wall)
		p.roundOpsS = append(p.roundOpsS, float64(ops)/wall)
		if time.Since(m0.t).Seconds() >= seconds-time.Since(t).Seconds()/2 {
			break
		}
	}
	p.mallocs = readMeter().mallocs - m0.mallocs
	return p, nil
}

// hostMetrics fills the end-to-end metrics every workload measures the same way.
func (r *result) hostMetrics(setups []float64, p phase) {
	r.Metrics["setup_s"] = median(setups)
	r.Metrics["throughput_ops_s"] = p.opsPerSecond()
	r.Metrics["cpu_us_per_op"] = p.cpuUSPerOp()
	r.Metrics["allocs_per_op"] = float64(p.mallocs) / float64(p.ops)
	r.Metrics["peak_rss_mb"] = peakRSSMiB()
	r.notef("throughput_ops_s: per-cell medians over %d rounds, round spread %.3f", len(p.roundOpsS), spread(p.roundOpsS))
}

// finishTrace adds what every traced run ends with: the CPU-profile fold, the
// failure share, and the span file.
func (r *result) finishTrace(shares map[string]float64, rec *recorder, seed int64) {
	for _, l := range foldLayers {
		r.Metrics[l+".cpu_share"] = shares[l]
	}
	r.Metrics["failed_share"] = float64(r.Failed) / float64(r.Attempted)
	writeTrace(r, rec, seed)
}

// sumKey, maxKey and meanKey read one exported count across the cells of a run.
func sumKey(cells []map[string]float64, key string) (s float64) {
	for _, c := range cells {
		s += c[key]
	}
	return s
}

func maxKey(cells []map[string]float64, key string) (m float64) {
	for _, c := range cells {
		if c[key] > m {
			m = c[key]
		}
	}
	return m
}

func meanKey(cells []map[string]float64, key string) float64 {
	var vals []float64
	for _, c := range cells {
		if v, ok := c[key]; ok {
			vals = append(vals, v)
		}
	}
	return mean(vals)
}

// kernelCounts derives the kernel, core and ebpf ratios both simulator
// workloads read from the registries handed to their traced cells.
func kernelCounts(m map[string]float64, cells []map[string]float64, ops float64) {
	enq, drop := sumKey(cells, "kernel.accept_queue.enqueued"), sumKey(cells, "kernel.accept_queue.dropped")
	m["kernel.accept_drop_share"] = ratio(drop, enq+drop)
	m["kernel.spurious_wake_share"] = ratio(sumKey(cells, "kernel.epoll.spurious_wakeups"), sumKey(cells, "kernel.epoll.wakeups"))
	m["kernel.accept_queue_depth_peak"] = maxKey(cells, "kernel.accept_queue.depth_peak.max")
	rec := sumKey(cells, "core.schedule.recomputes")
	m["core.recomputes_per_op"] = ratio(rec, ops)
	m["core.syncs_per_recompute"] = ratio(sumKey(cells, "core.schedule.syncs"), rec)
	m["core.empty_set_share"] = ratio(sumKey(cells, "core.schedule.empty_sets"), rec)
	hits, fall := sumKey(cells, "kernel.reuseport.prog_hits"), sumKey(cells, "kernel.reuseport.fallbacks")
	m["ebpf.fallback_share"] = ratio(fall, hits+fall)
	m["l7lb.accept_wait_p99_us"] = meanKey(cells, "l7lb.accept_wait_ns.p99") / 1e3
}

// --- sim-churn ---

var churnFleets = []int{64, 256} // single core.Controller, then core.GroupedController

// churnRound runs one cell per fleet and checks each. ref holds the first
// round's per-worker accept vectors: every later same-seed cell must repeat
// them exactly.
type churnRun struct {
	r     *result
	seed  int64
	conns int
	ref   [][]uint64
	lat   [][2]float64 // per fleet: virtual p50, p99 of the reference round
	imb   []float64    // per fleet: stddev/mean of accepted connections
	cells []churnOut
}

func (c *churnRun) round(hermes, observe, tracer bool, rec *recorder) (uint64, []cellCost, error) {
	var cells []cellCost
	for fi, fleet := range churnFleets {
		first := hermes && len(c.ref) == fi
		cpu0 := cpuSeconds()
		out, err := runChurnCell(churnSpec{
			workers: fleet, conns: c.conns, hermes: hermes, seed: c.seed + int64(fi),
			observe: observe, tracer: tracer, wantLatency: first,
		}, rec, 0)
		if err != nil {
			return 0, nil, err
		}
		cells = append(cells, cellCost{out.newS + out.runS, cpuSeconds() - cpu0})
		c.r.Attempted += uint64(c.conns)
		if out.established != uint64(c.conns) || out.completed != uint64(c.conns) || out.drops != 0 {
			c.r.fail("%dw cell: %d established, %d completed, %d dropped of %d connections",
				fleet, out.established, out.completed, out.drops, c.conns)
			c.r.Failed += uint64(c.conns) - min(out.completed, uint64(c.conns))
		}
		if out.grows != 0 {
			c.r.fail("%dw cell: connection tables regrew %d times", fleet, out.grows)
		}
		if hermes {
			if first {
				c.ref = append(c.ref, out.accepted)
				c.lat = append(c.lat, [2]float64{out.p50us, out.p99us})
				acc := make([]float64, len(out.accepted))
				for i, a := range out.accepted {
					acc[i] = float64(a)
				}
				c.imb = append(c.imb, cv(acc))
			} else if !equalU64(c.ref[fi], out.accepted) {
				c.r.fail("%dw cell: per-worker accept vector differs from the first same-seed cell", fleet)
			}
			c.cells = append(c.cells, out)
		}
	}
	return uint64(2 * c.conns), cells, nil
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runSimChurn(o runOpts) (*result, error) {
	r := &result{Workload: "sim-churn", Trace: o.trace, Correct: true, Metrics: map[string]float64{}}
	c := &churnRun{r: r, seed: o.seed, conns: scaled(500_000, 2000)}

	// Set-up: build both fleets and push a fixed warm-up through each. Every
	// cell builds a fresh LB, so this is what a user pays before the first op.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		warm := &churnRun{r: r, seed: o.seed, conns: scaled(100_000, 1000)}
		t := time.Now()
		if _, _, err := warm.round(true, false, false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.Attempted, r.Failed = 0, 0 // warm-up operations are checked but not counted

	plain := func() (uint64, []cellCost, error) { return c.round(true, false, false, nil) }
	if !o.trace {
		p, err := runRounds(o.seconds, plain)
		if err != nil {
			return nil, err
		}
		r.hostMetrics(setups, p)
		r.Metrics["p50_us"] = (c.lat[0][0] + c.lat[1][0]) / 2
		return r, nil
	}

	m := r.Metrics
	base, err := runRounds(o.seconds/2, plain)
	if err != nil {
		return nil, err
	}
	plainCells := len(c.cells)
	rec := newRecorder()
	var traced phase
	shares, err := profileCPU(func() {
		traced, err = runRounds(o.seconds/2, func() (uint64, []cellCost, error) { return c.round(true, false, false, rec) })
	})
	if err != nil {
		return nil, err
	}
	tracedCells := len(c.cells)
	var events float64
	for _, cell := range c.cells[plainCells:] {
		events += float64(cell.events)
	}
	m["sim.events_per_op"] = events / float64(traced.ops)
	m["kernel.deliver_syn_self_ns"] = median(rec.durationsUS("kernel.DeliverSYN")) * 1e3
	m["kernel.deliver_data_self_ns"] = median(rec.durationsUS("kernel.DeliverData")) * 1e3
	m["l7lb.cell_wall_s.hermes"] = median(base.roundWalls) / 2
	m["trace.overhead_ratio"] = base.opsPerSecond() / traced.opsPerSecond()

	// Two reuseport rounds: the same cells without Algorithm 1 and 2.
	var reuseWall float64
	for i := 0; i < 2; i++ {
		_, cells, err := c.round(false, false, false, nil)
		if err != nil {
			return nil, err
		}
		reuseWall += (cells[0].wallS + cells[1].wallS) / 2
	}
	m["l7lb.cell_wall_s.reuseport"] = reuseWall / 2
	m["core.steer_overhead_ratio"] = median(base.roundWalls) / reuseWall

	// Observed rounds: a live Registry as the LB's sink and a 1-in-64 flight
	// recorder. They supply the counts, and their throughput against the
	// plain rounds is ROADMAP item 5's telemetry budget.
	observed, err := runRounds(o.seconds/8, func() (uint64, []cellCost, error) { return c.round(true, true, true, nil) })
	if err != nil {
		return nil, err
	}
	m["telemetry.overhead_ratio"] = observed.opsPerSecond() / base.opsPerSecond()
	var counts []map[string]float64
	for _, cell := range c.cells[tracedCells:] {
		counts = append(counts, cell.counts)
	}
	kernelCounts(m, counts, float64(observed.ops))
	var newS float64
	for _, cell := range c.cells {
		newS += cell.newS
		m["l7lb.conn_table_grows"] += float64(cell.grows)
	}
	m["l7lb.new_s"] = newS / float64(len(c.cells))

	m["sim_imbalance"] = mean(c.imb)
	m["client.p99_us"] = (c.lat[0][1] + c.lat[1][1]) / 2
	r.notef("trace: %d spans; engine.RunUntil median %.1f ms per cell", len(rec.spans), median(rec.durationsUS("engine.RunUntil"))/1e3)
	r.finishTrace(shares, rec, o.seed)
	return r, nil
}

// --- sim-table3 ---

// table3Windows are the virtual windows per case. Cases 2 and 4 cost a tenth
// of cases 1 and 3 per virtual second and their hermes P99 is set by rare
// long requests, so they run longer: sized so every case's P99 repeats across
// seeds. table3Scales are the connection-rate multipliers on the 32-worker
// specs for 16 workers: Table 3's medium level (0.5 × 2), except case 4 at
// 0.75 — at 1.0 it offers 16.1 cores of work to 16 workers and its latency
// measures the window's length, not the load balancer.
var (
	table3Windows = []time.Duration{time.Second, 24 * time.Second, time.Second, 12 * time.Second}
	table3Scales  = []float64{1, 1, 1, 0.75}
	table3Names   = []string{"exclusive", "reuseport", "hermes"}
)

type table3Run struct {
	r      *result
	seed   int64
	shrink float64 // window multiplier (warm-up rounds are short)
	ref    []table3Out
	cells  []table3Out // every cell of every round, in (case, mode) order
}

func (t *table3Run) round(observe bool, rec *recorder) (uint64, []cellCost, error) {
	var ops uint64
	var cells []cellCost
	for ci := range table3Windows {
		for mi := range table3Names {
			window := time.Duration(float64(table3Windows[ci]) * t.shrink * sizeScale)
			if window < 20*time.Millisecond {
				window = 20 * time.Millisecond
			}
			s0, cpu0 := rec.now(), cpuSeconds()
			out, err := runTable3Cell(table3Spec{
				caseIdx: ci, mode: mi, seed: t.seed*1000 + int64(ci*10+mi),
				window: window, scale: table3Scales[ci], observe: observe,
			})
			if err != nil {
				return 0, nil, err
			}
			rec.put(rec.reserve(), "bench.Run", 0, uint64(ci*10+mi), s0, rec.now())
			ops += out.completed
			cells = append(cells, cellCost{out.wallS, cpuSeconds() - cpu0})
			t.r.Attempted += out.sent
			if out.sent != out.completed {
				t.r.fail("case%d/%s: %d of %d requests never completed", ci+1, table3Names[mi], out.sent-out.completed, out.sent)
				t.r.Failed += out.sent - out.completed
			}
			k := ci*len(table3Names) + mi
			if len(t.ref) <= k {
				t.ref = append(t.ref, out)
			} else if ref := t.ref[k]; ref.avgUS != out.avgUS || ref.p99us != out.p99us || ref.thrK != out.thrK || ref.completed != out.completed {
				t.r.fail("case%d/%s: (avg, p99, throughput) digest differs from the first same-seed cell", ci+1, table3Names[mi])
			}
			t.cells = append(t.cells, out)
		}
	}
	return ops, cells, nil
}

func runSimTable3(o runOpts) (*result, error) {
	r := &result{Workload: "sim-table3", Trace: o.trace, Correct: true, Metrics: map[string]float64{}}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		warm := &table3Run{r: r, seed: o.seed, shrink: 0.02}
		t := time.Now()
		if _, _, err := warm.round(false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.Attempted, r.Failed = 0, 0

	t3 := &table3Run{r: r, seed: o.seed, shrink: 1}
	plain := func() (uint64, []cellCost, error) { return t3.round(false, nil) }
	hermes := func(ci int) table3Out { return t3.ref[ci*len(table3Names)+2] }
	if !o.trace {
		p, err := runRounds(o.seconds, plain)
		if err != nil {
			return nil, err
		}
		r.hostMetrics(setups, p)
		var p50 []float64
		for ci := range table3Windows {
			p50 = append(p50, hermes(ci).p50us)
		}
		r.Metrics["p50_us"] = geomean(p50)
		return r, nil
	}

	m := r.Metrics
	base, err := runRounds(o.seconds/2, plain)
	if err != nil {
		return nil, err
	}
	plainCells := len(t3.cells)
	rec := newRecorder()
	var traced phase
	shares, err := profileCPU(func() {
		traced, err = runRounds(o.seconds/2, func() (uint64, []cellCost, error) { return t3.round(false, rec) })
	})
	if err != nil {
		return nil, err
	}
	tracedCells := len(t3.cells)
	var events float64
	for _, cell := range t3.cells[plainCells:] {
		events += float64(cell.events)
	}
	m["sim.events_per_op"] = events / float64(traced.ops)
	m["trace.overhead_ratio"] = base.opsPerSecond() / traced.opsPerSecond()

	// One observed round, a live Registry as every LB's sink, supplies the counts.
	ops, _, err := t3.round(true, nil)
	if err != nil {
		return nil, err
	}
	var counts []map[string]float64
	for _, cell := range t3.cells[tracedCells:] {
		counts = append(counts, cell.counts)
	}
	kernelCounts(m, counts, float64(ops))
	var hermesCounts []map[string]float64
	for i := 2; i < len(counts); i += len(table3Names) {
		hermesCounts = append(hermesCounts, counts[i])
	}
	m["l7lb.accept_wait_p99_us"] = meanKey(hermesCounts, "l7lb.accept_wait_ns.p99") / 1e3
	rounds := float64(plainCells / len(t3.ref))
	for i, cell := range t3.cells[:plainCells] {
		m["l7lb.cell_wall_s."+table3Names[i%len(table3Names)]] += cell.wallS / rounds
	}
	for _, cell := range t3.cells {
		m["l7lb.conn_table_grows"] += float64(cell.grows)
	}
	var p99 []float64
	for ci := range table3Windows {
		m[fmt.Sprintf("l7lb.p99_ratio_vs_reuseport.case%d", ci+1)] = hermes(ci).p99us / t3.ref[ci*len(table3Names)+1].p99us
		m["sim_goodput_krps"] += hermes(ci).goodK
		p99 = append(p99, hermes(ci).p99us)
	}
	m["client.p99_us"] = geomean(p99)
	r.notef("trace: %d bench.Run spans, median %.1f ms", len(rec.spans), median(rec.durationsUS("bench.Run"))/1e3)
	r.finishTrace(shares, rec, o.seed)
	return r, nil
}
