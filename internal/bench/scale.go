package bench

import (
	"fmt"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/stats"
)

// The scale experiment proves the allocation-free kernel fast path at the
// connection counts the paper's production fleet sees: it sweeps up to
// O(1M) connections per cell across a single-controller fleet (64 workers)
// and a grouped-controller fleet (256 workers, §7 two-level deployment) in
// the three production dispatch modes. Each connection runs the full
// lifecycle — SYN → steer → accept-queue → epoll wake → serve → close —
// through the pooled Conn/watch fast path, so cell cost is dominated by the
// per-connection constant factor PR 5 removed.
//
// Everything tabulated derives from virtual time and simulation counters
// and is byte-identical at any -parallel; host wall-clock appears only
// inside `wall X.Xs` tokens on the per-cell timing lines, the same pattern
// the per-experiment headers use (normalized away by the CI smoke's sed).

// scaleFleets are the worker fleet sizes: 64 exercises the single bitmap
// controller at its widest, 256 the grouped two-level controller (§7).
var scaleFleets = []int{64, 256}

// scaleTiers are connection counts per second of measurement window; at the
// default 1s window the top tier is the O(1M) target.
var scaleTiers = []int{10_000, 100_000, 1_000_000}

type scaleCell struct {
	fleet, conns int
	mode         l7lb.Mode

	established uint64
	completed   uint64
	drops       uint64 // SYN-time rejections (accept-queue overflow)
	imbalance   float64
	wallS       float64
	tableGrows  uint64 // sum of per-worker conn-table regrowths (want 0)
}

func init() {
	Register(Experiment{Name: "scale", Cells: scaleCells, Tables: scaleTables,
		Desc: "O(1M)-connection lifecycle sweep over large fleets (zero-alloc fast path)"})
}

// scaleConns converts a per-second tier into this run's connection count.
func scaleConns(tier int, window time.Duration) int {
	n := int(float64(tier) * window.Seconds())
	if n < 100 {
		n = 100
	}
	return n
}

func scaleCellName(fleet, conns int, mode l7lb.Mode) string {
	return fmt.Sprintf("%dw-%s-%s", fleet, formatConns(conns), mode)
}

// formatConns renders 1_000_000 as "1M", 10_000 as "10k".
func formatConns(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%dk", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func scaleCells(o Options) []Cell {
	var cells []Cell
	for fi, fleet := range scaleFleets {
		for ti, tier := range scaleTiers {
			for mi, mode := range Table3Modes {
				conns := scaleConns(tier, o.Window)
				seed := o.Seed + int64(fi*100+ti*10+mi)
				cells = append(cells, Cell{Name: scaleCellName(fleet, conns, mode), Run: func() any {
					return runScaleCell(o, fleet, conns, mode, seed)
				}})
			}
		}
	}
	return cells
}

// runScaleCell drives `conns` full connection lifecycles through one LB:
// open-loop fixed-interval arrivals spread over the window, one fixed-cost
// request per connection, close on response. The driver keeps exactly one
// scheduled arrival event outstanding, so steady-state allocation is the
// kernel fast path's — which is to say zero.
func runScaleCell(o Options, fleet, conns int, mode l7lb.Mode, seed int64) scaleCell {
	start := time.Now()
	cfg := lbConfig(mode, fleet, []uint16{8080})
	// Reserve the latency sample for every planned connection. Each lives
	// ~µs of virtual time, so a worker's default connection table holds
	// every one open at once and never regrows — pinned by
	// TestScaleCellConnTableNeverRegrows.
	cfg.ConnsPerWorkerHint = conns/fleet + 1
	lb := o.newLB(scaleCellName(fleet, conns, mode), seed, cfg)
	eng := lb.Eng
	lb.Start()

	// Fixed-interval arrivals and a fixed per-request cost: no RNG touches
	// the schedule, so per-worker accept counts — the imbalance column —
	// are a pure function of the dispatch mode.
	interval := int64(o.Window) / int64(conns)
	if interval < 1 {
		interval = 1
	}
	const reqCost = time.Microsecond
	res := scaleCell{fleet: fleet, conns: conns, mode: mode}
	i := 0
	var arrive func()
	arrive = func() {
		// Golden-ratio multiplicative hashing spreads the synthetic
		// 4-tuples across the steering hash space.
		tuple := kernel.FourTuple{
			SrcIP:   uint32(i)*0x9E3779B1 + uint32(seed),
			SrcPort: uint16(1024 + i%60000),
			DstIP:   0x0a00_0001,
			DstPort: 8080,
		}
		if conn, ok := lb.NS.DeliverSYN(tuple, nil); ok {
			lb.Deliver(conn, l7lb.Work{
				ArrivalNS: eng.Now(), Cost: reqCost, Close: true, Tenant: 8080,
			})
		} else {
			res.drops++
		}
		i++
		if i < conns {
			eng.At(int64(i)*interval, arrive)
		}
	}
	eng.At(0, arrive)
	eng.RunUntil(int64(o.Window) + int64(o.Drain))

	res.established = lb.NS.ConnsEstablished
	res.completed = lb.Completed
	accepted := make([]float64, len(lb.Workers))
	for wi, w := range lb.Workers {
		accepted[wi] = float64(w.Accepted)
		res.tableGrows += w.ConnTableGrows
	}
	mean, sd := stats.MeanStddev(accepted)
	if mean > 0 {
		res.imbalance = sd / mean
	}
	res.wallS = time.Since(start).Seconds()
	return res
}

func scaleTables(o Options, results []any) []*stats.Table {
	tb := stats.NewTable("Scale — full connection lifecycles through the pooled fast path",
		stats.Col("fleet"), stats.Col("conns"), stats.Col("mode"), stats.Col("established"), stats.Col("completed"),
		stats.Col("drops"), stats.Fixed("imbalance", 3), stats.Fixed("kconns/s (sim)", 1))
	// ratio is plain reuseport's wall-clock over this cell's for the same
	// fleet×conns — hermes cells near 1.00x mean the control loop (bytecode
	// dispatch + Algorithm 1) costs roughly nothing over stateless hashing at
	// that scale.
	base := make(map[[2]int]float64)
	for _, r := range results {
		c := r.(scaleCell)
		tb.AddRow(stats.Textf("%dw", c.fleet), formatConns(c.conns), c.mode.String(), c.established, c.completed,
			c.drops, c.imbalance, float64(c.completed)/o.Window.Seconds()/1000)
		if c.mode == l7lb.ModeReuseport {
			base[[2]int{c.fleet, c.conns}] = c.wallS
		}
	}
	tb.Note("imbalance = stddev/mean of per-worker accepted connections; kconns/s is virtual-time throughput")
	// Host-side timing: each line's varying tokens match `wall X.Xs` and
	// `ratio X.XXx`, so the standard normalization leaves the section
	// byte-identical at any -parallel setting.
	for _, r := range results {
		c := r.(scaleCell)
		name := scaleCellName(c.fleet, c.conns, c.mode)
		if b := base[[2]int{c.fleet, c.conns}]; b > 0 && c.wallS > 0 {
			tb.Note("  %s: wall %.1fs ratio %.2fx", name, c.wallS, b/c.wallS)
		} else {
			tb.Note("  %s: wall %.1fs", name, c.wallS)
		}
	}
	return []*stats.Table{tb}
}
