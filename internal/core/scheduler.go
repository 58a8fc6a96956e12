package core

import (
	"hermes/internal/bitops"
	"hermes/internal/shm"
)

// FilterOrder selects the cascade order of Algorithm 1's three filters.
// The paper weighs stability over latency: hang detection first, then
// connection count (surge risk), then pending events (responsiveness)
// (§5.2.2 "Worker filtering order"). The alternative orders exist for the
// filter-order and single-winner ablations.
type FilterOrder uint8

// Cascade orders.
const (
	// OrderTimeConnEvent is the paper's order.
	OrderTimeConnEvent FilterOrder = iota
	// OrderTimeEventConn filters by pending events before connections.
	OrderTimeEventConn
	// OrderTimeOnly applies only hang detection (single-metric ablation).
	OrderTimeOnly
	// OrderSingleWinner keeps only the one least-loaded live worker: the
	// single-winner ablation. Publishing a single worker per sync is the
	// design §5.3.2 rejects — userspace updates far less often than
	// connections arrive, so the kernel funnels every new connection to that
	// worker until the next sync. Pair it with MinWorkers = 1 so the kernel
	// actually uses it.
	OrderSingleWinner
)

// ScheduleResult reports one scheduling pass, feeding the Fig. 14 pass-ratio
// and call-frequency measurements.
type ScheduleResult struct {
	// Bitmap has bit i set iff worker i passed every filter stage.
	Bitmap bitops.Bitmap64
	// Alive is how many workers survived the time filter.
	Alive int
	// Passed is the final selected count (== Bitmap.Count()).
	Passed int
	// Total is the table size.
	Total int
}

// Schedule runs Algorithm 1's cascading coarse-grained filter over a WST
// snapshot. It is a pure function of its arguments: no locks, no
// allocation, O(n) — the properties §5.3.2 requires so that every worker can
// afford to run it at the end of every event loop. The cascade follows order,
// not cfg.Order: the benchmark's per-layer rung calls Schedule with an
// explicit order, and the controller passes cfg.Order.
func Schedule(nowNS int64, metrics []shm.Metrics, cfg Config, order FilterOrder) ScheduleResult {
	res := ScheduleResult{Total: len(metrics)}
	if len(metrics) == 0 || len(metrics) > shm.GroupSize {
		return res
	}

	// Stage 1 — FilterTime: drop workers whose event loop has not turned
	// over within the hang threshold (Algorithm 1 lines 9-10).
	var alive bitops.Bitmap64
	thresh := int64(cfg.HangThreshold)
	for i, m := range metrics {
		if nowNS-m.LoopEnterNS < thresh {
			alive = alive.Set(i)
		}
	}
	res.Alive = alive.Count()
	if res.Alive == 0 {
		// Every worker looks hung: publish the empty set; the kernel will
		// fall back to reuseport hashing and the alert path takes over
		// (§5.3.2 "if all workers hang").
		return res
	}

	sel := alive
	switch order {
	case OrderTimeConnEvent:
		sel = filterCount(sel, metrics, cfg.ThetaFrac, byConn)
		sel = filterCount(sel, metrics, cfg.ThetaFrac, byBusy)
	case OrderTimeEventConn:
		sel = filterCount(sel, metrics, cfg.ThetaFrac, byBusy)
		sel = filterCount(sel, metrics, cfg.ThetaFrac, byConn)
	case OrderTimeOnly:
		// hang detection only
	case OrderSingleWinner:
		sel = leastLoaded(sel, metrics)
	}

	res.Bitmap = sel
	res.Passed = sel.Count()
	return res
}

// leastLoaded is the single-winner stage: of the non-empty set w, keep only
// the worker with the fewest connections, ties broken by pending events, then
// by index.
func leastLoaded(w bitops.Bitmap64, metrics []shm.Metrics) bitops.Bitmap64 {
	best := -1
	for i := range metrics {
		if !w.Has(i) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		if m, b := &metrics[i], &metrics[best]; m.Conn < b.Conn || m.Conn == b.Conn && m.Busy < b.Busy {
			best = i
		}
	}
	return bitops.Bitmap64(0).Set(best)
}

// countMetric selects the WST column a filterCount stage reads: a field
// selector, not a closure, so a stage is two plain loops.
type countMetric uint8

const (
	byConn countMetric = iota // live connections
	byBusy                    // pending events
)

func (c countMetric) of(m *shm.Metrics) int64 {
	if c == byBusy {
		return m.Busy
	}
	return m.Conn
}

// filterCount is Algorithm 1's FilterCount: keep workers whose metric is
// strictly below Avg + θ, with θ expressed as a fraction of the average
// (Fig. 15's θ/Avg axis) and the average taken over the current candidate
// set. The comparison is strict, as in the paper: with θ = 0 a uniformly
// loaded fleet selects nobody and the kernel falls back to reuseport
// hashing — exactly the too-few-workers pathology the offset exists to
// prevent. Unloaded workers (metric ≤ 0; negatives are transient torn
// reads) always pass.
func filterCount(w bitops.Bitmap64, metrics []shm.Metrics, thetaFrac float64, metric countMetric) bitops.Bitmap64 {
	n := w.Count()
	if n == 0 {
		return w
	}
	var sum int64
	for i := 0; i < len(metrics); i++ {
		if w.Has(i) {
			if v := metric.of(&metrics[i]); v > 0 {
				sum += v
			}
		}
	}
	avg := float64(sum) / float64(n)
	limit := avg * (1 + thetaFrac)

	var out bitops.Bitmap64
	for i := 0; i < len(metrics); i++ {
		if !w.Has(i) {
			continue
		}
		v := metric.of(&metrics[i])
		if v <= 0 || float64(v) < limit {
			out = out.Set(i)
		}
	}
	return out
}
