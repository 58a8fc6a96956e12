package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hermes/internal/openmetrics"
	"hermes/internal/proxy"
	"hermes/internal/stats"
	"hermes/internal/telemetry"
)

// runTop is `hermesctl top`: a live terminal dashboard for a running
// hermes-lb, built on the admin plane alone. It polls GET /metrics
// (OpenMetrics), /slo and /backends, derives per-interval rates from
// successive scrapes, and redraws with plain ANSI — no terminal library, no
// dependencies. Each frame shows total request/error rates with windowed
// p50/p99 latency, the SLO burn gauges, per-worker throughput sparklines, and
// per-backend health and circuit state. once renders a single frame (two
// quick scrapes) and exits, for smoke tests.
func runTop(admin string, interval time.Duration, once bool, out, errW io.Writer) int {
	top := &top{admin: admin, historyLen: 40}
	if err := top.sample(); err != nil {
		fmt.Fprintln(errW, "hermesctl:", err)
		return 1
	}
	if once {
		gap := interval
		if gap > 250*time.Millisecond {
			gap = 250 * time.Millisecond
		}
		time.Sleep(gap)
		if err := top.sample(); err != nil {
			fmt.Fprintln(errW, "hermesctl:", err)
			return 1
		}
		fmt.Fprint(out, top.frame())
		return 0
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			fmt.Fprintln(out)
			return 0
		case <-tick.C:
			if err := top.sample(); err != nil {
				fmt.Fprintln(errW, "hermesctl:", err)
				return 1
			}
			// Home + clear-to-end keeps the frame flicker-free without
			// touching terminal modes.
			fmt.Fprint(out, "\x1b[H\x1b[2J"+top.frame())
		}
	}
}

// scrape is one poll of the admin plane, reduced to the numbers the
// dashboard needs.
type scrape struct {
	at       time.Time
	workers  map[int]float64    // cumulative requests served per worker slot
	latency  map[int64]float64  // cumulative latency bucket counts by le (ns); -1 = +Inf
	healthy  map[int]bool       // backend slot → healthy gauge
	counters map[string]float64 // cumulative scalar counters by family name
}

type top struct {
	admin      string
	historyLen int

	prev, cur *scrape
	slo       *telemetry.SLOStatus
	backends  []proxy.BackendView
	history   map[int][]float64 // worker → recent rates, newest last
}

// sample polls /metrics, /slo, and /backends once and folds the result into
// the dashboard state.
func (t *top) sample() error {
	body, status, err := fetch(t.admin, "/metrics")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", status)
	}
	fams, err := openmetrics.Validate(body)
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	s := &scrape{
		at:       time.Now(),
		workers:  map[int]float64{},
		latency:  map[int64]float64{},
		healthy:  map[int]bool{},
		counters: map[string]float64{},
	}
	for i := range fams {
		f := &fams[i]
		switch f.Name {
		case "hermes_proxy_worker_requests_served":
			for _, sm := range f.Samples {
				if slot, err := strconv.Atoi(sm.Label("slot")); err == nil {
					s.workers[slot] = sm.Value
				}
			}
		case "hermes_proxy_request_latency_ns":
			for _, sm := range f.Samples {
				if !strings.HasSuffix(sm.Name, "_bucket") {
					continue
				}
				le := sm.Label("le")
				if le == "+Inf" {
					s.latency[-1] = sm.Value
				} else if v, err := strconv.ParseInt(le, 10, 64); err == nil {
					s.latency[v] = sm.Value
				}
			}
		case "hermes_proxy_backend_healthy":
			for _, sm := range f.Samples {
				if slot, err := strconv.Atoi(sm.Label("slot")); err == nil {
					s.healthy[slot] = sm.Value != 0
				}
			}
		case "hermes_proxy_upstream_errors", "hermes_proxy_unavailable",
			"hermes_proxy_retry_attempts", "hermes_proxy_circuit_rejections":
			if len(f.Samples) > 0 {
				s.counters[f.Name] = f.Samples[0].Value
			}
		}
	}
	t.prev, t.cur = t.cur, s

	t.slo = nil
	if body, status, err := fetch(t.admin, "/slo"); err == nil && status == http.StatusOK {
		var v telemetry.SLOStatus
		if json.Unmarshal(body, &v) == nil {
			t.slo = &v
		}
	}
	t.backends = nil
	if body, status, err := fetch(t.admin, "/backends"); err == nil && status == http.StatusOK {
		_ = json.Unmarshal(body, &t.backends)
	}

	if t.history == nil {
		t.history = map[int][]float64{}
	}
	if t.prev != nil {
		dt := t.cur.at.Sub(t.prev.at).Seconds()
		for slot, v := range t.cur.workers {
			r := rate(v, t.prev.workers[slot], dt)
			h := append(t.history[slot], r)
			if len(h) > t.historyLen {
				h = h[len(h)-t.historyLen:]
			}
			t.history[slot] = h
		}
	}
	return nil
}

// rate is a cumulative counter's growth per second between two polls dt
// seconds apart (watch and top).
func rate(cur, prev, dt float64) float64 {
	if dt <= 0 || cur < prev { // clock skew, or a counter reset (proxy restart)
		return 0
	}
	return (cur - prev) / dt
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as a fixed-width block-glyph strip scaled to the
// series max (an all-zero series stays flat).
func sparkline(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for i := 0; i < width-len(vals); i++ {
		b.WriteByte(' ')
	}
	for _, v := range vals {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// quantile computes a windowed quantile (ms) from the latency bucket deltas
// between the two most recent scrapes.
func (t *top) quantile(p float64) (float64, bool) {
	if t.prev == nil {
		return 0, false
	}
	bounds := make([]int64, 0, len(t.cur.latency))
	for le := range t.cur.latency {
		if le >= 0 {
			bounds = append(bounds, le)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	// Cumulative bucket deltas → per-bucket deltas (with trailing +Inf).
	counts := make([]uint64, 0, len(bounds)+1)
	prevCum := 0.0
	for _, le := range bounds {
		d := t.cur.latency[le] - t.prev.latency[le]
		if step := d - prevCum; step > 0 {
			counts = append(counts, uint64(step))
		} else {
			counts = append(counts, 0)
		}
		prevCum = d
	}
	infDelta := t.cur.latency[-1] - t.prev.latency[-1]
	if step := infDelta - prevCum; step > 0 {
		counts = append(counts, uint64(step))
	} else {
		counts = append(counts, 0)
	}
	if infDelta <= 0 {
		return 0, false
	}
	return stats.BucketQuantile(bounds, counts, p) / 1e6, true
}

// frame renders one dashboard frame.
func (t *top) frame() string {
	var b strings.Builder
	now := t.cur.at
	sloState := "-"
	if t.slo != nil {
		sloState = t.slo.State
	}
	fmt.Fprintf(&b, "hermesctl top — %s   %s   slo: %s\n", t.admin, now.Format("15:04:05"), sloState)

	// Totals line: per-interval rates from the last two scrapes.
	if t.prev != nil {
		dt := t.cur.at.Sub(t.prev.at).Seconds()
		reqRate := 0.0
		for slot, v := range t.cur.workers {
			reqRate += rate(v, t.prev.workers[slot], dt)
		}
		errRate := rate(t.cur.counters["hermes_proxy_upstream_errors"], t.prev.counters["hermes_proxy_upstream_errors"], dt)
		unavailRate := rate(t.cur.counters["hermes_proxy_unavailable"], t.prev.counters["hermes_proxy_unavailable"], dt)
		p50, p99 := "-", "-"
		if q, ok := t.quantile(0.50); ok {
			p50 = fmt.Sprintf("%.2fms", q)
		}
		if q, ok := t.quantile(0.99); ok {
			p99 = fmt.Sprintf("%.2fms", q)
		}
		fmt.Fprintf(&b, "requests %.1f/s   errors %.1f/s   503s %.1f/s   p50 %s   p99 %s\n",
			reqRate, errRate, unavailRate, p50, p99)
	} else {
		b.WriteString("requests -/s (first scrape)\n")
	}

	if t.slo != nil {
		fmt.Fprintf(&b, "burn ×budget   latency page %.2f/%.2f warn %.2f/%.2f   errors page %.2f/%.2f warn %.2f/%.2f\n",
			t.slo.Latency.PageShort, t.slo.Latency.PageLong, t.slo.Latency.WarnShort, t.slo.Latency.WarnLong,
			t.slo.Errors.PageShort, t.slo.Errors.PageLong, t.slo.Errors.WarnShort, t.slo.Errors.WarnLong)
	}
	b.WriteByte('\n')

	// Per-worker sparklines.
	slots := make([]int, 0, len(t.cur.workers))
	for slot := range t.cur.workers {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	fmt.Fprintf(&b, "%-8s %10s  %s\n", "WORKER", "RATE", "HISTORY")
	for _, slot := range slots {
		h := t.history[slot]
		last := 0.0
		if len(h) > 0 {
			last = h[len(h)-1]
		}
		fmt.Fprintf(&b, "w%-7d %8.1f/s  %s\n", slot, last, sparkline(h, 30))
	}

	// Per-backend health and circuit state (from /backends when reachable,
	// else the healthy gauge alone).
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-22s %-8s %-10s %7s %10s %8s\n", "BACKEND", "HEALTH", "CIRCUIT", "ACTIVE", "REQUESTS", "ERRORS")
	if len(t.backends) > 0 {
		for _, be := range t.backends {
			health := "up"
			if !be.Healthy {
				health = "DOWN"
				if be.Reason != "" {
					health = "DOWN:" + be.Reason
				}
			}
			circuit := "-"
			if be.Circuit != nil {
				circuit = be.Circuit.State
			}
			fmt.Fprintf(&b, "%-22s %-8s %-10s %7d %10d %8d\n",
				be.Address, health, circuit, be.Active, be.Requests, be.Errors)
		}
	} else {
		slots := make([]int, 0, len(t.cur.healthy))
		for slot := range t.cur.healthy {
			slots = append(slots, slot)
		}
		sort.Ints(slots)
		for _, slot := range slots {
			health := "up"
			if !t.cur.healthy[slot] {
				health = "DOWN"
			}
			fmt.Fprintf(&b, "backend[%d]%12s %-8s %-10s\n", slot, "", health, "-")
		}
	}
	return b.String()
}
