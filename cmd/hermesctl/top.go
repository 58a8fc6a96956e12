package main

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hermes/internal/proxy"
	"hermes/internal/telemetry"
)

// runTop is `hermesctl top`: a live terminal dashboard for a running
// hermes-lb, built on the admin plane alone. It polls GET /stats through the
// sampler watch uses, plus /slo and /backends, and redraws with plain ANSI —
// no terminal library, no dependencies. Each frame shows the interval's total
// request/error rates with windowed p50/p99 latency, the SLO burn gauges,
// per-worker throughput sparklines, and per-backend health and circuit state.
// once renders a single frame (two quick polls) and exits, for smoke tests.
func runTop(admin string, interval time.Duration, once bool, out io.Writer) error {
	top := &top{s: sampler{admin: admin}}
	if _, err := top.s.poll(); err != nil { // primes the sampler: frames need a window
		return err
	}
	if once {
		time.Sleep(min(interval, 250*time.Millisecond))
		if err := top.sample(); err != nil {
			return err
		}
		fmt.Fprint(out, top.frame())
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			fmt.Fprintln(out)
			return nil
		case <-tick.C:
			if err := top.sample(); err != nil {
				return err
			}
			// Home + clear-to-end keeps the frame flicker-free without
			// touching terminal modes.
			fmt.Fprint(out, "\x1b[H\x1b[2J"+top.frame())
		}
	}
}

// historyLen is how many intervals of per-worker rates a sparkline draws on.
const historyLen = 40

// top is the dashboard's state: the last interval's window and the views
// polled beside it.
type top struct {
	s        sampler
	d        telemetry.WindowDelta
	slo      *telemetry.SLOStatus // nil when the monitor is off
	backends []proxy.BackendView
	history  [][]float64 // worker slot → recent rates, newest last
}

// sample polls /stats, /slo and /backends once and folds the result into the
// dashboard state.
func (t *top) sample() error {
	d, err := t.s.poll()
	if err != nil {
		return err
	}
	t.d = d
	t.slo = nil
	var slo telemetry.SLOStatus
	if _, err := getJSON(t.s.admin, "/slo", &slo); err == nil { // 404, and no JSON, when the monitor is off
		t.slo = &slo
	}
	t.backends = nil
	if _, err := getJSON(t.s.admin, "/backends", &t.backends); err != nil {
		return fmt.Errorf("GET /backends: %w", err)
	}
	if served := d.End().Get(rowServed); served != nil {
		if len(t.history) < len(served.Values) {
			t.history = append(t.history, make([][]float64, len(served.Values)-len(t.history))...)
		}
		sec := d.Elapsed().Seconds()
		for slot := range served.Values {
			rate := 0.0
			if sec > 0 { // the wall clock can step back between two polls
				rate = float64(d.SlotDelta(rowServed, slot)) / sec
			}
			h := append(t.history[slot], rate)
			t.history[slot] = h[max(0, len(h)-historyLen):]
		}
	}
	return nil
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

// frame renders one dashboard frame.
func (t *top) frame() string {
	var b strings.Builder
	sloState := "-"
	if t.slo != nil {
		sloState = t.slo.State
	}
	fmt.Fprintf(&b, "hermesctl top — %s   %s   slo: %s\n",
		t.s.admin, time.Unix(0, t.d.EndNS).Format("15:04:05"), sloState)

	row := rowOf(t.d)
	fmt.Fprintf(&b, "requests %.1f/s   errors %.1f/s   503s %.1f/s   p50 %s   p99 %s\n",
		row.ReqPerSec, row.ErrPerSec, row.UnavailPerSec, ms(row.P50MS, "ms"), ms(row.P99MS, "ms"))
	if t.slo != nil {
		fmt.Fprintf(&b, "burn ×budget   latency page %.2f/%.2f warn %.2f/%.2f   errors page %.2f/%.2f warn %.2f/%.2f\n",
			t.slo.Latency.PageShort, t.slo.Latency.PageLong, t.slo.Latency.WarnShort, t.slo.Latency.WarnLong,
			t.slo.Errors.PageShort, t.slo.Errors.PageLong, t.slo.Errors.WarnShort, t.slo.Errors.WarnLong)
	}

	fmt.Fprintf(&b, "\n%-8s %10s  %s\n", "WORKER", "RATE", "HISTORY")
	for slot, h := range t.history {
		fmt.Fprintf(&b, "w%-7d %8.1f/s  %s\n", slot, h[len(h)-1], sparkline(h, 30))
	}

	fmt.Fprintf(&b, "\n%-22s %-8s %-10s %7s %10s %8s\n", "BACKEND", "HEALTH", "CIRCUIT", "ACTIVE", "REQUESTS", "ERRORS")
	for _, be := range t.backends {
		health := "up"
		if !be.Healthy {
			health = "DOWN"
		}
		circuit := "-"
		if be.Circuit != nil {
			circuit = be.Circuit.State
		}
		fmt.Fprintf(&b, "%-22s %-8s %-10s %7d %10d %8d\n",
			be.Address, health, circuit, be.Active, be.Requests, be.Errors)
	}
	return b.String()
}
