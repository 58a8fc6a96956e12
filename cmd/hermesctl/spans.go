package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// This file is `hermesctl spans`: it analyses a JSONL span dump (hermes-bench
// -spans, hermes-lb -trace; docs/TRACING.md) and prints where
// each connection's time went:
//
//   - the aggregate wait breakdown — steer (SYN → accept-queue entry),
//     queue (accept-queue residency), notify (request arrival → service
//     start) and serve (service itself) — with the steering-path mix;
//   - the top-K slowest connections by end-to-end request latency, each
//     with its full span chain;
//   - spurious-wakeup attribution per worker (which epoll waiter woke for
//     nothing, and how long it had been blocked).
//
// With -metrics it reconciles the dump against the same run's telemetry:
// the accept-wait histogram must sum to the accept-queue residencies and
// the request-latency histogram to the serve latencies. Reconciliation
// needs a full trace (-span-sample 1, no ring overwrites); a sampled dump
// fails it by construction.
//
// With -chrome it renders the dump as a Chrome trace for Perfetto instead —
// the one writer of that format — so one recording serves the viewer and
// the analysis.
//
//	hermes-bench -exp fig11 -spans dump.jsonl -metrics m.json
//	hermesctl spans -top 5 -metrics m.json dump.jsonl
//	hermesctl spans -chrome dump.json dump.jsonl
//
// Exit 0, 1 on an unreadable dump or a failed reconciliation, 2 on a usage
// error.

func spans(args []string, out, errW io.Writer) int {
	fs := flag.NewFlagSet("hermesctl spans", flag.ContinueOnError)
	fs.SetOutput(errW)
	var (
		topK    = fs.Int("top", 10, "slowest connections to detail (0 = none)")
		metrics = fs.String("metrics", "", "reconcile against this hermes-bench -metrics dump")
		exp     = fs.String("exp", "", "experiment key inside -metrics (default: sole experiment)")
		cell    = fs.String("cell", "", "cell key inside -metrics (default: the dump's cell)")
		connID  = fs.Uint64("conn", 0, "print one connection's span chain and exit")
		chrome  = fs.String("chrome", "", "write the dump as a Chrome trace (Perfetto) to this file and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(errW, "usage: hermesctl spans [flags] <dump.jsonl>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if err := analyzeDump(out, fs.Arg(0), *chrome, *topK, *connID, *metrics, *exp, *cell); err != nil {
		fmt.Fprintln(errW, "hermesctl: spans:", err)
		return 1
	}
	return 0
}

func analyzeDump(out io.Writer, path, chrome string, topK int, connID uint64, metrics, exp, cell string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	spans, meta, err := tracing.ReadSpans(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("not a span dump: %w", err)
	}
	if chrome != "" {
		// The dump's spans in file order: the bytes hermes-bench and
		// hermes-lb write for a .json path, whole or not at all.
		var buf bytes.Buffer
		if err := tracing.WriteChrome(&buf, spans, meta); err != nil {
			return err
		}
		return os.WriteFile(chrome, buf.Bytes(), 0o644)
	}
	a := analyze(spans)

	if connID != 0 {
		c := a.conns[connID]
		if c == nil {
			return fmt.Errorf("connection %d not in dump", connID)
		}
		printChain(out, c)
		return nil
	}

	fmt.Fprintf(out, "cell %q: %d spans, %d/%d connections kept", meta.Cell, len(spans), meta.ConnsKept, meta.ConnsSeen)
	if meta.SpansDropped > 0 {
		fmt.Fprintf(out, " (%d spans overwritten in the ring)", meta.SpansDropped)
	}
	fmt.Fprintln(out)
	a.printBreakdown(out)
	a.printSpurious(out)
	if topK > 0 {
		a.printSlowest(out, topK)
	}
	if metrics == "" {
		return nil
	}
	if cell == "" {
		cell = meta.Cell
	}
	return a.reconcile(out, metrics, exp, cell)
}

// conn is one connection's reassembled span chain.
type conn struct {
	id    uint64
	spans []tracing.Span

	via        tracing.Via
	steerNS    int64 // SYN -> accept-queue entry (0 in the sim's SYN path)
	queueNS    int64 // accept-queue residency
	notifyNS   int64 // sum of notify waits (arrival -> service start)
	serveNS    int64 // sum of service spans
	requests   int   // serve spans (incl. probes)
	probes     int
	latencySum int64 // sum of non-probe end-to-end latencies (serve Arg2)
	maxLatNS   int64 // slowest single request (incl. probes)
	hasQueue   bool
}

type analysis struct {
	conns map[uint64]*conn
	order []*conn // sorted by id

	// Per-worker wakeup attribution, indexed by track (KernelTrack never
	// records wakeups).
	wakeups  map[int32]int
	spurious map[int32]int
	waitNS   map[int32]int64 // blocked time attributed to spurious wakeups

	drops    int
	overflow int
}

func analyze(spans []tracing.Span) *analysis {
	a := &analysis{
		conns:    make(map[uint64]*conn),
		wakeups:  make(map[int32]int),
		spurious: make(map[int32]int),
		waitNS:   make(map[int32]int64),
	}
	get := func(id uint64) *conn {
		c := a.conns[id]
		if c == nil {
			c = &conn{id: id}
			a.conns[id] = c
		}
		return c
	}
	var syns = make(map[uint64]int64)
	for _, s := range spans {
		switch s.Kind {
		case tracing.KindWakeup:
			a.wakeups[s.Worker]++
			if s.Arg2 != 0 {
				a.spurious[s.Worker]++
				a.waitNS[s.Worker] += s.DurNS()
			}
		case tracing.KindDrop:
			a.drops++
			if s.Arg2 != 0 {
				a.overflow++
			}
		default:
			if !s.Kind.Desc().ConnScoped {
				continue // control-plane events; not part of any connection chain
			}
			c := get(s.Conn)
			c.spans = append(c.spans, s)
			switch s.Kind {
			case tracing.KindSYN:
				c.via = tracing.Via(s.Arg)
				syns[s.Conn] = s.StartNS
			case tracing.KindAcceptQueue:
				c.queueNS = s.DurNS()
				c.hasQueue = true
				if at, ok := syns[s.Conn]; ok {
					c.steerNS = s.StartNS - at
				}
			case tracing.KindNotifyWait:
				c.notifyNS += s.DurNS()
			case tracing.KindServe:
				c.serveNS += s.DurNS()
				c.requests++
				if s.Arg != 0 {
					c.probes++
				} else {
					c.latencySum += s.Arg2
				}
				if s.Arg2 > c.maxLatNS {
					c.maxLatNS = s.Arg2
				}
			}
		}
	}
	a.order = make([]*conn, 0, len(a.conns))
	for _, c := range a.conns {
		tracing.SortSpans(c.spans)
		a.order = append(a.order, c)
	}
	sort.Slice(a.order, func(i, j int) bool { return a.order[i].id < a.order[j].id })
	return a
}

func (a *analysis) printBreakdown(out io.Writer) {
	var steer, queue, notify, serve int64
	var reqs int
	vias := make(map[tracing.Via]int)
	for _, c := range a.order {
		steer += c.steerNS
		queue += c.queueNS
		notify += c.notifyNS
		serve += c.serveNS
		reqs += c.requests
		vias[c.via]++
	}
	n := len(a.order)
	fmt.Fprintln(out, "\nwait breakdown (totals over traced connections):")
	w := func(name string, tot int64, per int) {
		if per == 0 {
			per = 1
		}
		fmt.Fprintf(out, "  %-8s %14s  (mean %s)\n", name, ns(tot), ns(tot/int64(per)))
	}
	w("steer", steer, n)
	w("queue", queue, n)
	w("notify", notify, reqs)
	w("serve", serve, reqs)
	fmt.Fprintf(out, "  %d connections, %d requests", n, reqs)
	if a.drops > 0 {
		fmt.Fprintf(out, "; %d SYNs dropped (%d on queue overflow)", a.drops, a.overflow)
	}
	fmt.Fprintln(out)
	keys := make([]tracing.Via, 0, len(vias))
	for v := range vias {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	parts := make([]string, 0, len(keys))
	for _, v := range keys {
		parts = append(parts, fmt.Sprintf("%s %d", v, vias[v]))
	}
	fmt.Fprintf(out, "  steering: %s\n", strings.Join(parts, ", "))
}

func (a *analysis) printSpurious(out io.Writer) {
	tracks := make([]int32, 0, len(a.wakeups))
	for t := range a.wakeups {
		tracks = append(tracks, t)
	}
	if len(tracks) == 0 {
		return
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })
	fmt.Fprintln(out, "\nspurious wakeups per worker:")
	for _, t := range tracks {
		tot, sp := a.wakeups[t], a.spurious[t]
		fmt.Fprintf(out, "  worker %-3d %6d wakeups, %6d spurious (%.1f%%), %s blocked for nothing\n",
			t, tot, sp, 100*float64(sp)/float64(tot), ns(a.waitNS[t]))
	}
}

func (a *analysis) printSlowest(out io.Writer, k int) {
	slow := make([]*conn, len(a.order))
	copy(slow, a.order)
	sort.SliceStable(slow, func(i, j int) bool { return slow[i].maxLatNS > slow[j].maxLatNS })
	if k > len(slow) {
		k = len(slow)
	}
	fmt.Fprintf(out, "\ntop %d slowest connections (by worst request latency):\n", k)
	for _, c := range slow[:k] {
		fmt.Fprintf(out, "- conn %d: worst %s  (steer %s, queue %s, notify %s, serve %s over %d requests, via %s)\n",
			c.id, ns(c.maxLatNS), ns(c.steerNS), ns(c.queueNS), ns(c.notifyNS), ns(c.serveNS), c.requests, c.via)
		printChain(out, c)
	}
}

func printChain(out io.Writer, c *conn) {
	for _, s := range c.spans {
		line := fmt.Sprintf("    %12d  %-12s worker %d", s.StartNS, s.Kind, s.Worker)
		if !s.Instant() {
			line += fmt.Sprintf("  +%s", ns(s.DurNS()))
		}
		switch s.Kind {
		case tracing.KindSYN:
			line += fmt.Sprintf("  via %s -> worker %d", tracing.Via(s.Arg), s.Arg2)
		case tracing.KindServe:
			if s.Arg != 0 {
				line += "  probe"
			}
			line += fmt.Sprintf("  latency %s", ns(s.Arg2))
		case tracing.KindClose:
			if s.Arg != 0 {
				line += "  reset"
			}
		}
		fmt.Fprintln(out, line)
	}
}

// reconcile checks the dump's wait totals against the telemetry histograms
// recorded by the same run: Σ accept-queue residencies must equal the
// accept-wait histogram's sum, and Σ non-probe serve latencies the
// request-latency histogram's sum (counts likewise).
func (a *analysis) reconcile(out io.Writer, path, exp, cell string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	dump, err := readMetricsDump(f)
	f.Close()
	if err != nil {
		return err
	}
	if exp == "" {
		if len(dump) != 1 {
			return fmt.Errorf("metrics dump has %d experiments; pick one with -exp", len(dump))
		}
		for k := range dump {
			exp = k
		}
	}
	cells, ok := dump[exp]
	if !ok {
		return fmt.Errorf("experiment %q not in metrics dump", exp)
	}
	snaps, ok := cells[cell]
	if !ok {
		return fmt.Errorf("cell %q not in metrics dump for %q", cell, exp)
	}
	snap := telemetry.Snapshot{Metrics: snaps}
	wait, latency := snap.Get("l7lb.accept_wait_ns"), snap.Get("l7lb.request_latency_ns")
	if wait == nil || latency == nil {
		return fmt.Errorf("%s/%s lacks the l7lb.accept_wait_ns and l7lb.request_latency_ns histograms", exp, cell)
	}

	var queueSum, latSum int64
	var queueN, latN uint64
	for _, c := range a.order {
		queueSum += c.queueNS
		if c.hasQueue {
			queueN++
		}
		latSum += c.latencySum
		latN += uint64(c.requests - c.probes)
	}

	fmt.Fprintf(out, "\nreconciliation against %s/%s:\n", exp, cell)
	mismatch := false
	check := func(label string, ms *telemetry.MetricSnapshot, sum int64, count uint64) {
		status := "OK"
		if ms.Sum != sum || ms.Count != count {
			status, mismatch = "MISMATCH", true
		}
		fmt.Fprintf(out, "  %-28s spans %s over %d vs histogram %s over %d  [%s]\n",
			label, ns(sum), count, ns(ms.Sum), ms.Count, status)
	}
	check("accept-queue vs accept_wait", wait, queueSum, queueN)
	check("serve latency vs latency", latency, latSum, latN)
	if mismatch {
		fmt.Fprintln(out, "  (a sampled or ring-overwritten dump cannot reconcile; record with -span-sample 1)")
		return fmt.Errorf("dump does not reconcile with %s", path)
	}
	return nil
}

func ns(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3fs", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3fµs", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}
