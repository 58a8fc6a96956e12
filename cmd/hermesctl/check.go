package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"hermes/internal/core"
	"hermes/internal/ebpf"
	"hermes/internal/l7lb"
	"hermes/internal/openmetrics"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// This file is `hermesctl check`: the offline validators CI and
// scripts/e2e_smoke.sh run over the artefacts the system emits.
//
//	hermesctl check metrics dump.json        # hermes-bench -metrics
//	hermesctl check prom scrape.prom         # a saved GET /metrics
//	hermesctl metrics | hermesctl check prom # no file (or "-") reads stdin
//	hermesctl check spans dump.jsonl         # hermes-bench -spans, hermes-lb -trace
//
// Each input prints one summary line on success. Exit 0 when every input
// passed, 1 on the first violation in any of them, 2 on a usage error.

// checkers maps the artefact kind to its validator, which returns the summary
// line of an input that passed.
var checkers = map[string]func(name string, r io.Reader) (string, error){
	"metrics": checkMetrics,
	"prom":    checkProm,
	"spans":   checkSpans,
}

func check(args []string, out, errW io.Writer) int {
	var fn func(string, io.Reader) (string, error)
	if len(args) > 0 {
		fn = checkers[args[0]]
	}
	if fn == nil {
		fmt.Fprintln(errW, "usage: hermesctl check metrics|prom|spans [file…]   (no file or - reads stdin)")
		return 2
	}
	files := args[1:]
	if len(files) == 0 {
		files = []string{"-"}
	}
	code := 0
	for _, path := range files {
		line, err := checkFile(fn, path)
		if err != nil {
			fmt.Fprintf(errW, "hermesctl: check %s: %v\n", args[0], err)
			code = 1
			continue
		}
		fmt.Fprintln(out, line)
	}
	return code
}

func checkFile(fn func(string, io.Reader) (string, error), path string) (string, error) {
	if path == "-" {
		return fn("<stdin>", os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return fn(path, f)
}

// metricsDump is a hermes-bench -metrics file: experiment → cell → snapshots.
type metricsDump map[string]map[string][]telemetry.MetricSnapshot

func readMetricsDump(r io.Reader) (metricsDump, error) {
	var dump metricsDump
	if err := json.NewDecoder(r).Decode(&dump); err != nil {
		return nil, fmt.Errorf("not a metrics dump: %w", err)
	}
	return dump, nil
}

// checkMetrics validates a hermes-bench -metrics dump: JSON shaped
// experiment → cell → metric snapshots, every cell carrying at least one
// named metric, the mode-conditional catalog of checkModeCatalog, and the
// LB's ledger (checkLedger).
func checkMetrics(name string, r io.Reader) (string, error) {
	dump, err := readMetricsDump(r)
	if err != nil {
		return "", err
	}
	if len(dump) == 0 {
		return "", fmt.Errorf("dump has no experiments")
	}
	cells, metrics := 0, 0
	for exp, byCell := range dump {
		for cell, snaps := range byCell {
			cells++
			if len(snaps) == 0 {
				return "", fmt.Errorf("%s/%s: cell has no metrics", exp, cell)
			}
			for _, ms := range snaps {
				if ms.Name == "" {
					return "", fmt.Errorf("%s/%s: metric with empty name", exp, cell)
				}
				metrics++
			}
			if err := checkModeCatalog(cell, snaps); err != nil {
				return "", fmt.Errorf("%s/%s: %w", exp, cell, err)
			}
			if err := checkLedger(snaps); err != nil {
				return "", fmt.Errorf("%s/%s: %w", exp, cell, err)
			}
		}
	}
	if cells == 0 {
		return "", fmt.Errorf("dump has no cells")
	}
	return fmt.Sprintf("ok: %d experiments, %d cells, %d metric snapshots", len(dump), cells, metrics), nil
}

// checkModeCatalog enforces the mode-conditional metrics: a cell that runs
// the Hermes control loop carries all four JIT counters (ebpf.jit.*, each
// nonzero: its dispatch program must actually have run compiled) and the
// sync-batching counter (core.schedule.sync_batched), and any other cell
// carries none of them; a leak in either direction means an observer was
// attached where it should not be. A cell whose name ends in its dispatch
// mode (cellMode) is a Hermes cell exactly when that mode is ModeHermes. A
// cell named after something else ("theta0.50", "dev3") is held to itself:
// any one of the rows makes it a Hermes cell, which must then carry them all.
func checkModeCatalog(cell string, snaps []telemetry.MetricSnapshot) error {
	snap := telemetry.Snapshot{Metrics: snaps}
	rows := []string{ebpf.MetricJITRuns, ebpf.MetricJITPrograms, ebpf.MetricJITInsns, ebpf.MetricJITClosures, core.MetricSyncBatched}
	mode, named := cellMode(cell)
	hermes := mode == l7lb.ModeHermes
	if !named {
		hermes = slices.ContainsFunc(rows, func(name string) bool { return snap.Get(name) != nil })
	}
	for _, name := range rows {
		switch ms := snap.Get(name); {
		case hermes && ms == nil:
			return fmt.Errorf("hermes cell missing %s", name)
		case hermes && name != core.MetricSyncBatched && ms.Total() <= 0:
			return fmt.Errorf("%s is zero — dispatch ran interpreted?", name)
		case !hermes && ms != nil:
			return fmt.Errorf("non-hermes cell carries %s", name)
		}
	}
	return nil
}

// checkLedger holds a cell's l7lb rows to each other, wherever both rows of a
// pair are present: every accepted connection (Σ l7lb.worker.conns_accepted,
// one slot per simulated core) is one l7lb.accept_wait_ns observation, and
// every request_latency_ns observation is a served request
// (Σ l7lb.worker.requests_served, which also counts probes).
func checkLedger(snaps []telemetry.MetricSnapshot) error {
	snap := telemetry.Snapshot{Metrics: snaps}
	if acc, wait := snap.Get("l7lb.worker.conns_accepted"), snap.Get("l7lb.accept_wait_ns"); acc != nil && wait != nil &&
		uint64(acc.Total()) != wait.Count {
		return fmt.Errorf("Σ l7lb.worker.conns_accepted = %d, but l7lb.accept_wait_ns counts %d", acc.Total(), wait.Count)
	}
	if served, lat := snap.Get("l7lb.worker.requests_served"), snap.Get("l7lb.request_latency_ns"); served != nil && lat != nil &&
		uint64(served.Total()) < lat.Count {
		return fmt.Errorf("Σ l7lb.worker.requests_served = %d, below l7lb.request_latency_ns's count %d", served.Total(), lat.Count)
	}
	return nil
}

// cellMode returns the dispatch mode a cell name ends in, as hermes-bench
// names a cell that is one mode of a comparison ("case1/heavy/hermes",
// "64w-10k-hermes", "exclusive"); false when it ends in none.
func cellMode(cell string) (l7lb.Mode, bool) {
	for m := l7lb.ModeExclusive; m <= l7lb.ModeIOUring; m++ { // the whole enum
		if rest, ok := strings.CutSuffix(cell, m.String()); ok && (rest == "" || strings.HasSuffix(rest, "-") || strings.HasSuffix(rest, "/")) {
			return m, true
		}
	}
	return 0, false
}

// checkProm validates an OpenMetrics text exposition under the strict
// internal/openmetrics checker: HELP/TYPE pairing, name/label syntax and
// escaping, suffix discipline, histogram bucket monotonicity with le="+Inf"
// equal to _count, and a terminating # EOF.
func checkProm(name string, r io.Reader) (string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return "", fmt.Errorf("%s: %w", name, err)
	}
	fams, err := openmetrics.Validate(data)
	if err != nil {
		return "", fmt.Errorf("%s: %w", name, err)
	}
	samples := 0
	for i := range fams {
		samples += len(fams[i].Samples)
	}
	return fmt.Sprintf("%s: ok (%d families, %d samples)", name, len(fams), samples), nil
}

// checkSpans validates a JSONL span dump: the per-span schema — known kinds,
// legal tracks, non-negative durations — plus the per-connection lifecycle
// invariants the tracer promises (docs/TRACING.md): timestamps monotone along
// each connection's chain,
// accept-queue residency nested between SYN and close, every notify-wait
// abutting the serve it woke, and close last.
func checkSpans(name string, r io.Reader) (string, error) {
	spans, meta, err := tracing.ReadSpans(r)
	if err != nil {
		return "", fmt.Errorf("not a span dump: %w", err)
	}
	if len(spans) == 0 {
		return "", fmt.Errorf("dump has no spans")
	}
	byConn := make(map[uint64][]tracing.Span)
	for i, s := range spans {
		if err := checkSpan(s); err != nil {
			return "", fmt.Errorf("span %d (%s): %w", i, s.Kind, err)
		}
		if s.Conn != 0 {
			byConn[s.Conn] = append(byConn[s.Conn], s)
		}
	}
	conns := make([]uint64, 0, len(byConn))
	for id := range byConn {
		conns = append(conns, id)
	}
	sort.Slice(conns, func(i, j int) bool { return conns[i] < conns[j] })
	for _, id := range conns {
		if err := checkConn(byConn[id]); err != nil {
			return "", fmt.Errorf("conn %d: %w", id, err)
		}
	}
	if meta.ConnsKept > 0 && len(byConn) == 0 {
		return "", fmt.Errorf("meta says %d connections kept but no conn-scoped spans", meta.ConnsKept)
	}
	return fmt.Sprintf("ok: %d spans, %d connections (meta: %d/%d conns kept, %d committed, %d dropped)",
		len(spans), len(byConn), meta.ConnsKept, meta.ConnsSeen, meta.SpansCommitted, meta.SpansDropped), nil
}

// checkSpan enforces the per-span schema: sane timestamps, and what the
// kind's descriptor (tracing.KindDesc) says about its track, its arguments and
// whether it needs a connection id.
func checkSpan(s tracing.Span) error {
	if s.StartNS < 0 {
		return fmt.Errorf("negative start %d", s.StartNS)
	}
	if s.EndNS < s.StartNS {
		return fmt.Errorf("end %d before start %d", s.EndNS, s.StartNS)
	}
	d, kernel := s.Kind.Desc(), s.Worker == tracing.KernelTrack
	switch {
	case d.Track == tracing.OnKernel && !kernel:
		return fmt.Errorf("must sit on the kernel track, got worker %d", s.Worker)
	case d.Track == tracing.OnWorker && s.Worker < 0:
		return fmt.Errorf("must sit on a worker track, got %d", s.Worker)
	case !kernel && s.Worker < 0:
		// Fault/recovery instants sit on the affected worker's track, or on
		// the kernel track for LB-wide faults (selmap sync stalls).
		return fmt.Errorf("must sit on a worker or kernel track, got %d", s.Worker)
	}
	if !d.Arg.Holds(s.Arg) {
		return fmt.Errorf("unknown %s %d", d.Arg.Name, s.Arg)
	}
	if !d.Arg2.Holds(s.Arg2) {
		return fmt.Errorf("unknown %s %d", d.Arg2.Name, s.Arg2)
	}
	if s.Conn == 0 && d.ConnScoped {
		return fmt.Errorf("conn-scoped kind with no connection id")
	}
	return nil
}

// checkConn enforces lifecycle nesting along one connection's span chain.
func checkConn(spans []tracing.Span) error {
	tracing.SortSpans(spans)
	var syn, queue, accept, close_ *tracing.Span
	var serves, notifies []tracing.Span
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case tracing.KindSYN:
			if syn != nil {
				return fmt.Errorf("duplicate syn")
			}
			syn = s
		case tracing.KindAcceptQueue:
			if queue != nil {
				return fmt.Errorf("duplicate accept_queue")
			}
			queue = s
		case tracing.KindAccept:
			if accept != nil {
				return fmt.Errorf("duplicate accept")
			}
			accept = s
		case tracing.KindClose:
			if close_ != nil {
				return fmt.Errorf("duplicate close")
			}
			close_ = s
		case tracing.KindServe:
			serves = append(serves, *s)
		case tracing.KindNotifyWait:
			notifies = append(notifies, *s)
		default:
			return fmt.Errorf("unexpected %s on a connection chain", s.Kind)
		}
	}
	if syn != nil && queue != nil && queue.StartNS < syn.StartNS {
		return fmt.Errorf("accept_queue starts %d, before syn %d", queue.StartNS, syn.StartNS)
	}
	if queue != nil && accept != nil && accept.StartNS != queue.EndNS {
		return fmt.Errorf("accept instant %d does not end the accept_queue span %d", accept.StartNS, queue.EndNS)
	}
	acceptedAt := int64(-1)
	if queue != nil {
		acceptedAt = queue.EndNS
	}
	// Each notify_wait must abut the serve it woke: same timestamp where
	// the wait ends and service begins.
	serveStarts := make(map[int64]bool, len(serves))
	for _, s := range serves {
		if s.StartNS < acceptedAt {
			return fmt.Errorf("serve at %d precedes accept at %d", s.StartNS, acceptedAt)
		}
		serveStarts[s.StartNS] = true
	}
	for _, n := range notifies {
		if !serveStarts[n.EndNS] {
			return fmt.Errorf("notify_wait ending %d has no serve starting there", n.EndNS)
		}
	}
	if close_ != nil {
		for _, s := range spans {
			if s.Kind != tracing.KindClose && s.EndNS > close_.StartNS {
				return fmt.Errorf("%s ends %d, after close %d", s.Kind, s.EndNS, close_.StartNS)
			}
		}
	}
	return nil
}
