package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hermes/internal/core"
	"hermes/internal/ebpf"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// writeArtefacts emits one small artefact of each kind the way the system
// does — a -metrics dump, an OpenMetrics exposition, a span dump — plus a
// broken twin of each, and returns their paths by name.
func writeArtefacts(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	paths := map[string]string{}
	put := func(name string, data []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths[name] = p
	}

	reg := telemetry.NewRegistry()
	reg.Counter(telemetry.Metric{Name: "l7lb.x", Layer: "l7lb", Unit: "reqs", Help: "x"}).Add(3)
	reg.Histogram(telemetry.Metric{Name: "l7lb.accept_wait_ns"}, telemetry.DurationBuckets()).Observe(100)
	reg.Histogram(telemetry.Metric{Name: "l7lb.request_latency_ns"}, telemetry.DurationBuckets()).Observe(350)
	var prom bytes.Buffer
	if err := telemetry.WriteOpenMetrics(&prom, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	put("ok.prom", prom.Bytes())
	put("bad.prom", bytes.TrimSuffix(prom.Bytes(), []byte("# EOF\n")))

	cellJSON := func(cell string) []byte {
		data, err := json.Marshal(map[string]map[string][]telemetry.MetricSnapshot{"exp": {cell: reg.Snapshot().Metrics}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	put("ok.metrics.json", cellJSON("cellA"))
	// A hermes cell must carry the JIT and sync-batching rows.
	put("bad.metrics.json", cellJSON("16w-hermes"))

	tr := tracing.New(tracing.DefaultConfig())
	k, w := tr.KernelTrace(), tr.WorkerTrace(0)
	k.ConnEstablished(7, 1000, 0, tracing.ViaHash)
	w.Accept(7, 1000, 1100)
	w.Serve(7, 1150, 1200, 1500, false)
	w.Close(7, 1600, false)
	tr.Flush()
	var dump bytes.Buffer
	if err := tracing.WriteJSONL(&dump, tr.Spans(), tracing.MetaFor("cellA", tr.Stats())); err != nil {
		t.Fatal(err)
	}
	put("ok.spans.jsonl", dump.Bytes())
	put("bad.spans.jsonl", []byte("not a dump\n"))
	return paths
}

func TestCheckSubcommand(t *testing.T) {
	p := writeArtefacts(t)
	for _, tc := range []struct {
		args    []string
		code    int
		out, er string // substrings
	}{
		{[]string{"check", "metrics", p["ok.metrics.json"]}, 0, "ok: 1 experiments, 1 cells, 3 metric snapshots\n", ""},
		{[]string{"check", "metrics", p["bad.metrics.json"]}, 1, "", "exp/16w-hermes: hermes cell missing ebpf.jit.runs"},
		{[]string{"check", "prom", p["ok.prom"]}, 0, "ok.prom: ok (3 families, ", ""},
		{[]string{"check", "prom", p["bad.prom"], p["ok.prom"]}, 1, "ok.prom: ok (", "bad.prom: "},
		{[]string{"check", "spans", p["ok.spans.jsonl"]}, 0, "ok: 6 spans, 1 connections (meta: 1/1 conns kept, 6 committed, 0 dropped)\n", ""},
		{[]string{"check", "spans", p["bad.spans.jsonl"]}, 1, "", "not a span dump"},
		{[]string{"check", "spans", filepath.Join(t.TempDir(), "absent")}, 1, "", "no such file"},
		{[]string{"check"}, 2, "", "usage: hermesctl check"},
		{[]string{"check", "bogus", p["ok.prom"]}, 2, "", "usage: hermesctl check"},
	} {
		out, errOut, code := runCtl(t, tc.args...)
		if code != tc.code || !strings.Contains(out, tc.out) || !strings.Contains(errOut, tc.er) {
			t.Errorf("hermesctl %v: exit %d, stdout %q, stderr %q; want exit %d, stdout ∋ %q, stderr ∋ %q",
				tc.args, code, out, errOut, tc.code, tc.out, tc.er)
		}
	}
}

func TestSpansSubcommand(t *testing.T) {
	p := writeArtefacts(t)
	out, errOut, code := runCtl(t, "spans", "-top", "1", "-metrics", p["ok.metrics.json"], p["ok.spans.jsonl"])
	if code != 0 {
		t.Fatalf("exit %d, stderr %q\n%s", code, errOut, out)
	}
	for _, want := range []string{
		`cell "cellA": 6 spans, 1/1 connections kept`,
		"steering: hash 1",
		"- conn 7: worst 350ns",
		"accept-queue vs accept_wait  spans 100ns over 1 vs histogram 100ns over 1  [OK]",
		"serve latency vs latency     spans 350ns over 1 vs histogram 350ns over 1  [OK]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	// One connection's chain, and the usage and mismatch exits.
	if out, _, code := runCtl(t, "spans", "-conn", "7", p["ok.spans.jsonl"]); code != 0 || strings.Count(out, "\n") != 6 {
		t.Errorf("-conn 7: exit %d, output:\n%s", code, out)
	}
	if _, errOut, code := runCtl(t, "spans", "-conn", "8", p["ok.spans.jsonl"]); code != 1 || !strings.Contains(errOut, "connection 8 not in dump") {
		t.Errorf("-conn 8: exit %d, stderr %q", code, errOut)
	}
	if _, _, code := runCtl(t, "spans"); code != 2 {
		t.Errorf("no dump: exit %d, want 2", code)
	}
	if _, errOut, code := runCtl(t, "spans", "-metrics", p["ok.metrics.json"], "-cell", "nope", p["ok.spans.jsonl"]); code != 1 || !strings.Contains(errOut, `cell "nope" not in metrics dump`) {
		t.Errorf("wrong -cell: exit %d, stderr %q", code, errOut)
	}
}

// -chrome renders a dump for Perfetto: valid JSON, one event per instant or
// complete span and a begin/end pair per async one after the thread names,
// the same bytes every time — and not itself a dump.
func TestSpansChrome(t *testing.T) {
	p := writeArtefacts(t)
	render := func() []byte {
		path := filepath.Join(t.TempDir(), "out.json")
		if out, errOut, code := runCtl(t, "spans", "-chrome", path, p["ok.spans.jsonl"]); code != 0 || out != "" {
			t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errOut)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := render()
	if !bytes.Equal(first, render()) {
		t.Error("two renderings of one dump differ")
	}
	var doc struct {
		TraceEvents []struct{ Name, Ph string } `json:"traceEvents"`
		HermesMeta  tracing.Meta                `json:"hermesMeta"`
	}
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatalf("rendering is not valid JSON: %v", err)
	}
	// The dump: syn, accept_queue, accept, notify_wait, serve, close on
	// worker 0 — two thread names (kernel, worker 0), four single events and
	// two async pairs.
	byPh := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byPh[ev.Ph]++
	}
	want := map[string]int{"M": 2, "i": 3, "X": 1, "b": 2, "e": 2}
	if !reflect.DeepEqual(byPh, want) || doc.HermesMeta.Cell != "cellA" {
		t.Errorf("events by phase = %v (cell %q), want %v (cell \"cellA\")", byPh, doc.HermesMeta.Cell, want)
	}

	path := filepath.Join(t.TempDir(), "chrome.json")
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"check", "spans", path}, {"spans", path}, {"spans", "-chrome", path + ".again", path}} {
		out, errOut, code := runCtl(t, args...)
		if code != 1 || out != "" || strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, "analyse the span dump") {
			t.Errorf("hermesctl %v on a Chrome trace: exit %d, stdout %q, stderr %q; want exit 1 and one line naming the fix", args, code, out, errOut)
		}
	}
}

// A cell is held to the mode its name ends in, and a cell named after
// something else to itself: hermes-bench's sweeps over one mode (fig14's
// "load0.25x", fig15's "theta0.50", the cluster's "dev3") carry Hermes rows
// under names that say nothing about Hermes, and must pass.
func TestCheckModeCatalogByNameOrBySelf(t *testing.T) {
	jit := []string{ebpf.MetricJITRuns, ebpf.MetricJITPrograms, ebpf.MetricJITInsns, ebpf.MetricJITClosures}
	snaps := func(names ...string) []telemetry.MetricSnapshot {
		reg := telemetry.NewRegistry()
		reg.Counter(telemetry.Metric{Name: "l7lb.x"}).Inc()
		for _, name := range names {
			reg.Counter(telemetry.Metric{Name: name}).Inc()
		}
		return reg.Snapshot().Metrics
	}
	hermes := snaps(append(jit, core.MetricSyncBatched)...)
	for _, tc := range []struct {
		cell    string
		snaps   []telemetry.MetricSnapshot
		wantErr string
	}{
		{"case1/heavy/hermes", hermes, ""},
		{"theta0.50", hermes, ""},
		{"dev3", hermes, ""},
		{"dev0", snaps(), ""},
		{"load0.25x", snaps(core.MetricSyncBatched), "hermes cell missing " + ebpf.MetricJITRuns},
		{"exclusive-rr", snaps(), ""},
		{"exclusive", snaps(core.MetricSyncBatched), "non-hermes cell carries"},
		{"hang/reuseport", hermes, "non-hermes cell carries"},
		{"16w-hermes", snaps(core.MetricSyncBatched), "hermes cell missing " + ebpf.MetricJITRuns},
		{"theta0.50", snaps(append(jit[:2:2], core.MetricSyncBatched)...), "hermes cell missing " + ebpf.MetricJITInsns},
		{"theta0.50", snaps(jit...), "hermes cell missing " + core.MetricSyncBatched},
		{"forced reuseport fallback", hermes, ""}, // ends in no mode: "fallback"
	} {
		err := checkModeCatalog(tc.cell, tc.snaps)
		if (err == nil) != (tc.wantErr == "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("cell %q: got %v, want %q", tc.cell, err, tc.wantErr)
		}
	}
}

// The l7lb ledger holds per cell: every accept is one accept-wait
// observation, and every latency observation a served request (served also
// counts probes, so it may exceed the latency count). A pair of which one row
// is absent is not checked.
func TestCheckLedger(t *testing.T) {
	cell := func(accepted []uint64, waits int, served []uint64, lats int) []telemetry.MetricSnapshot {
		reg := telemetry.NewRegistry()
		acc := reg.CounterVec(telemetry.Metric{Name: "l7lb.worker.conns_accepted"}, len(accepted))
		for i, n := range accepted {
			acc.At(i).Add(n)
		}
		srv := reg.CounterVec(telemetry.Metric{Name: "l7lb.worker.requests_served"}, len(served))
		for i, n := range served {
			srv.At(i).Add(n)
		}
		wait := reg.Histogram(telemetry.Metric{Name: "l7lb.accept_wait_ns"}, telemetry.DurationBuckets())
		for i := 0; i < waits; i++ {
			wait.Observe(100)
		}
		lat := reg.Histogram(telemetry.Metric{Name: "l7lb.request_latency_ns"}, telemetry.DurationBuckets())
		for i := 0; i < lats; i++ {
			lat.Observe(300)
		}
		return reg.Snapshot().Metrics
	}
	for _, tc := range []struct {
		name    string
		snaps   []telemetry.MetricSnapshot
		wantErr string
	}{
		{"balanced", cell([]uint64{2, 0, 1}, 3, []uint64{2, 1, 0}, 3), ""},
		{"probes served", cell([]uint64{1, 1}, 2, []uint64{3, 2}, 4), ""},
		// Cores that accept and serve without counting in their slots.
		{"uncounted core", cell([]uint64{0, 0, 0}, 5, []uint64{0, 0, 0}, 5), "Σ l7lb.worker.conns_accepted = 0, but l7lb.accept_wait_ns counts 5"},
		{"unserved latency", cell([]uint64{2}, 2, []uint64{1}, 2), "Σ l7lb.worker.requests_served = 1, below l7lb.request_latency_ns's count 2"},
		{"no vectors", cell(nil, 4, nil, 4)[:2], ""}, // the two histograms
	} {
		err := checkLedger(tc.snaps)
		if (err == nil) != (tc.wantErr == "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}
