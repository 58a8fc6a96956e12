package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// Recording the telemetry catalog must never perturb a simulation: the
// rendered experiment output is byte-identical with metrics on and off.
func TestMetricsDoNotPerturbOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("double table3 grid is expensive")
	}
	e := Experiments()["table3"]
	off := render(RunExperiment(e, parallelTestOptions(8)))
	o := parallelTestOptions(8)
	o.Metrics = NewMetricsCollector()
	on := render(RunExperiment(e, o))
	if off != on {
		t.Errorf("table3 output differs with metrics enabled\n--- off ---\n%s\n--- on ---\n%s", off, on)
	}
	if len(o.Metrics.CellNames()) != 4*len(LevelScales)*len(Table3Modes) {
		t.Errorf("collector has %d cells", len(o.Metrics.CellNames()))
	}
}

// A Hermes table3 cell must light up the whole cross-layer catalog: every
// worker shows nonzero epoll wakeups, reuseport steers, and a nonzero
// accept-queue depth peak.
func TestTable3HermesCellMetricsPerWorkerNonzero(t *testing.T) {
	o := fastOptions()
	o.Metrics = NewMetricsCollector()
	var cellName string
	for _, c := range table3Cells(o) {
		if strings.HasSuffix(c.Name, "/heavy/hermes") && strings.HasPrefix(c.Name, "case1") {
			cellName = c.Name
			c.Run()
			break
		}
	}
	if cellName == "" {
		t.Fatal("no case1 heavy hermes cell found")
	}
	snap := o.Metrics.Snapshot(cellName)
	for _, name := range []string{
		"kernel.epoll.wakeups",
		"kernel.reuseport.steered",
		"kernel.accept_queue.depth_peak",
		"l7lb.worker.requests_served",
	} {
		ms := snap.Get(name)
		if ms == nil {
			t.Errorf("%s missing from %s dump", name, cellName)
			continue
		}
		if len(ms.Values) != o.Workers {
			t.Errorf("%s has %d slots, want %d", name, len(ms.Values), o.Workers)
			continue
		}
		for i, v := range ms.Values {
			if v == 0 {
				t.Errorf("%s worker %d is zero", name, i)
			}
		}
	}
	for _, name := range []string{"core.schedule.recomputes", "core.schedule.syncs", "ebpf.selmap.updates"} {
		if ms := snap.Get(name); ms == nil || ms.Value == 0 {
			t.Errorf("%s missing or zero in %s dump", name, cellName)
		}
	}
}

// A cell's dump is rows a reader uses, not bulk: the -metrics JSON of one
// 16-worker hermes cell stays under 32 KiB (it was ≈ 250 KB while every worker
// dumped a 512-sample ring nobody read), so such bulk cannot return unnoticed.
func TestMetricsDumpStaysSmall(t *testing.T) {
	o := fastOptions()
	o.Workers = 16
	o.Metrics = NewMetricsCollector()
	for _, c := range table3Cells(o) {
		if strings.HasPrefix(c.Name, "case1") && strings.HasSuffix(c.Name, "/heavy/hermes") {
			c.Run()
		}
	}
	if cells := o.Metrics.CellNames(); len(cells) != 1 {
		t.Fatalf("recorded cells %v, want the one hermes cell", cells)
	}
	dump, err := json.Marshal(o.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) >= 32<<10 {
		t.Errorf("one 16-worker hermes cell dumps %d bytes of -metrics JSON, want < 32 KiB", len(dump))
	}
}

// The collector's JSON dump must parse and key cells by name.
func TestMetricsCollectorJSONRoundTrip(t *testing.T) {
	mc := NewMetricsCollector()
	if mc.Registry("cellA") == nil {
		t.Fatal("non-nil collector returned a nil registry")
	}
	var nilMC *MetricsCollector
	if nilMC.Registry("x") != nil {
		t.Fatal("nil collector must hand out nil registries")
	}
	buf, err := json.Marshal(mc)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if _, ok := decoded["cellA"]; !ok {
		t.Fatalf("dump missing cellA: %s", buf)
	}
}
