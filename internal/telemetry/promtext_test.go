package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hermes/internal/openmetrics"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRegistry is a fixed registry exercising every instrument kind,
// including names that need sanitization and help text that needs escaping.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter(Metric{Name: "g.requests", Layer: "g", Unit: "reqs",
		Help: "requests with a \\ backslash and\na newline"}).Add(42)
	reg.Gauge(Metric{Name: "g.open-conns", Layer: "g", Unit: "conns"}).Set(-3)
	h := reg.Histogram(Metric{Name: "g.latency_ns", Layer: "g", Unit: "ns",
		Help: "end-to-end latency"}, []int64{1000, 2000, 4000})
	for _, v := range []int64{500, 1500, 1500, 3000, 9000} {
		h.Observe(v)
	}
	reg.Histogram(Metric{Name: "g.empty_hist_ns", Layer: "g", Unit: "ns"}, []int64{10, 20})
	cv := reg.CounterVec(Metric{Name: "g.worker.served", Layer: "g", Unit: "reqs"}, 3)
	cv.At(0).Add(7)
	cv.At(2).Add(9)
	gv := reg.GaugeVec(Metric{Name: "g.backend.active", Layer: "g", Unit: "reqs"}, 2)
	gv.At(1).Set(5)
	return reg
}

// TestOpenMetricsGolden pins the exposition byte-for-byte against
// testdata/golden.prom (refresh with -update-golden).
func TestOpenMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestOpenMetricsConformance runs the strict parser over the fixed
// registry's exposition and checks the structural facts the renderer must
// guarantee.
func TestOpenMetricsConformance(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams, err := openmetrics.Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition failed conformance: %v\n%s", err, buf.String())
	}
	byName := map[string]*openmetrics.Family{}
	for i := range fams {
		byName[fams[i].Name] = &fams[i]
	}

	c := byName["hermes_g_requests"]
	if c == nil || c.Type != "counter" {
		t.Fatalf("counter family = %+v", c)
	}
	if s := c.Sample("hermes_g_requests_total"); s == nil || s.Value != 42 {
		t.Errorf("counter sample = %+v", s)
	}
	if !strings.Contains(c.Help, "\\ backslash and\na newline") {
		t.Errorf("help round-trip = %q", c.Help)
	}

	if g := byName["hermes_g_open_conns"]; g == nil || g.Type != "gauge" ||
		g.Sample("hermes_g_open_conns") == nil || g.Sample("hermes_g_open_conns").Value != -3 {
		t.Errorf("sanitized gauge family = %+v", g)
	}

	h := byName["hermes_g_latency_ns"]
	if h == nil || h.Type != "histogram" {
		t.Fatalf("histogram family = %+v", h)
	}
	// Cumulative buckets for observations 500,1500,1500,3000,9000 over
	// bounds 1000/2000/4000: 1,3,4, +Inf 5.
	wantBuckets := map[string]float64{"1000": 1, "2000": 3, "4000": 4, "+Inf": 5}
	for i := range h.Samples {
		s := &h.Samples[i]
		if s.Name != "hermes_g_latency_ns_bucket" {
			continue
		}
		if want, ok := wantBuckets[s.Label("le")]; !ok || s.Value != want {
			t.Errorf("bucket le=%s = %g, want %g", s.Label("le"), s.Value, want)
		}
	}
	if s := h.Sample("hermes_g_latency_ns_count"); s == nil || s.Value != 5 {
		t.Errorf("_count = %+v", s)
	}
	if s := h.Sample("hermes_g_latency_ns_sum"); s == nil || s.Value != 15500 {
		t.Errorf("_sum = %+v", s)
	}

	// Vec slots surface as slot labels.
	cv := byName["hermes_g_worker_served"]
	if cv == nil || cv.Type != "counter" || len(cv.Samples) != 3 {
		t.Fatalf("counter-vec family = %+v", cv)
	}
	found := false
	for _, s := range cv.Samples {
		if s.Label("slot") == "2" && s.Value == 9 {
			found = true
		}
	}
	if !found {
		t.Errorf("counter-vec slot 2 missing: %+v", cv.Samples)
	}

	gv := byName["hermes_g_backend_active"]
	if gv == nil || gv.Type != "gauge" || len(gv.Samples) != 2 || gv.Samples[1].Value != 5 || gv.Samples[1].Label("slot") != "1" {
		t.Errorf("gauge-vec family = %+v", gv)
	}
}

// TestOpenMetricsNameCollision: two catalog names mapping to one exposition
// family must be refused, not silently merged.
func TestOpenMetricsNameCollision(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Metric{Name: "x.a", Layer: "t", Unit: "u"})
	reg.Counter(Metric{Name: "x_a", Layer: "t", Unit: "u"})
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, reg.Snapshot()); err == nil {
		t.Fatal("want collision error, got nil")
	}
}

// TestSLOExpositionIncluded: the slo.* gauges registered by the monitor ride
// the same exposition (the burn verdict is scrapeable).
func TestSLOExpositionIncluded(t *testing.T) {
	reg := NewRegistry()
	cfg := DefaultSLOConfig()
	cfg.LatencyMetric = "t.latency_ns"
	reg.Histogram(Metric{Name: "t.latency_ns", Layer: "t", Unit: "ns"}, DurationBuckets())
	if _, err := NewSLO(cfg, reg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := openmetrics.Validate(buf.Bytes()); err != nil {
		t.Fatalf("slo exposition failed conformance: %v", err)
	}
	for _, want := range []string{"hermes_slo_state", "hermes_slo_latency_burn_milli", "hermes_slo_transitions_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s:\n%s", want, buf.String())
		}
	}
}
