package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hermes/internal/telemetry"
)

// stubRows is a registry holding the rows hermesctl reads, under the names
// and kinds internal/proxy registers them with; served as GET /stats it is
// what a live proxy answers.
type stubRows struct {
	reg                    *telemetry.Registry
	served                 *telemetry.CounterVec
	latency                *telemetry.Histogram
	errs, unavail, retries *telemetry.Counter
}

func newStubRows(workers int) *stubRows {
	reg := telemetry.NewRegistry()
	m := func(name string) telemetry.Metric { return telemetry.Metric{Name: name, Layer: "proxy"} }
	return &stubRows{
		reg:     reg,
		served:  reg.CounterVec(m(rowServed), workers),
		latency: reg.Histogram(m(rowLatency), telemetry.DurationBuckets()),
		errs:    reg.Counter(m("proxy.upstream_errors")),
		unavail: reg.Counter(m("proxy.unavailable")),
		retries: reg.Counter(m("proxy.retry.attempts")),
	}
}

// request records n requests of the given latency on worker w.
func (r *stubRows) request(w, n int, latency time.Duration) {
	r.served.At(w).Add(uint64(n))
	for i := 0; i < n; i++ {
		r.latency.Observe(int64(latency))
	}
}

func (r *stubRows) serveStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = r.reg.Snapshot().WriteJSON(w)
}

// stubAdmin serves canned admin-API responses for golden tests.
func stubAdmin(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	serve := func(path string, status int, body string) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write([]byte(body))
		})
	}
	serve("/healthz", 200, `{"status":"degraded","policy":"weighted","backends":2,"available":1,"workers":4,"uptime_sec":61}`)
	serve("/backends", 200, `[
  {"index":0,"address":"127.0.0.1:9001","weight":3,"healthy":true,"active":2,"requests":120,"errors":1,"last_probe_ok":true,"circuit":{"state":"closed","consecutive_fails":0,"opens":0,"half_opens":0,"closes":0}},
  {"index":1,"address":"127.0.0.1:9002","weight":1,"healthy":false,"active":0,"requests":40,"errors":9,"last_probe_ok":false,"circuit":{"state":"open","consecutive_fails":3,"opens":1,"half_opens":0,"closes":0,"open_for_ms":2500}}
]`)
	rows := newStubRows(4)
	for w, n := range []int{40, 41, 39, 40} {
		rows.request(w, n, time.Millisecond)
	}
	rows.errs.Add(2)
	rows.retries.Add(12)
	rows.reg.Counter(telemetry.Metric{Name: "core.schedule.recomputes", Layer: "core", Unit: "passes"}).Add(500)
	rows.reg.Counter(telemetry.Metric{Name: "ebpf.jit.runs", Layer: "ebpf", Unit: "runs"}).Add(160)
	rows.reg.Gauge(telemetry.Metric{Name: "slo.state", Layer: "slo"}).Set(1)
	mux.HandleFunc("/stats", rows.serveStats)
	serve("/status", 200, `{"stats":{"ScheduleCalls":500,"Syncs":480,"Batched":20,"AvgPassed":3.5,"EmptySets":0},
  "selection":["`+strings.Repeat("0", 60)+`1011"],"available_mask":["`+strings.Repeat("0", 60)+`1111"],
  "workers":[{"worker":0},{"worker":1},{"worker":2},{"worker":3}]}`)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func runCtl(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errW bytes.Buffer
	code := run(args, &out, &errW)
	return out.String(), errW.String(), code
}

func TestStatusText(t *testing.T) {
	addr := stubAdmin(t)
	out, _, code := runCtl(t, "-admin", addr, "status")
	want := `status:    degraded
policy:    weighted
backends:  1/2 available
workers:   4
uptime:    1m1s
`
	if out != want {
		t.Errorf("status output:\n%q\nwant:\n%q", out, want)
	}
	if code != 0 {
		t.Errorf("exit = %d, want 0 (degraded is still serving)", code)
	}
}

func TestBackendsText(t *testing.T) {
	addr := stubAdmin(t)
	out, _, code := runCtl(t, "-admin", addr, "backends")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("output lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "IDX") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "127.0.0.1:9001") || !strings.Contains(lines[1], "yes") ||
		!strings.Contains(lines[1], "closed") {
		t.Errorf("healthy row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "127.0.0.1:9002") || !strings.Contains(lines[2], "NO") ||
		!strings.Contains(lines[2], "open") {
		t.Errorf("unhealthy row = %q", lines[2])
	}
}

func TestStatsText(t *testing.T) {
	addr := stubAdmin(t)
	out, _, code := runCtl(t, "-admin", addr, "stats")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	// The proxy.*, core.* and ebpf.* rows as Snapshot.Text prints them, then
	// the scheduler's state from /status.
	for _, want := range []string{
		"proxy.worker.requests_served       counter_vec total=160 per-slot=[40 41 39 40]",
		"proxy.request_latency_ns           histogram   n=160",
		"proxy.upstream_errors              counter     2",
		"proxy.retry.attempts               counter     12",
		"core.schedule.recomputes           counter     500 passes",
		"ebpf.jit.runs                      counter     160 runs",
		"500 passes, 480 syncs (20 batched), avg 3.5 selected, 0 empty",
		"selection bitmap:    1011 (available mask 1111)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "slo.state") {
		t.Errorf("stats prints rows of other layers:\n%s", out)
	}
}

func TestCircuitsTextSorted(t *testing.T) {
	addr := stubAdmin(t)
	out, _, code := runCtl(t, "-admin", addr, "circuits")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	i1 := strings.Index(out, "127.0.0.1:9001")
	i2 := strings.Index(out, "127.0.0.1:9002")
	if i1 < 0 || i2 < 0 || i1 > i2 {
		t.Errorf("circuits not in /backends order:\n%s", out)
	}
	if !strings.Contains(out, "2.5s") {
		t.Errorf("open-for rendering missing:\n%s", out)
	}
}

func TestJSONPassThrough(t *testing.T) {
	addr := stubAdmin(t)
	out, _, code := runCtl(t, "-admin", addr, "-json", "status")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, `"status":"degraded"`) {
		t.Errorf("-json did not pass the body through: %q", out)
	}
}

func TestStatusExitCodeOnUnavailable(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"status":"unavailable","backends":1,"available":0,"workers":2}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	out, _, code := runCtl(t, "-admin", addr, "status")
	if code != 1 {
		t.Errorf("exit = %d, want 1 for an unavailable pool", code)
	}
	if !strings.Contains(out, "unavailable") {
		t.Errorf("output = %q", out)
	}
}

func TestUsageErrors(t *testing.T) {
	if _, _, code := runCtl(t); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if _, errS, code := runCtl(t, "-admin", "127.0.0.1:1", "reboot"); code != 2 || !strings.Contains(errS, "unknown command") {
		t.Errorf("unknown command: exit %d, err %q", code, errS)
	}
	// Unreachable admin is a runtime error, not usage.
	if _, _, code := runCtl(t, "-admin", "127.0.0.1:1", "stats"); code != 1 {
		t.Errorf("unreachable admin: exit %d, want 1", code)
	}
}

func TestMetricsPassThrough(t *testing.T) {
	mux := http.NewServeMux()
	exposition := "# HELP hermes_x x\n# TYPE hermes_x gauge\nhermes_x 1\n# EOF\n"
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_, _ = w.Write([]byte(exposition))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	out, _, code := runCtl(t, "-admin", strings.TrimPrefix(srv.URL, "http://"), "metrics")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if out != exposition {
		t.Errorf("metrics not passed through verbatim:\n%q\nwant\n%q", out, exposition)
	}
}

func TestSLOText(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"state":"warn","since_unix_ns":1,
  "latency_objective":"99% of requests ≤ 250ms","error_objective":"99.9% success",
  "latency_burn":{"page_short":0.5,"page_long":0.25,"warn_short":2.5,"warn_long":2.1},
  "errors_burn":{"page_short":0,"page_long":0,"warn_short":0,"warn_long":0},
  "window_p50_ms":1.25,"window_p99_ms":9.5,"window_req_per_sec":120.5}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	out, _, code := runCtl(t, "-admin", strings.TrimPrefix(srv.URL, "http://"), "slo")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{
		"state:         warn",
		"objectives:    99% of requests ≤ 250ms; 99.9% success",
		"latency burn:  page 0.50x/0.25x (short/long)  warn 2.50x/2.10x",
		"window:        p50 1.25ms, p99 9.50ms, 120.5 req/s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slo output missing %q:\n%s", want, out)
		}
	}
}

func TestStatusShowsSLO(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"status":"ok","backends":2,"available":2,"workers":4,"uptime_sec":5,"slo":"page"}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	out, _, _ := runCtl(t, "-admin", strings.TrimPrefix(srv.URL, "http://"), "status")
	if !strings.Contains(out, "slo:       page") {
		t.Errorf("status output missing slo line:\n%s", out)
	}
}

// TestWatch drives the watch loop against a stub whose rows advance on
// every /stats poll, checking per-interval rates and windowed quantiles (not
// cumulative ones).
func TestWatch(t *testing.T) {
	rows := newStubRows(1)
	rows.request(0, 1000, 50*time.Millisecond) // history the windows must not see
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		rows.request(0, 50, time.Millisecond) // +50 fast requests per interval
		rows.serveStats(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"status":"ok","backends":1,"available":1,"workers":1,"slo":"ok"}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	out, _, code := runCtl(t, "-admin", addr, "-interval", "10ms", "-count", "2", "watch")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 interval rows
		t.Fatalf("watch lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "TIME") || !strings.Contains(lines[0], "REQ/S") {
		t.Errorf("header = %q", lines[0])
	}
	for _, row := range lines[1:] {
		f := strings.Fields(row)
		if len(f) != 9 || f[1] != "ok" || f[2] != "ok" {
			t.Fatalf("row = %q", row)
		}
		var p50, p99 float64
		fmt.Sscan(f[7], &p50)
		fmt.Sscan(f[8], &p99)
		if p50 <= 0 || p50 > 2 || p99 <= 0 || p99 > 2 {
			t.Errorf("row = %q: p50/p99 should be the interval's ≈ 1 ms, not the history's 50 ms", row)
		}
	}

	// -json streams one object per interval with derived rates.
	out, _, code = runCtl(t, "-admin", addr, "-json", "-interval", "10ms", "-count", "2", "watch")
	if code != 0 {
		t.Fatalf("json exit = %d", code)
	}
	jlines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(jlines) != 2 {
		t.Fatalf("json lines = %d:\n%s", len(jlines), out)
	}
	for _, l := range jlines {
		var row watchRow
		if err := json.Unmarshal([]byte(l), &row); err != nil {
			t.Fatalf("bad json row %q: %v", l, err)
		}
		if row.Status != "ok" || row.SLO != "ok" || row.ReqPerSec <= 0 || row.UnixNS == 0 || row.P99MS == nil {
			t.Errorf("json row = %+v", row)
		}
	}
}
