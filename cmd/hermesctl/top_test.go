package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// stubTopAdmin serves a minimal admin plane whose counters advance on every
// /metrics scrape, so two polls produce non-zero rates.
func stubTopAdmin(t *testing.T) string {
	t.Helper()
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		n := polls.Add(1) * 100
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		fmt.Fprintf(w, `# HELP hermes_proxy_worker_requests_served proxy-layer counter_vec (reqs)
# TYPE hermes_proxy_worker_requests_served counter
hermes_proxy_worker_requests_served_total{slot="0"} %d
hermes_proxy_worker_requests_served_total{slot="1"} %d
# HELP hermes_proxy_request_latency_ns proxy-layer histogram (ns)
# TYPE hermes_proxy_request_latency_ns histogram
hermes_proxy_request_latency_ns_bucket{le="1048576"} %d
hermes_proxy_request_latency_ns_bucket{le="16777216"} %d
hermes_proxy_request_latency_ns_bucket{le="+Inf"} %d
hermes_proxy_request_latency_ns_sum %d
hermes_proxy_request_latency_ns_count %d
# HELP hermes_proxy_upstream_errors proxy-layer counter (errors)
# TYPE hermes_proxy_upstream_errors counter
hermes_proxy_upstream_errors_total %d
# HELP hermes_proxy_backend_healthy proxy-layer gauge_vec (bool)
# TYPE hermes_proxy_backend_healthy gauge
hermes_proxy_backend_healthy{slot="0"} 1
hermes_proxy_backend_healthy{slot="1"} 0
# EOF
`, n, n*2, n, 2*n, 2*n, 1000*n, 2*n, n/100)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"state":"warn","since_unix_ns":1,
  "latency_objective":"99% of requests ≤ 250ms","error_objective":"99.9% success",
  "latency_burn":{"page_short":0.5,"page_long":0.25,"warn_short":2.5,"warn_long":2.1},
  "errors_burn":{"page_short":0,"page_long":0,"warn_short":0,"warn_long":0},
  "window_req_per_sec":120.5}`))
	})
	mux.HandleFunc("/backends", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`[
  {"index":0,"address":"127.0.0.1:9001","weight":1,"healthy":true,"active":2,"requests":120,"errors":1,"last_probe_ok":true,"circuit":{"state":"closed"}},
  {"index":1,"address":"127.0.0.1:9002","weight":1,"healthy":false,"down_reason":"active","active":0,"requests":40,"errors":9,"last_probe_ok":false,"circuit":{"state":"open"}}
]`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestTopOnceFrame drives `top -once` end to end against the stub: two
// scrapes, one frame, every dashboard section present.
func TestTopOnceFrame(t *testing.T) {
	addr := stubTopAdmin(t)
	var out, errW bytes.Buffer
	code := run([]string{"-admin", addr, "-interval", "20ms", "-once", "top"}, &out, &errW)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errW.String())
	}
	frame := out.String()
	for _, want := range []string{
		"hermesctl top — " + addr,
		"slo: warn",
		"requests ", "errors ", "p50 ", "p99 ",
		"burn ×budget",
		"WORKER", "w0", "w1",
		"BACKEND", "127.0.0.1:9001", "closed",
		"127.0.0.1:9002", "DOWN:active", "open",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "\x1b[") {
		t.Errorf("-once frame must not emit ANSI control sequences:\n%q", frame)
	}
	// Worker 1 runs at twice worker 0's rate; both sparklines are non-empty.
	lines := strings.Split(frame, "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "w0") || strings.HasPrefix(l, "w1") {
			if !strings.ContainsAny(l, "▁▂▃▄▅▆▇█") {
				t.Errorf("worker row has no sparkline: %q", l)
			}
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 5); got != "     " {
		t.Errorf("empty = %q", got)
	}
	got := sparkline([]float64{0, 1, 2, 4}, 4)
	if !strings.HasPrefix(got, "▁") {
		t.Errorf("zero level = %q", got)
	}
	if !strings.HasSuffix(got, "█") {
		t.Errorf("max level = %q", got)
	}
	// Longer history than width keeps the newest samples, rescaled to the
	// visible window.
	if got := sparkline([]float64{9, 9, 1, 0}, 2); got != "█▁" {
		t.Errorf("window = %q, want %q", got, "█▁")
	}
}

// TestTopUnreachableAdmin fails fast with exit 1.
func TestTopUnreachableAdmin(t *testing.T) {
	var out, errW bytes.Buffer
	if code := run([]string{"-admin", "127.0.0.1:1", "-once", "top"}, &out, &errW); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
}
