package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stubTopAdmin serves a minimal admin plane. before runs ahead of every
// /stats poll, so a test decides what each interval holds.
func stubTopAdmin(t *testing.T, rows *stubRows, before func(poll int)) string {
	t.Helper()
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		before(int(polls.Add(1)))
		rows.serveStats(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"status":"ok","backends":2,"available":1,"workers":2}`))
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
  {"index":1,"address":"127.0.0.1:9002","weight":1,"healthy":false,"active":0,"requests":40,"errors":9,"last_probe_ok":false,"circuit":{"state":"open"}}
]`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestTopOnceFrame drives `top -once` end to end against the stub: two
// polls, one frame, every dashboard section present.
func TestTopOnceFrame(t *testing.T) {
	rows := newStubRows(2)
	addr := stubTopAdmin(t, rows, func(int) {
		rows.request(0, 100, time.Millisecond)
		rows.request(1, 200, 10*time.Millisecond)
		rows.errs.Inc()
	})
	var out, errW bytes.Buffer
	code := run([]string{"-admin", addr, "-interval", "20ms", "-once", "top"}, &out, &errW)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errW.String())
	}
	frame := out.String()
	for _, want := range []string{
		"hermesctl top — " + addr,
		"slo: warn",
		"requests ", "errors ", "p50 ", "p99 ", "ms",
		"burn ×budget",
		"WORKER", "w0", "w1",
		"BACKEND", "127.0.0.1:9001", "closed",
		"127.0.0.1:9002", "DOWN", "open",
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

// TestWatchAndTopAgree: one interval read by both commands — 200 fast
// requests and 4 errors on top of a slow history — prints the same numbers.
// The quantiles are the interval's in both (watch once printed the cumulative
// ones under the same heading), and errors per request is 4/200 in both
// whatever each run's wall-clock interval came to.
func TestWatchAndTopAgree(t *testing.T) {
	interval := func(poll int, rows *stubRows) {
		if poll == 1 {
			rows.request(0, 1000, 50*time.Millisecond) // before the window
			return
		}
		rows.request(0, 120, time.Millisecond)
		rows.request(1, 76, 3*time.Millisecond)
		rows.request(1, 4, 10*time.Millisecond)
		rows.errs.Add(4)
	}
	rowsW, rowsT := newStubRows(2), newStubRows(2)
	addrW := stubTopAdmin(t, rowsW, func(poll int) { interval(poll, rowsW) })
	addrT := stubTopAdmin(t, rowsT, func(poll int) { interval(poll, rowsT) })

	out, errS, code := runCtl(t, "-admin", addrW, "-json", "-interval", "20ms", "-count", "1", "watch")
	if code != 0 {
		t.Fatalf("watch exit = %d: %s", code, errS)
	}
	var row watchRow
	if err := json.Unmarshal([]byte(out), &row); err != nil {
		t.Fatalf("watch row %q: %v", out, err)
	}
	frame, errS, code := runCtl(t, "-admin", addrT, "-interval", "20ms", "-once", "top")
	if code != 0 {
		t.Fatalf("top exit = %d: %s", code, errS)
	}
	var req, errs, unavail float64
	var p50, p99 string
	totals := strings.Split(frame, "\n")[1]
	if _, err := fmt.Sscanf(totals, "requests %f/s errors %f/s 503s %f/s p50 %s p99 %s", &req, &errs, &unavail, &p50, &p99); err != nil {
		t.Fatalf("top totals line %q: %v", totals, err)
	}

	if row.P50MS == nil || row.P99MS == nil {
		t.Fatalf("watch row has no quantiles: %s", out)
	}
	if w50, w99 := ms(row.P50MS, "ms"), ms(row.P99MS, "ms"); w50 != p50 || w99 != p99 {
		t.Errorf("watch p50/p99 = %s/%s, top = %s/%s over the same interval", w50, w99, p50, p99)
	}
	if *row.P50MS > 2 || *row.P99MS < 8 || *row.P99MS > 17 {
		t.Errorf("p50/p99 = %.2f/%.2f ms: want the interval's (≈ 1 and ≈ 10), not the history's 50", *row.P50MS, *row.P99MS)
	}
	for name, r := range map[string]float64{"watch": row.ErrPerSec / row.ReqPerSec, "top": errs / req} {
		if r < 0.0195 || r > 0.0205 {
			t.Errorf("%s: err/s ÷ req/s = %.4f, want 4/200", name, r)
		}
	}
	if unavail != 0 || row.UnavailPerSec != 0 {
		t.Errorf("503s: top %.1f/s, watch %.1f/s, want none", unavail, row.UnavailPerSec)
	}
}

// TestTopUnreachableAdmin fails fast with exit 1.
func TestTopUnreachableAdmin(t *testing.T) {
	var out, errW bytes.Buffer
	if code := run([]string{"-admin", "127.0.0.1:1", "-once", "top"}, &out, &errW); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
}
