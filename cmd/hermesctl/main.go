// Command hermesctl inspects a running hermes-lb through its admin REST API,
// and the artefacts the system writes to disk.
//
//	hermesctl -admin 127.0.0.1:9900 status     # pool availability + SLO state (exit 1 when unavailable)
//	hermesctl -admin 127.0.0.1:9900 backends   # per-backend health, counters, circuit state
//	hermesctl -admin 127.0.0.1:9900 stats      # the proxy.*, core.* and ebpf.* registry rows + scheduler state
//	hermesctl -admin 127.0.0.1:9900 circuits   # the breakers of /backends, one per row
//	hermesctl -admin 127.0.0.1:9900 slo        # burn-rate monitor status
//	hermesctl -admin 127.0.0.1:9900 metrics    # raw OpenMetrics exposition (pipe to `hermesctl check prom`)
//	hermesctl -admin 127.0.0.1:9900 watch      # one row per interval: rates and windowed p50/p99
//	hermesctl -admin 127.0.0.1:9900 top        # live terminal dashboard; -once renders one frame and exits (top.go)
//
// Every number comes from GET /stats, the registry's snapshot (the encoding
// of a hermes-bench -metrics cell); watch and top are two renderings of one
// sampler over it, so they agree. -json prints the raw admin-API response
// instead of the text rendering; for watch it streams one JSON object per
// interval.
//
//	hermesctl check metrics|prom|spans [file…]           # validate a -metrics dump, a /metrics scrape, a span dump (check.go)
//	hermesctl spans [-top n] [-conn id] [-metrics m] [-chrome out.json] dump.jsonl # where each connection's time went (spans.go)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"hermes/internal/core"
	"hermes/internal/proxy"
	"hermes/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errW io.Writer) int {
	fs := flag.NewFlagSet("hermesctl", flag.ContinueOnError)
	fs.SetOutput(errW)
	admin := fs.String("admin", "127.0.0.1:9900", "hermes-lb admin API address")
	asJSON := fs.Bool("json", false, "print the raw admin-API JSON (watch: stream one JSON object per interval)")
	interval := fs.Duration("interval", 2*time.Second, "watch and top refresh period")
	count := fs.Int("count", 0, "watch iterations before exiting (0 = until interrupted)")
	once := fs.Bool("once", false, "top: render a single frame (two quick polls) and exit")
	fs.Usage = func() {
		fmt.Fprintln(errW, "usage: hermesctl [-admin host:port] [-json] [-interval d] [-count n] [-once] status|backends|stats|circuits|slo|metrics|watch|top")
		fmt.Fprintln(errW, "       hermesctl check metrics|prom|spans [file…]")
		fmt.Fprintln(errW, "       hermesctl spans [-top n] [-conn id] [-metrics dump.json] [-chrome out.json] <spans.jsonl>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch fs.Arg(0) {
	case "check":
		return check(fs.Args()[1:], out, errW)
	case "spans":
		return spans(fs.Args()[1:], out, errW)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	cmd := fs.Arg(0)

	switch cmd {
	case "watch":
		return report(errW, watch(*admin, *interval, *count, *asJSON, out))
	case "top":
		return report(errW, runTop(*admin, *interval, *once, out))
	}
	path, ok := map[string]string{
		"status":   "/healthz",
		"backends": "/backends",
		"stats":    "/stats",
		"circuits": "/backends",
		"slo":      "/slo",
		"metrics":  "/metrics",
	}[cmd]
	if !ok {
		fmt.Fprintf(errW, "hermesctl: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}

	body, httpStatus, err := fetch(*admin, path)
	if err != nil {
		return report(errW, err)
	}
	if cmd == "metrics" {
		// The exposition is already text; print it verbatim for scrapers and
		// the `check prom` conformance gate.
		_, _ = out.Write(body)
		return 0
	}
	if *asJSON {
		fmt.Fprintln(out, strings.TrimRight(string(body), "\n"))
	} else if err := render(cmd, *admin, body, out); err != nil {
		return report(errW, err)
	}
	// status reports an unavailable/draining pool (503) as exit 1 so scripts
	// can gate on it.
	if cmd == "status" && httpStatus != http.StatusOK {
		return 1
	}
	return 0
}

// report prints a command's error, if it failed, and returns its exit code.
func report(errW io.Writer, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(errW, "hermesctl:", err)
	return 1
}

// The two rows every rate and windowed quantile is read from.
const (
	rowServed  = "proxy.worker.requests_served" // every request a worker took, whatever became of it
	rowLatency = "proxy.request_latency_ns"
)

// sampler is the one reader of a running proxy's numbers: it decodes GET
// /stats — the registry's snapshot — and pairs it with the previous one, so
// that every rate, per-slot rate and windowed quantile watch and top print
// comes out of one telemetry.WindowDelta.
type sampler struct {
	admin  string
	prev   telemetry.Snapshot
	prevNS int64
}

// poll fetches /stats and returns the window from the previous poll to this
// one. The first call only primes the sampler: its window has no start edge.
func (s *sampler) poll() (telemetry.WindowDelta, error) {
	var cur telemetry.Snapshot
	status, err := getJSON(s.admin, "/stats", &cur)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return telemetry.WindowDelta{}, fmt.Errorf("GET /stats: %w", err)
	}
	now := time.Now().UnixNano()
	d := telemetry.NewWindowDelta(s.prevNS, now, s.prev, cur)
	s.prev, s.prevNS = cur, now
	return d, nil
}

// watchRow is one poll interval: the rates and windowed latency quantiles of
// its WindowDelta, which watch prints as a row (and streams under -json) and
// top as its totals line, and the healthz/SLO verdicts watch adds.
type watchRow struct {
	UnixNS        int64    `json:"unix_ns"`
	Status        string   `json:"status"`
	SLO           string   `json:"slo,omitempty"`
	ReqPerSec     float64  `json:"req_per_sec"`
	ErrPerSec     float64  `json:"err_per_sec"`
	UnavailPerSec float64  `json:"unavailable_per_sec"`
	RetryPerSec   float64  `json:"retry_per_sec"`
	P50MS         *float64 `json:"p50_ms,omitempty"`
	P99MS         *float64 `json:"p99_ms,omitempty"`
}

// rowOf reads an interval's row out of its window.
func rowOf(d telemetry.WindowDelta) watchRow {
	row := watchRow{
		UnixNS:        d.EndNS,
		ReqPerSec:     d.Rate(rowServed),
		ErrPerSec:     d.Rate("proxy.upstream_errors"),
		UnavailPerSec: d.Rate("proxy.unavailable"),
		RetryPerSec:   d.Rate("proxy.retry.attempts"),
	}
	if p50, ok := d.Quantile(rowLatency, 0.50); ok {
		p99, _ := d.Quantile(rowLatency, 0.99)
		p50, p99 = p50/1e6, p99/1e6
		row.P50MS, row.P99MS = &p50, &p99
	}
	return row
}

// ms renders an optional millisecond reading: "-" when there was none.
func ms(v *float64, unit string) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf("%.2f%s", *v, unit)
}

// watch polls /stats and /healthz every interval and prints one row per
// interval; the first row appears after one full interval.
func watch(admin string, interval time.Duration, count int, asJSON bool, out io.Writer) error {
	s := sampler{admin: admin}
	if _, err := s.poll(); err != nil {
		return err
	}
	if !asJSON {
		fmt.Fprintf(out, "%-9s %-12s %-6s %9s %8s %8s %8s %8s %8s\n",
			"TIME", "STATUS", "SLO", "REQ/S", "ERR/S", "503/S", "RETRY/S", "P50MS", "P99MS")
	}
	enc := json.NewEncoder(out)
	for i := 0; count == 0 || i < count; i++ {
		time.Sleep(interval)
		d, err := s.poll()
		var hv proxy.HealthzView
		if err == nil {
			_, err = getJSON(admin, "/healthz", &hv)
		}
		if err != nil {
			return err
		}
		row := rowOf(d)
		row.Status, row.SLO = hv.Status, hv.SLO
		if asJSON {
			if err := enc.Encode(row); err != nil {
				return err
			}
			continue
		}
		slo := row.SLO
		if slo == "" {
			slo = "-"
		}
		fmt.Fprintf(out, "%-9s %-12s %-6s %9.1f %8.1f %8.1f %8.1f %8s %8s\n",
			time.Unix(0, row.UnixNS).Format("15:04:05"), row.Status, slo,
			row.ReqPerSec, row.ErrPerSec, row.UnavailPerSec, row.RetryPerSec, ms(row.P50MS, ""), ms(row.P99MS, ""))
	}
	return nil
}

// getJSON decodes the admin API's answer at path into v.
func getJSON(admin, path string, v any) (status int, err error) {
	body, status, err := fetch(admin, path)
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	return status, err
}

func fetch(admin, path string) ([]byte, int, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + admin + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return body, resp.StatusCode, nil
}

func render(cmd, admin string, body []byte, out io.Writer) error {
	switch cmd {
	case "status":
		var v proxy.HealthzView
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		fmt.Fprintf(out, "status:    %s\n", v.Status)
		if v.Policy != "" {
			fmt.Fprintf(out, "policy:    %s\n", v.Policy)
		}
		fmt.Fprintf(out, "backends:  %d/%d available\n", v.Available, v.Backends)
		fmt.Fprintf(out, "workers:   %d\n", v.Workers)
		fmt.Fprintf(out, "uptime:    %s\n", time.Duration(v.UptimeSec)*time.Second)
		if v.SLO != "" {
			fmt.Fprintf(out, "slo:       %s\n", v.SLO)
		}
	case "backends":
		var bs []proxy.BackendView
		if err := json.Unmarshal(body, &bs); err != nil {
			return err
		}
		fmt.Fprintf(out, "%-4s %-22s %-7s %-9s %-7s %-9s %-7s %-7s %s\n",
			"IDX", "ADDRESS", "WEIGHT", "HEALTHY", "ACTIVE", "REQUESTS", "ERRORS", "DIALS", "CIRCUIT")
		for _, b := range bs {
			healthy := "yes"
			if !b.Healthy {
				healthy = "NO"
			}
			circuit := "-"
			if b.Circuit != nil {
				circuit = b.Circuit.State
			}
			fmt.Fprintf(out, "%-4d %-22s %-7d %-9s %-7d %-9d %-7d %-7d %s\n",
				b.Index, b.Address, b.Weight, healthy, b.Active, b.Requests, b.Errors, b.Dials, circuit)
		}
	case "stats":
		var snap telemetry.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return err
		}
		rows := snap.Metrics[:0]
		for _, m := range snap.Metrics {
			if m.Layer == "proxy" || m.Layer == "core" || m.Layer == "ebpf" {
				rows = append(rows, m)
			}
		}
		fmt.Fprint(out, telemetry.Snapshot{Metrics: rows}.Text())
		// What a counter cannot say: the scheduler's averages and bitmaps.
		var st struct {
			Stats         core.Stats `json:"stats"`
			Selection     []string   `json:"selection"`
			AvailableMask []string   `json:"available_mask"`
			Workers       []struct{} `json:"workers"`
		}
		if _, err := getJSON(admin, "/status", &st); err != nil {
			return fmt.Errorf("GET /status: %w", err)
		}
		fmt.Fprintf(out, "scheduler:           %d passes, %d syncs (%d batched), avg %.1f selected, %d empty\n",
			st.Stats.ScheduleCalls, st.Stats.Syncs, st.Stats.Batched, st.Stats.AvgPassed, st.Stats.EmptySets)
		for gi := 0; gi < len(st.Selection) && gi < len(st.AvailableMask); gi++ {
			// A group's word is 64 digits; show its workers' only.
			width := len(st.Workers) - 64*gi
			fmt.Fprintf(out, "selection bitmap:    %s (available mask %s)\n",
				lastN(st.Selection[gi], width), lastN(st.AvailableMask[gi], width))
		}
	case "slo":
		var v telemetry.SLOStatus
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		fmt.Fprintf(out, "state:         %s\n", v.State)
		fmt.Fprintf(out, "objectives:    %s; %s\n", v.LatencyObjective, v.ErrorObjective)
		fmt.Fprintf(out, "latency burn:  page %.2fx/%.2fx (short/long)  warn %.2fx/%.2fx\n",
			v.Latency.PageShort, v.Latency.PageLong, v.Latency.WarnShort, v.Latency.WarnLong)
		fmt.Fprintf(out, "errors burn:   page %.2fx/%.2fx (short/long)  warn %.2fx/%.2fx\n",
			v.Errors.PageShort, v.Errors.PageLong, v.Errors.WarnShort, v.Errors.WarnLong)
		fmt.Fprintf(out, "window:        p50 %s, p99 %s, %.1f req/s\n",
			ms(v.WindowP50MS, "ms"), ms(v.WindowP99MS, "ms"), v.WindowReqPerSec)
	case "circuits":
		var bs []proxy.BackendView
		if err := json.Unmarshal(body, &bs); err != nil {
			return err
		}
		if len(bs) == 0 || bs[0].Circuit == nil {
			fmt.Fprintln(out, "circuit breaking disabled")
			return nil
		}
		fmt.Fprintf(out, "%-22s %-10s %-6s %-6s %-11s %-7s %s\n",
			"ADDRESS", "STATE", "FAILS", "OPENS", "HALF-OPENS", "CLOSES", "OPEN-FOR")
		for _, b := range bs {
			c := b.Circuit
			if c == nil {
				continue
			}
			openFor := "-"
			if c.State != "closed" {
				openFor = fmt.Sprintf("%.1fs", c.OpenForMS/1000)
			}
			fmt.Fprintf(out, "%-22s %-10s %-6d %-6d %-11d %-7d %s\n",
				b.Address, c.State, c.Fails, c.Opens, c.HalfOpens, c.Closes, openFor)
		}
	}
	return nil
}

// lastN returns the last n bytes of s (all of it when n does not fit).
func lastN(s string, n int) string {
	if n <= 0 || n >= len(s) {
		return s
	}
	return s[len(s)-n:]
}
