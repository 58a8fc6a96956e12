// Command hermesctl inspects a running hermes-lb through its admin REST API,
// and the artefacts the system writes to disk.
//
//	hermesctl -admin 127.0.0.1:9900 status     # pool availability + SLO state (exit 1 when unavailable)
//	hermesctl -admin 127.0.0.1:9900 backends   # per-backend health, counters, circuit state
//	hermesctl -admin 127.0.0.1:9900 stats      # request/retry/latency + scheduler state
//	hermesctl -admin 127.0.0.1:9900 circuits   # per-backend breaker snapshots
//	hermesctl -admin 127.0.0.1:9900 slo        # burn-rate monitor status
//	hermesctl -admin 127.0.0.1:9900 metrics    # raw OpenMetrics exposition (pipe to `hermesctl check prom`)
//	hermesctl -admin 127.0.0.1:9900 watch      # periodic re-render with per-interval rates
//	hermesctl -admin 127.0.0.1:9900 top        # live terminal dashboard; -once renders one frame and exits (top.go)
//
// -json prints the raw admin-API response instead of the text rendering; for
// watch it streams one JSON object per interval.
//
//	hermesctl check metrics|prom|spans [file…]           # validate a -metrics / -prom / -spans dump (check.go)
//	hermesctl spans [-top n] [-conn id] [-metrics m] [-chrome out.json] dump.jsonl # where each connection's time went (spans.go)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

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
	once := fs.Bool("once", false, "top: render a single frame (two quick scrapes) and exit")
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
		return watch(*admin, *interval, *count, *asJSON, out, errW)
	case "top":
		return runTop(*admin, *interval, *once, out, errW)
	}
	path, ok := map[string]string{
		"status":   "/healthz",
		"backends": "/backends",
		"stats":    "/stats",
		"circuits": "/circuits",
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
		fmt.Fprintln(errW, "hermesctl:", err)
		return 1
	}
	if cmd == "metrics" {
		// The exposition is already text; print it verbatim for scrapers and
		// the `check prom` conformance gate.
		_, _ = out.Write(body)
		return 0
	}
	if *asJSON {
		fmt.Fprintln(out, strings.TrimRight(string(body), "\n"))
		return exitFor(cmd, httpStatus)
	}
	if err := render(cmd, body, out); err != nil {
		fmt.Fprintln(errW, "hermesctl:", err)
		return 1
	}
	return exitFor(cmd, httpStatus)
}

// exitFor maps the HTTP status to the process exit code: status reports an
// unavailable/draining pool (503) as exit 1 so scripts can gate on it.
func exitFor(cmd string, httpStatus int) int {
	if cmd == "status" && httpStatus != http.StatusOK {
		return 1
	}
	return 0
}

// watchRow is one watch interval's derived view: rates over the interval
// from successive cumulative counters, point-in-time latency quantiles, and
// the healthz/SLO verdicts. Also the -json stream shape.
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

// watch polls /stats and /healthz every interval and prints per-interval
// rate columns — deltas between successive cumulative counters, so the first
// row appears after one full interval.
func watch(admin string, interval time.Duration, count int, asJSON bool, out, errW io.Writer) int {
	fetchStats := func() (proxy.StatsView, proxy.HealthzView, error) {
		var sv proxy.StatsView
		var hv proxy.HealthzView
		body, _, err := fetch(admin, "/stats")
		if err == nil {
			err = json.Unmarshal(body, &sv)
		}
		if err != nil {
			return sv, hv, err
		}
		body, _, err = fetch(admin, "/healthz")
		if err == nil {
			err = json.Unmarshal(body, &hv)
		}
		return sv, hv, err
	}
	prev, _, err := fetchStats()
	if err != nil {
		fmt.Fprintln(errW, "hermesctl:", err)
		return 1
	}
	prevAt := time.Now()
	if !asJSON {
		fmt.Fprintf(out, "%-9s %-12s %-6s %9s %8s %8s %8s %8s %8s\n",
			"TIME", "STATUS", "SLO", "REQ/S", "ERR/S", "503/S", "RETRY/S", "P50MS", "P99MS")
	}
	enc := json.NewEncoder(out)
	for i := 0; count == 0 || i < count; i++ {
		time.Sleep(interval)
		cur, hv, err := fetchStats()
		if err != nil {
			fmt.Fprintln(errW, "hermesctl:", err)
			return 1
		}
		now := time.Now()
		dt := now.Sub(prevAt).Seconds()
		served := rate(float64(cur.Served), float64(prev.Served), dt)
		errs := rate(float64(cur.Errors), float64(prev.Errors), dt)
		unavail := rate(float64(cur.Unavailable), float64(prev.Unavailable), dt)
		row := watchRow{
			UnixNS:        now.UnixNano(),
			Status:        hv.Status,
			SLO:           hv.SLO,
			ReqPerSec:     served + errs + unavail,
			ErrPerSec:     errs,
			UnavailPerSec: unavail,
			RetryPerSec:   rate(float64(cur.RetryAttempts), float64(prev.RetryAttempts), dt),
			P50MS:         cur.LatencyP50MS,
			P99MS:         cur.LatencyP99MS,
		}
		if asJSON {
			if err := enc.Encode(row); err != nil {
				fmt.Fprintln(errW, "hermesctl:", err)
				return 1
			}
		} else {
			p50, p99 := "-", "-"
			if row.P50MS != nil {
				p50 = fmt.Sprintf("%.2f", *row.P50MS)
			}
			if row.P99MS != nil {
				p99 = fmt.Sprintf("%.2f", *row.P99MS)
			}
			slo := row.SLO
			if slo == "" {
				slo = "-"
			}
			fmt.Fprintf(out, "%-9s %-12s %-6s %9.1f %8.1f %8.1f %8.1f %8s %8s\n",
				now.Format("15:04:05"), row.Status, slo,
				row.ReqPerSec, row.ErrPerSec, row.UnavailPerSec, row.RetryPerSec, p50, p99)
		}
		prev, prevAt = cur, now
	}
	return 0
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

func render(cmd string, body []byte, out io.Writer) error {
	switch cmd {
	case "status":
		var v proxy.HealthzView
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		fmt.Fprintf(out, "status:    %s\n", v.Status)
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
		fmt.Fprintf(out, "%-4s %-22s %-7s %-9s %-7s %-9s %-7s %-10s %s\n",
			"IDX", "ADDRESS", "WEIGHT", "HEALTHY", "ACTIVE", "REQUESTS", "ERRORS", "CIRCUIT", "REASON")
		for _, b := range bs {
			healthy := "yes"
			if !b.Healthy {
				healthy = "NO"
			}
			circuit := "-"
			if b.Circuit != nil {
				circuit = b.Circuit.State
			}
			fmt.Fprintf(out, "%-4d %-22s %-7d %-9s %-7d %-9d %-7d %-10s %s\n",
				b.Index, b.Address, b.Weight, healthy, b.Active, b.Requests, b.Errors, circuit, b.Reason)
		}
	case "stats":
		var v proxy.StatsView
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		fmt.Fprintf(out, "uptime:              %.1fs\n", v.UptimeSec)
		fmt.Fprintf(out, "policy:              %s\n", v.Policy)
		fmt.Fprintf(out, "served:              %d\n", v.Served)
		fmt.Fprintf(out, "errors:              %d\n", v.Errors)
		fmt.Fprintf(out, "unavailable (503):   %d\n", v.Unavailable)
		if v.LatencyP50MS != nil && v.LatencyP99MS != nil {
			fmt.Fprintf(out, "latency p50/p99:     %.2fms / %.2fms\n", *v.LatencyP50MS, *v.LatencyP99MS)
		} else {
			fmt.Fprintf(out, "latency p50/p99:     - / -\n")
		}
		fmt.Fprintf(out, "retries:             %d attempted, %d recovered, %d exhausted\n",
			v.RetryAttempts, v.RetryRecovered, v.RetryExhausted)
		fmt.Fprintf(out, "circuit rejections:  %d\n", v.CircuitRejections)
		fmt.Fprintf(out, "health probes:       %d (%d transitions)\n", v.HealthProbes, v.HealthTransitions)
		fmt.Fprintf(out, "worker handled:      %v\n", v.WorkerHandled)
		s := v.Scheduler
		fmt.Fprintf(out, "scheduler:           %d passes, %d syncs (%d batched), avg %.1f selected, %d empty\n",
			s.ScheduleCalls, s.Syncs, s.Batched, s.AvgPassed, s.EmptySets)
		fmt.Fprintf(out, "selection bitmap:    %0*b (available mask %0*b)\n",
			v.Workers, s.SelectionBitmap, v.Workers, s.AvailableMask)
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
		p50, p99 := "-", "-"
		if v.WindowP50MS != nil {
			p50 = fmt.Sprintf("%.2fms", *v.WindowP50MS)
		}
		if v.WindowP99MS != nil {
			p99 = fmt.Sprintf("%.2fms", *v.WindowP99MS)
		}
		fmt.Fprintf(out, "window:        p50 %s, p99 %s, %.1f req/s\n", p50, p99, v.WindowReqPerSec)
	case "circuits":
		var cs map[string]proxy.CircuitView
		if err := json.Unmarshal(body, &cs); err != nil {
			return err
		}
		if len(cs) == 0 {
			fmt.Fprintln(out, "circuit breaking disabled")
			return nil
		}
		addrs := make([]string, 0, len(cs))
		for a := range cs {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs) // stable order for scripting and golden tests
		fmt.Fprintf(out, "%-22s %-10s %-6s %-6s %-11s %-7s %s\n",
			"ADDRESS", "STATE", "FAILS", "OPENS", "HALF-OPENS", "CLOSES", "OPEN-FOR")
		for _, a := range addrs {
			c := cs[a]
			openFor := "-"
			if c.State != "closed" {
				openFor = fmt.Sprintf("%.1fs", c.OpenForMS/1000)
			}
			fmt.Fprintf(out, "%-22s %-10s %-6d %-6d %-11d %-7d %s\n",
				a, c.State, c.Fails, c.Opens, c.HalfOpens, c.Closes, openFor)
		}
	}
	return nil
}
