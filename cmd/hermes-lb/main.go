// Command hermes-lb is a production-grade HTTP/1.1 reverse proxy over real
// TCP whose worker scheduling runs the Hermes control loop. The proxy engine
// lives in internal/proxy (backend pool, health checks, circuit breaking,
// retries, graceful drain); this command is flag parsing and lifecycle.
//
//	hermes-lb -listen :8080 -backends 127.0.0.1:9001,127.0.0.1:9002*3
//	hermes-lb -config config.yaml       # file + flag overrides
//	hermes-lb -demo                     # self-contained demo load
//	hermes-lb -serve-backend :9001      # trivial upstream for smoke tests
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hermes/internal/faults"
	"hermes/internal/proxy"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"

	_ "net/http/pprof" // registered on the default mux, served only via -debug-addr
)

func main() { os.Exit(run()) }

func run() int {
	var (
		config       = flag.String("config", "", "YAML config file (docs/PROXY.md); explicit flags override it")
		applyFlags   = proxy.BindFlags(flag.CommandLine) // -listen -backends -workers -policy -admin -drain-timeout -slo
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (off unless set; bind to localhost)")
		statsEvery   = flag.Duration("stats-every", 0, "periodically print windowed telemetry deltas and rates (0 = off)")
		trace        = flag.String("trace", "", "record spans (docs/TRACING.md), written on shutdown: .jsonl = the span dump hermesctl reads; else a Chrome trace for Perfetto")
		demo         = flag.Bool("demo", false, "run a self-contained demo (own backends + client load)")
		demoReqs     = flag.Int("demo-requests", 2000, "requests to issue in demo mode")
		faultSpec    = flag.String("faults", "", "fault schedule (docs/FAULTS.md grammar, times relative to start), e.g. \"hang@5s:w2:dur=3s;slow@10s:x=4:dur=5s\"")
		serveBackend = flag.String("serve-backend", "", "run a trivial HTTP backend on this address instead of the proxy (smoke tests)")
	)
	flag.Parse()

	if *serveBackend != "" {
		return runStubBackend(*serveBackend)
	}

	var sched faults.Schedule
	if *faultSpec != "" {
		var err error
		if sched, err = faults.ParseSpec(*faultSpec); err != nil {
			fmt.Fprintln(os.Stderr, "hermes-lb:", err)
			return 2
		}
	}

	var tracer *tracing.Tracer
	if *trace != "" {
		// Real goroutines race on the recorder, unlike the single-threaded
		// simulation: take the mutex-guarded variant.
		cfg := tracing.DefaultConfig()
		cfg.Concurrent = true
		tracer = tracing.New(cfg)
	}

	// Precedence: defaults, then the config file, then explicit flags.
	cfg := proxy.DefaultConfig()
	if *config != "" {
		var err error
		if cfg, err = proxy.LoadFile(*config, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "hermes-lb:", err)
			return 2
		}
	}
	if err := applyFlags(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hermes-lb:", err)
		return 2
	}

	if *debugAddr != "" {
		// net/http/pprof registers on the default mux; serve it only when
		// explicitly asked, on its own listener, never on the admin or
		// client-facing address.
		go func() {
			fmt.Printf("hermes-lb: pprof on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "hermes-lb: debug:", err)
			}
		}()
	}

	if *demo {
		return runDemo(cfg, *demoReqs, *statsEvery, tracer, *trace, sched)
	}
	if len(cfg.Backends) == 0 {
		fmt.Fprintln(os.Stderr, "hermes-lb: -backends or a config file required (or use -demo)")
		return 2
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hermes-lb:", err)
		return 2
	}

	p, err := proxy.New(cfg, proxy.WithTracer(tracer), proxy.WithFaults(sched))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hermes-lb:", err)
		return 1
	}
	if cfg.AdminListen != "" {
		go func() {
			fmt.Printf("hermes-lb: admin API on %s\n", cfg.AdminListen)
			srv := &http.Server{Addr: cfg.AdminListen, Handler: proxy.AdminHandler(p)}
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "hermes-lb: admin:", err)
			}
		}()
	}
	if *statsEvery > 0 {
		go reportStats(p, *statsEvery)
	}
	fmt.Printf("hermes-lb: %d workers proxying %s (%s policy, %d backends)\n",
		cfg.Workers, p.Addr(), cfg.Policy, len(cfg.Backends))

	// Block until interrupted, then drain gracefully: stop accepting, wait
	// out in-flight requests up to the drain deadline, flush a final
	// telemetry snapshot, and write the span dump.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("\nhermes-lb: draining (deadline %s)\n", cfg.DrainTimeout)
	code := 0
	if err := p.Shutdown(cfg.DrainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "hermes-lb:", err)
		code = 1
	}
	if *statsEvery > 0 {
		printStats(p)
	}
	if tracer != nil {
		if err := writeTrace(*trace, tracer); err != nil {
			fmt.Fprintln(os.Stderr, "hermes-lb:", err)
			return 1
		}
		fmt.Printf("hermes-lb: span dump written to %s\n", *trace)
	}
	return code
}

// reportStats periodically prints windowed telemetry: each interval shows
// the deltas and rates since the previous print, not cumulative totals — a
// quiet proxy prints zeros, a busy one prints its current req/s and windowed
// quantiles. Shutdown paths call printStats once more for the cumulative
// final snapshot, so the run's totals are never lost.
func reportStats(p *proxy.Proxy, every time.Duration) {
	prev := p.Registry().Snapshot()
	prevNS := time.Now().UnixNano()
	for range time.Tick(every) {
		cur := p.Registry().Snapshot()
		nowNS := time.Now().UnixNano()
		d := telemetry.NewWindowDelta(prevNS, nowNS, prev, cur)
		fmt.Printf("--- telemetry %s (last %s) ---\n%s",
			time.Now().Format(time.RFC3339), d.Elapsed().Round(time.Millisecond), d.Text())
		prev, prevNS = cur, nowNS
	}
}

func printStats(p *proxy.Proxy) {
	snap := p.Registry().Snapshot()
	fmt.Printf("--- telemetry %s ---\n%s", time.Now().Format(time.RFC3339), snap.Text())
}

// writeTrace flushes the flight recorder and writes its span dump.
func writeTrace(path string, tr *tracing.Tracer) error {
	tr.Flush()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := tracing.MetaFor("hermes-lb", tr.Stats())
	if strings.HasSuffix(path, ".jsonl") {
		err = tracing.WriteJSONL(f, tr.Spans(), meta)
	} else {
		err = tracing.WriteChrome(f, tr.Spans(), meta)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runStubBackend is -serve-backend: the stub origin on addr until
// interrupted — enough to smoke-test the proxy without a second binary.
func runStubBackend(addr string) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hermes-lb:", err)
		return 1
	}
	fmt.Printf("hermes-lb: stub backend on %s\n", ln.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ln.Close()
	}()
	serveStub(ln)
	return 0
}

// serveStub is the one stub origin (-serve-backend, and -demo's backends): a
// trivial HTTP/1.1 upstream answering 200 to everything (including health
// probes) with a body naming the instance, keep-alive honoured. It returns
// when ln is closed.
func serveStub(ln net.Listener) {
	// http.Serve's only error is the closed listener, which is how it stops.
	_ = http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hello from %s (%s)", ln.Addr(), r.RequestURI)
	}))
}
