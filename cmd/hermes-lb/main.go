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
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"hermes/internal/faults"
	"hermes/internal/proxy"
	"hermes/internal/tracing"

	_ "net/http/pprof" // registered on the default mux, served only via -debug-addr
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the one lifecycle, for a proxy and for -demo alike: build the proxy,
// serve the admin API, wait (for a signal, or for the demo's clients), drain,
// and write the span dump.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hermes-lb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		config       = fs.String("config", "", "YAML config file (docs/PROXY.md); explicit flags override it")
		applyFlags   = proxy.BindFlags(fs) // -listen -backends -workers -policy -admin -drain-timeout -slo
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof on this address (off unless set; bind to localhost)")
		trace        = fs.String("trace", "", "record spans (docs/TRACING.md) and write the span dump hermesctl reads to this path on shutdown")
		demoMode     = fs.Bool("demo", false, "run a self-contained demo (own backends + client load)")
		faultSpec    = fs.String("faults", "", "fault schedule (docs/FAULTS.md grammar, times relative to start), e.g. \"hang@5s:w2:dur=3s;slow@10s:x=4:dur=5s\"")
		serveBackend = fs.String("serve-backend", "", "run a trivial HTTP backend on this address instead of the proxy (smoke tests)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "hermes-lb:", err)
		return code
	}

	if *serveBackend != "" {
		return runStubBackend(*serveBackend, stdout, stderr)
	}

	var sched faults.Schedule
	if *faultSpec != "" {
		var err error
		if sched, err = faults.ParseSpec(*faultSpec); err != nil {
			return fail(2, err)
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
			return fail(2, err)
		}
	}
	if err := applyFlags(&cfg); err != nil {
		return fail(2, err)
	}

	var d *demo
	if *demoMode {
		var err error
		if d, err = startDemo(&cfg, &sched, stdout); err != nil {
			return fail(1, err)
		}
		defer d.close()
	}
	if len(cfg.Backends) == 0 {
		fmt.Fprintln(stderr, "hermes-lb: -backends or a config file required (or use -demo)")
		return 2
	}
	if err := cfg.Validate(); err != nil {
		return fail(2, err)
	}

	if *debugAddr != "" {
		// net/http/pprof registers on the default mux; serve it only when
		// explicitly asked, on its own listener, never on the admin or
		// client-facing address.
		fmt.Fprintf(stdout, "hermes-lb: pprof on %s\n", *debugAddr)
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(stderr, "hermes-lb: debug:", err)
			}
		}()
	}

	p, err := proxy.New(cfg, proxy.WithTracer(tracer), proxy.WithFaults(sched))
	if err != nil {
		return fail(1, err)
	}
	if cfg.AdminListen != "" {
		ln, err := net.Listen("tcp", cfg.AdminListen)
		if err != nil {
			p.Close()
			return fail(1, fmt.Errorf("admin: %w", err))
		}
		srv := &http.Server{Handler: proxy.AdminHandler(p)}
		go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed once run closes srv
		defer srv.Close()
		fmt.Fprintf(stdout, "hermes-lb: admin API on %s\n", ln.Addr())
	}
	fmt.Fprintf(stdout, "hermes-lb: %d workers proxying %s (%s policy, %d backends)\n",
		cfg.Workers, p.Addr(), cfg.Policy, len(cfg.Backends))

	if d != nil {
		d.load(p.Addr())
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		signal.Stop(sig)
	}

	// Drain gracefully: stop accepting, wait out in-flight requests up to
	// the drain deadline, then report and write the span dump. A client can
	// read its reply before the worker counts the request; after the drain
	// every count is final.
	fmt.Fprintf(stdout, "\nhermes-lb: draining (deadline %s)\n", cfg.DrainTimeout)
	code := 0
	if err := p.Shutdown(cfg.DrainTimeout); err != nil {
		code = fail(1, err)
	}
	if d != nil {
		d.report(stdout, p)
	}
	if tracer != nil {
		if err := writeTrace(*trace, tracer); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "hermes-lb: span dump written to %s\n", *trace)
	}
	return code
}

// writeTrace flushes the flight recorder and writes its span dump.
func writeTrace(path string, tr *tracing.Tracer) error {
	tr.Flush()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tracing.WriteJSONL(f, tr.Spans(), tracing.MetaFor("hermes-lb", tr.Stats()))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runStubBackend is -serve-backend: the stub origin on addr until
// interrupted — enough to smoke-test the proxy without a second binary.
func runStubBackend(addr string, stdout, stderr io.Writer) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(stderr, "hermes-lb:", err)
		return 1
	}
	fmt.Fprintf(stdout, "hermes-lb: stub backend on %s\n", ln.Addr())
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
