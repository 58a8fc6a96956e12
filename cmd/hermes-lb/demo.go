package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/faults"
	"hermes/internal/proxy"
	"hermes/internal/tracing"
)

// runDemo spins up two stub origins, the proxy, and a client fleet, with one
// worker poisoned to show the bitmap steering around it.
func runDemo(cfg proxy.Config, requests int, statsEvery time.Duration, tracer *tracing.Tracer, tracePath string, sched faults.Schedule) int {
	backendAddrs := make([]string, 2)
	for i := range backendAddrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		defer ln.Close()
		backendAddrs[i] = ln.Addr().String()
		go serveStub(ln)
	}

	cfg.Listen = "127.0.0.1:0"
	cfg.Backends = nil
	for _, a := range backendAddrs {
		cfg.Backends = append(cfg.Backends, proxy.BackendConfig{Address: a, Weight: 1})
	}
	// Without a schedule of its own the demo poisons its last worker with a
	// slow fault, 25 ms per request from about halfway through its requests.
	poisoned := -1
	if len(sched.Events) == 0 {
		poisoned = cfg.Workers - 1
		sched.Events = []faults.Event{{Kind: faults.Slow, AtNS: int64(100 * time.Millisecond), Worker: poisoned, Factor: 6}}
		fmt.Printf("poisoning worker %d: %v\n", poisoned, sched)
	}
	p, err := proxy.New(cfg, proxy.WithTracer(tracer), proxy.WithFaults(sched))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hermes-lb:", err)
		return 1
	}
	defer p.Close()
	workers := p.Workers()
	fmt.Printf("demo: %d workers, proxy %s, backends %v\n", workers, p.Addr(), backendAddrs)
	if statsEvery > 0 {
		go reportStats(p, statsEvery)
	}

	// Steady closed-loop load: a fixed client pool keeps the proxy busy so
	// the poisoned worker's backlog and stale loop timestamp are visible to
	// the schedulers (wave-style load would let everyone look idle between
	// waves and defeat the feedback loop).
	const clientPool = 24
	// One connection per request, so every request is a steering decision.
	client := &http.Client{Timeout: 3 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	var wg sync.WaitGroup
	var ok, bad, issued atomic.Uint64
	for c := 0; c < clientPool; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := issued.Add(1)
				if i > uint64(requests) {
					return
				}
				if err := demoRequest(client, p.Addr(), int(i)); err != nil {
					bad.Add(1)
				} else {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	// A client can read its reply before the worker counts the request; the
	// drain waits for every exchange to end, so after it the counts are final.
	if err := p.Shutdown(cfg.DrainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "hermes-lb:", err)
	}

	upstreamErrs := p.Registry().Snapshot().Get("proxy.upstream_errors").Value
	fmt.Printf("\nrequests: %d ok, %d failed; upstream errors: %d\n", ok.Load(), bad.Load(), upstreamErrs)
	fmt.Printf("%-8s %-10s\n", "worker", "handled")
	for i := 0; i < workers; i++ {
		note := ""
		if i == poisoned {
			note = "  <- poisoned: " + sched.String()
		}
		fmt.Printf("w%-7d %-10d%s\n", i, p.WorkerHandled(i), note)
	}
	st := p.Controller().Stats()
	fmt.Printf("scheduler passes: %d, avg workers selected: %.1f\n", st.ScheduleCalls, st.AvgPassed)
	if statsEvery > 0 {
		// Final snapshot: the periodic reporter would drop the tail of the
		// run (everything since its last tick).
		printStats(p)
	}
	if tracer != nil {
		if err := writeTrace(tracePath, tracer); err != nil {
			panic(err)
		}
		fmt.Printf("span dump written to %s\n", tracePath)
	}
	return 0
}

func demoRequest(client *http.Client, addr string, i int) error {
	resp, err := client.Get(fmt.Sprintf("http://%s/demo/%d", addr, i))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}
