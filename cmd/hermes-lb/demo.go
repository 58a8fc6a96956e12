package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/faults"
	"hermes/internal/proxy"
)

// demoRequests is how many requests -demo's client fleet sends.
const demoRequests = 2000

// demo is what -demo adds to run's lifecycle: two stub origins as the
// backends, one worker poisoned to show the bitmap steering around it, a
// client fleet in place of waiting for a signal, and a closing per-worker
// table.
type demo struct {
	origins  []net.Listener
	poisoned int // -1 when the schedule came from -faults
	sched    faults.Schedule
	ok, bad  atomic.Uint64
}

// startDemo starts the stub origins and points cfg at them. Without a
// schedule of its own the demo poisons its last worker with a slow fault,
// 25 ms per request from about halfway through its requests.
func startDemo(cfg *proxy.Config, sched *faults.Schedule, stdout io.Writer) (*demo, error) {
	d := &demo{poisoned: -1}
	cfg.Listen = "127.0.0.1:0"
	cfg.Backends = nil
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		d.origins = append(d.origins, ln)
		go serveStub(ln)
		cfg.Backends = append(cfg.Backends, proxy.BackendConfig{Address: ln.Addr().String(), Weight: 1})
	}
	if len(sched.Events) == 0 {
		d.poisoned = cfg.Workers - 1
		sched.Events = []faults.Event{{Kind: faults.Slow, AtNS: int64(100 * time.Millisecond), Worker: d.poisoned, Factor: 6}}
		fmt.Fprintf(stdout, "poisoning worker %d: %v\n", d.poisoned, *sched)
	}
	d.sched = *sched
	return d, nil
}

// close stops the stub origins.
func (d *demo) close() {
	for _, ln := range d.origins {
		ln.Close()
	}
}

// load sends demoRequests through the proxy at addr and returns once each
// has its answer.
func (d *demo) load(addr string) {
	// Steady closed-loop load: a fixed client pool keeps the proxy busy so
	// the poisoned worker's backlog and stale loop timestamp are visible to
	// the schedulers (wave-style load would let everyone look idle between
	// waves and defeat the feedback loop).
	const clientPool = 24
	// One connection per request, so every request is a steering decision.
	client := &http.Client{Timeout: 3 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	var wg sync.WaitGroup
	var issued atomic.Uint64
	for c := 0; c < clientPool; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := issued.Add(1)
				if i > demoRequests {
					return
				}
				if err := demoRequest(client, addr, int(i)); err != nil {
					d.bad.Add(1)
				} else {
					d.ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
}

// report prints the clients' tally and the per-worker table; run calls it
// after the drain, when the counts are final.
func (d *demo) report(w io.Writer, p *proxy.Proxy) {
	upstreamErrs := p.Registry().Snapshot().Get("proxy.upstream_errors").Value
	fmt.Fprintf(w, "\nrequests: %d ok, %d failed; upstream errors: %d\n", d.ok.Load(), d.bad.Load(), upstreamErrs)
	fmt.Fprintf(w, "%-8s %-10s\n", "worker", "handled")
	for i := 0; i < p.Workers(); i++ {
		note := ""
		if i == d.poisoned {
			note = "  <- poisoned: " + d.sched.String()
		}
		fmt.Fprintf(w, "w%-7d %-10d%s\n", i, p.WorkerHandled(i), note)
	}
	st := p.Controller().Stats()
	fmt.Fprintf(w, "scheduler passes: %d, avg workers selected: %.1f\n", st.ScheduleCalls, st.AvgPassed)
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
