// Realsockets: the Hermes control loop running over real TCP sockets — the
// "expose it through an SDK" form factor of §4.2, as internal/proxy runs it.
//
// Two HTTP origins sit behind the proxy's four workers. Each worker publishes
// its status to the Worker Status Table and runs Algorithm 1 at the end of
// every request; the acceptor steers each new connection by the live
// selection bitmap (Controller.Select), standing in for the kernel's
// reuseport program, which portable Go cannot attach.
//
// Worker 3 is poisoned from the start with 20 ms per request; watch Hermes
// steer new connections away from it while the other three carry the load.
//
//	go run ./examples/realsockets
package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/faults"
	"hermes/internal/proxy"
)

const (
	workers    = 4
	clients    = 16
	reqPerCli  = 150
	slowWorker = 3 // poisoned worker: a slow fault, x=5 is 20ms per request
)

func main() {
	cfg := proxy.DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Workers = workers
	for i := 0; i < 2; i++ {
		origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "ok from origin %d", i)
		}))
		defer origin.Close()
		cfg.Backends = append(cfg.Backends, proxy.BackendConfig{Address: origin.Listener.Addr().String(), Weight: 1})
	}
	p, err := proxy.New(cfg, proxy.WithFaults(faults.Schedule{Events: []faults.Event{{Kind: faults.Slow, Worker: slowWorker, Factor: 5}}}))
	if err != nil {
		panic(err)
	}
	defer p.Close()
	fmt.Println("hermes-lb listening on", p.Addr())

	// Clients: one connection per request, so every request is a new
	// steering decision.
	client := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	var wg sync.WaitGroup
	var failures atomic.Uint64
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reqPerCli; r++ {
				resp, err := client.Get(fmt.Sprintf("http://%s/client%d/req%d", p.Addr(), c, r))
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if err != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// A client can read its reply before the worker counts the request; the
	// drain waits for every exchange to end, so after it the counts are final.
	if err := p.Shutdown(2 * time.Second); err != nil {
		panic(err)
	}

	var total uint64
	fmt.Printf("\n%-8s %-10s\n", "worker", "handled")
	for i := 0; i < workers; i++ {
		note := ""
		if i == slowWorker {
			note = "  <- poisoned (20ms/request)"
		}
		fmt.Printf("w%-7d %-10d%s\n", i, p.WorkerHandled(i), note)
		total += p.WorkerHandled(i)
	}
	st := p.Controller().Stats()
	fmt.Printf("\nserved %d requests in %v (%d failures), %d scheduler passes, avg %.1f workers selected\n",
		total, elapsed.Round(time.Millisecond), failures.Load(), st.ScheduleCalls, st.AvgPassed)
	fmt.Println("the poisoned worker's requests in flight keep it out of the bitmap,")
	fmt.Println("so the acceptor starves it of new connections — same loop as the paper's kernel path.")
}
