package proxy

import (
	"errors"
	"net"
	"sync"
	"time"

	"hermes/internal/httpx"
)

// checker actively probes every backend each interval: one HTTP GET of the
// configured path, bounded by the probe timeout. Streak counting implements
// the healthy/unhealthy thresholds; verdict flips go through Pool.setHealthy,
// which counts and traces them, and probes are counted and traced on the
// pool's instruments. The prober is the out-of-band detector; the circuit
// breaker judges proxied requests in band.
type checker struct {
	cfg  HealthCheckConfig
	pool *Pool

	stop chan struct{}
	done chan struct{}
}

func newChecker(cfg HealthCheckConfig, pool *Pool) *checker {
	return &checker{
		cfg: cfg, pool: pool,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

func (c *checker) run() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	// Probe immediately on start: a dead backend at boot should be evicted
	// within the first interval, not after threshold+1 of them.
	c.sweep()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.sweep()
		}
	}
}

// sweep probes every backend concurrently and applies the streak thresholds.
func (c *checker) sweep() {
	var wg sync.WaitGroup
	for _, b := range c.pool.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			start := time.Now()
			ok := c.probeOnce(b.addr)
			end := time.Now()

			c.pool.tel.HealthProbes.Inc()
			if !ok {
				c.pool.tel.HealthProbeFailures.Inc()
			}
			b.lastProbeNS.Store(end.UnixNano())
			b.lastProbeOK.Store(ok)
			c.pool.tel.ptr.Probe(b.idx, start.UnixNano(), end.UnixNano(), ok)

			// Streaks are only touched here (single checker goroutine per
			// backend per sweep; sweeps don't overlap per backend because
			// sweep joins before the next tick is handled).
			if ok {
				b.probeOKs++
				b.probeFails = 0
				if !b.Healthy() && b.probeOKs >= c.cfg.HealthyThreshold {
					c.pool.setHealthy(b, true)
				}
			} else {
				b.probeFails++
				b.probeOKs = 0
				if b.Healthy() && b.probeFails >= c.cfg.UnhealthyThreshold {
					c.pool.setHealthy(b, false)
				}
			}
		}(b)
	}
	wg.Wait()
}

// probeOnce performs one health probe: dial, GET path, expect a well-formed
// response head with a non-5xx status inside the timeout. It reads no further
// than the head — at most httpx.MaxHeaderBytes — so a backend that keeps the
// connection open after replying costs one round trip, not a whole timeout,
// and one that streams a body without end costs no memory.
func (c *checker) probeOnce(addr string) bool {
	deadline := time.Now().Add(c.cfg.Timeout)
	conn, err := net.DialTimeout("tcp", addr, c.cfg.Timeout)
	if err != nil {
		return false
	}
	defer conn.Close()
	_ = conn.SetDeadline(deadline)
	req := httpx.Request{
		Method: "GET",
		Target: c.cfg.Path,
		Headers: []httpx.Header{
			{Name: "Host", Value: addr},
			{Name: "User-Agent", Value: "hermes-lb-healthcheck"},
			{Name: "Connection", Value: "close"},
		},
	}
	if _, err := conn.Write(req.Append(nil)); err != nil {
		return false
	}
	var head httpx.Head
	buf := make([]byte, 0, 1024)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, rerr := conn.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch _, err := head.ScanResponse(buf); {
		case err == nil:
			return head.Status < 500
		case !errors.Is(err, httpx.ErrIncomplete) || rerr != nil:
			// Malformed, longer than MaxHeaderBytes, or cut short.
			return false
		}
	}
}

// Stop halts probing and waits for the in-flight sweep to finish.
func (c *checker) Stop() {
	close(c.stop)
	<-c.done
}
