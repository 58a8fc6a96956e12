package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/sim"
)

func newTestController(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController(4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// setPolicy swaps in c's live policy with mut applied, as PUT /policy does.
func setPolicy(t *testing.T, c *Controller, mut func(*Config)) {
	t.Helper()
	cfg := c.Config()
	mut(&cfg)
	if err := c.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	c := newTestController(t)
	p := PolicyOf(c)
	if p.ThetaFrac != 0.5 || p.FilterOrder != "time-conn-event" || p.ForceFallback {
		t.Fatalf("default policy: %+v", p)
	}
	p.ThetaFrac = 0.75
	p.HangThresholdMS = 30
	p.FilterOrder = "time-only"
	p.ForceFallback = true
	if err := ApplyPolicy(c, p); err != nil {
		t.Fatal(err)
	}
	got := PolicyOf(c)
	if got.ThetaFrac != 0.75 || got.HangThresholdMS != 30 ||
		got.FilterOrder != "time-only" || !got.ForceFallback {
		t.Fatalf("applied policy: %+v", got)
	}
	if c.Config().HangThreshold != 30*time.Millisecond {
		t.Fatalf("threshold: %v", c.Config().HangThreshold)
	}
	// Every cascade order GET can render, PUT accepts.
	for _, name := range []string{"time-conn-event", "time-event-conn", "time-only", "single-winner"} {
		p.FilterOrder = name
		if err := ApplyPolicy(c, p); err != nil {
			t.Fatalf("filter_order %q: %v", name, err)
		}
		if got := PolicyOf(c); got != p {
			t.Fatalf("filter_order %q read back as %+v", name, got)
		}
	}
}

func TestApplyPolicyRejectsInvalid(t *testing.T) {
	c := newTestController(t)
	p := PolicyOf(c)
	p.FilterOrder = "bogus"
	if err := ApplyPolicy(c, p); err == nil {
		t.Fatal("bogus order accepted")
	}
	p = PolicyOf(c)
	p.MinWorkers = 0
	if err := ApplyPolicy(c, p); err == nil {
		t.Fatal("MinWorkers=0 accepted")
	}
	// Controller must keep the old policy after a rejected update.
	if PolicyOf(c).MinWorkers != 2 {
		t.Fatal("rejected update mutated policy")
	}
}

func TestPolicyHandlerHTTP(t *testing.T) {
	c := newTestController(t)
	srv := httptest.NewServer(PolicyHandler(c))
	defer srv.Close()

	// GET current policy.
	resp, err := http.Get(srv.URL + "/policy")
	if err != nil {
		t.Fatal(err)
	}
	var p Policy
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p.ThetaFrac != 0.5 {
		t.Fatalf("GET policy: %+v", p)
	}

	// PUT an update.
	p.ThetaFrac = 1.25
	p.ForceFallback = true
	body, _ := json.Marshal(p)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/policy", strings.NewReader(string(body)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	if got := c.Config().ThetaFrac; got != 1.25 {
		t.Fatalf("theta after PUT: %v", got)
	}
	if !c.Config().ForceFallback {
		t.Fatal("fallback not applied")
	}

	// PUT garbage → 400; PUT invalid → 422.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/policy", strings.NewReader("{nope"))
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status %d", resp.StatusCode)
	}
	// The 1 ns epoll timeout would tick an idle proxy's heartbeat at one
	// core; it is refused like any other invalid value.
	for _, mut := range []func(*Policy){
		func(p *Policy) { p.MinWorkers = 0 },
		func(p *Policy) { p.EpollTimeoutMS = 0.000001 },
	} {
		invalid := p
		mut(&invalid)
		body, _ = json.Marshal(invalid)
		req, _ = http.NewRequest(http.MethodPut, srv.URL+"/policy", strings.NewReader(string(body)))
		resp, _ = http.DefaultClient.Do(req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("invalid policy %+v: status %d", invalid, resp.StatusCode)
		}
	}

	// A key the policy does not have — misspelt, or the retired max_events —
	// is refused by name, and nothing is applied, though the rest is valid.
	valid, _ := json.Marshal(PolicyOf(c))
	for _, key := range []string{"max_events", "theta"} {
		body := strings.Replace(string(valid), `{`, `{"`+key+`":1,`, 1)
		req, _ = http.NewRequest(http.MethodPut, srv.URL+"/policy", strings.NewReader(body))
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, key) {
			t.Fatalf("PUT with %q: status %d, error %q", key, resp.StatusCode, e.Error)
		}
	}
	if got := PolicyOf(c); got != p {
		t.Fatalf("refused PUTs changed the policy: %+v, want %+v", got, p)
	}

	// DELETE and POST → 405: the handler serves GET and PUT only.
	for _, method := range []string{http.MethodDelete, http.MethodPost} {
		req, _ = http.NewRequest(method, srv.URL+"/policy", strings.NewReader(string(body)))
		resp, _ = http.DefaultClient.Do(req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, PUT" {
			t.Fatalf("%s status %d, Allow %q", method, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}

	// Status endpoint reflects worker metrics.
	h := c.NewWorkerHook(2)
	h.LoopEnter(12345)
	h.ConnOpened()
	resp, err = http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Workers []struct {
			Worker int   `json:"worker"`
			Conn   int64 `json:"conn"`
		} `json:"workers"`
		Selection []string `json:"selection"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(status.Workers) != 4 || status.Workers[2].Conn != 1 {
		t.Fatalf("status: %+v", status)
	}
	if len(status.Selection) != 1 || len(status.Selection[0]) != 64 {
		t.Fatalf("selection bitmap render: %q", status.Selection)
	}
}

// /status on a multi-group fleet: one selection word per group, worker rows
// in global id order.
func TestStatusReportsEveryGroup(t *testing.T) {
	c, err := New(130, DefaultConfig()) // groups of 64, 64 and 2
	if err != nil {
		t.Fatal(err)
	}
	h128, h129 := c.NewWorkerHook(128), c.NewWorkerHook(129)
	h128.LoopEnter(1)
	h129.LoopEnter(1)
	h128.ConnOpened()
	h129.ConnOpened()
	h129.ScheduleAndSync(1)
	srv := httptest.NewServer(PolicyHandler(c))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Workers []struct {
			Worker int   `json:"worker"`
			Conn   int64 `json:"conn"`
		} `json:"workers"`
		Selection []string `json:"selection"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Workers) != 130 || status.Workers[129].Worker != 129 || status.Workers[129].Conn != 1 {
		t.Fatalf("worker rows: %d, last %+v", len(status.Workers), status.Workers[len(status.Workers)-1])
	}
	if len(status.Selection) != 3 || !strings.HasSuffix(status.Selection[2], "0011") || strings.Contains(status.Selection[0], "1") {
		t.Fatalf("selection words: %q", status.Selection)
	}
}

// Forcing fallback live must switch kernel dispatch to pure hashing and
// back, without re-attaching anything.
func TestForceFallbackLive(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
	g, _ := ns.ListenReuseport(80, 4, 0)
	c := newTestController(t)
	if err := c.AttachEBPF(g); err != nil {
		t.Fatal(err)
	}
	now := int64(time.Second)
	hooks := make([]*WorkerHook, 4)
	for i := range hooks {
		hooks[i] = c.NewWorkerHook(i)
		hooks[i].LoopEnter(now)
	}
	// Only workers 0,1 fresh → bitmap {0,1}.
	hooks[2].LoopEnter(now - int64(c.Config().HangThreshold) - 1)
	hooks[3].LoopEnter(now - int64(c.Config().HangThreshold) - 1)
	hooks[0].ScheduleAndSync(now)
	for i := uint32(0); i < 200; i++ {
		ns.DeliverSYN(kernel.FourTuple{SrcIP: i, SrcPort: uint16(i), DstIP: 1, DstPort: 80}, nil)
	}
	if g.Sockets()[2].QueueLen()+g.Sockets()[3].QueueLen() != 0 {
		t.Fatal("stale workers received traffic before fallback")
	}

	setPolicy(t, c, func(cfg *Config) { cfg.ForceFallback = true })
	res := hooks[0].ScheduleAndSync(now)
	if res.Passed != 0 {
		t.Fatalf("fallback pass selected %d workers", res.Passed)
	}
	for i := uint32(200); i < 400; i++ {
		ns.DeliverSYN(kernel.FourTuple{SrcIP: i, SrcPort: uint16(i), DstIP: 1, DstPort: 80}, nil)
	}
	if g.Sockets()[2].QueueLen()+g.Sockets()[3].QueueLen() == 0 {
		t.Fatal("fallback did not hash across all workers")
	}

	setPolicy(t, c, func(cfg *Config) { cfg.ForceFallback = false })
	hooks[0].ScheduleAndSync(now)
	before2, before3 := g.Sockets()[2].QueueLen(), g.Sockets()[3].QueueLen()
	for i := uint32(400); i < 600; i++ {
		ns.DeliverSYN(kernel.FourTuple{SrcIP: i, SrcPort: uint16(i), DstIP: 1, DstPort: 80}, nil)
	}
	if g.Sockets()[2].QueueLen() != before2 || g.Sockets()[3].QueueLen() != before3 {
		t.Fatal("disabling fallback did not restore directed dispatch")
	}
}

// A policy is one value. One goroutine alternates ApplyPolicy between two
// policies that differ in every field while others read PolicyOf and run
// schedule_and_sync: every read is one of the two policies whole, and every
// published bitmap is one that one of the two computes. The fleet is shaped so
// that any mix of the two publishes a third bitmap: worker 2 is hung under
// a's threshold only, and worker 1 fails a's connection filter only.
func TestPolicyNeverTorn(t *testing.T) {
	a := Policy{ThetaFrac: 0.5, HangThresholdMS: 12, MinWorkers: 2, EpollTimeoutMS: 5, FilterOrder: "time-conn-event"}
	b := Policy{ThetaFrac: 2.5, HangThresholdMS: 30, MinWorkers: 1, EpollTimeoutMS: 7, FilterOrder: "time-only", ForceFallback: true}
	c := newTestController(t)
	if err := ApplyPolicy(c, a); err != nil {
		t.Fatal(err)
	}
	now := int64(time.Second)
	for i := 0; i < 4; i++ {
		c.NewWorkerHook(i).LoopEnter(now)
	}
	c.NewWorkerHook(2).LoopEnter(now - int64(20*time.Millisecond))
	for i := 0; i < 10; i++ {
		c.NewWorkerHook(1).ConnOpened()
	}
	h := c.NewWorkerHook(0)
	const bmA, bmB = 0b1001, 0
	if res := h.ScheduleAndSync(now); res.Bitmap != bmA {
		t.Fatalf("policy a publishes %04b, want %04b", res.Bitmap, bmA)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for reads := 0; ; reads++ {
			select {
			case <-done:
				return
			default:
			}
			if p := PolicyOf(c); p != a && p != b {
				t.Errorf("read %d: torn policy %+v", reads, p)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for passes := 0; ; passes++ {
			select {
			case <-done:
				return
			default:
			}
			if res := h.ScheduleAndSync(now); res.Bitmap != bmA && res.Bitmap != bmB {
				t.Errorf("pass %d: published %04b, which neither policy computes", passes, res.Bitmap)
				return
			}
		}
	}()
	for i := 0; i < 20000 && !t.Failed(); i++ {
		p := a
		if i%2 == 0 {
			p = b
		}
		if err := ApplyPolicy(c, p); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
