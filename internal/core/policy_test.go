package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
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
	if !c.ForceFallback() {
		t.Fatal("fallback not applied")
	}

	// PUT garbage → 400; PUT invalid → 422.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/policy", strings.NewReader("{nope"))
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status %d", resp.StatusCode)
	}
	p.MaxEvents = 0
	body, _ = json.Marshal(p)
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/policy", strings.NewReader(string(body)))
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid status %d", resp.StatusCode)
	}

	// DELETE → 405.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/policy", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status %d", resp.StatusCode)
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

	c.SetForceFallback(true)
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

	c.SetForceFallback(false)
	hooks[0].ScheduleAndSync(now)
	before2, before3 := g.Sockets()[2].QueueLen(), g.Sockets()[3].QueueLen()
	for i := uint32(400); i < 600; i++ {
		ns.DeliverSYN(kernel.FourTuple{SrcIP: i, SrcPort: uint16(i), DstIP: 1, DstPort: 80}, nil)
	}
	if g.Sockets()[2].QueueLen() != before2 || g.Sockets()[3].QueueLen() != before3 {
		t.Fatal("disabling fallback did not restore directed dispatch")
	}
}
