package l7lb

import (
	"testing"
	"time"

	"hermes/internal/sim"
)

// The worker loop's continuations are pre-bound, so a steady-state hermes
// cell allocates nothing per loop iteration or per connection. Each run below
// is one connection lifecycle plus 10 ms of virtual time (two epoll timeouts
// on each of four workers); the single allocation left is this caller boxing
// Work into DeliverData's `any`.
func TestHermesCellSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeHermes)
	cfg.Workers = 4
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()

	var src uint32
	lifecycle := func() {
		src++
		sendReq(lb, openConn(t, lb, src, 8080), 30*time.Microsecond, true)
		eng.RunUntil(eng.Now() + int64(10*time.Millisecond))
	}
	for i := 0; i < 256; i++ { // grow the pools and scratch buffers
		lifecycle()
	}
	done := lb.Completed
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, lifecycle); allocs > 1 {
		t.Errorf("steady-state hermes cell: %.2f allocs per connection lifecycle, want ≤ 1", allocs)
	}
	if got := lb.Completed - done; got != runs+1 {
		t.Fatalf("completed %d of %d lifecycles", got, runs+1)
	}
}
