package l7lb

import (
	"testing"
	"time"

	"hermes/internal/sim"
)

// The worker-availability veto reaches the kernel dispatch: after
// SetWorkerAvailable(id, false) and a schedule pass, the eBPF program stops
// steering new connections to that worker, and restoring it brings traffic
// back — the same eviction path the real proxy's backend-health wiring and
// graceful drain use. The 96-worker case vetoes a worker of the second group.
func TestSetWorkerAvailableEvictsFromDispatch(t *testing.T) {
	t.Run("3w", func(t *testing.T) { testVetoEvicts(t, 3, 1) })
	t.Run("96w", func(t *testing.T) { testVetoEvicts(t, 96, 70) })
}

func testVetoEvicts(t *testing.T, workers, victim int) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeHermes)
	cfg.Workers = workers
	// MinWorkers=1 keeps dispatch on the bitmap even when the busy filter
	// narrows the set to one worker; at the default of 2 the kernel would
	// hash-fallback across all sockets — including the vetoed one, by
	// design — whenever fewer than two workers pass the cascade.
	cfg.Hermes.MinWorkers = 1
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	eng.RunUntil(int64(10 * time.Millisecond)) // everyone scheduled at least once

	if err := lb.SetWorkerAvailable(victim, false); err != nil {
		t.Fatal(err)
	}
	// Let the workers' loops republish the bitmap with the veto applied.
	eng.RunUntil(eng.Now() + int64(50*time.Millisecond))
	if bm, _ := lb.Ctl.SelMaps()[victim/64].Lookup(0); bm&(1<<uint(victim%64)) != 0 {
		t.Fatalf("published bitmap still has vetoed worker: %b", bm)
	}

	// Short served-and-closed requests keep the pool from saturating (an
	// empty selection set would hash-fallback onto the vetoed worker by
	// design — that safety valve is covered elsewhere).
	conns := 20 * workers // enough that every worker expects traffic
	fire := func(base uint32) {
		for i := 0; i < conns; i++ {
			i := i
			eng.At(eng.Now()+int64(i)*int64(200*time.Microsecond), func() {
				c := openConn(t, lb, base+uint32(i), 8080)
				eng.After(10*time.Microsecond, func() {
					sendReq(lb, c, 20*time.Microsecond, true)
				})
			})
		}
		eng.RunUntil(eng.Now() + int64(conns)*int64(200*time.Microsecond) + int64(88*time.Millisecond))
	}
	fire(1)

	var total uint64
	for _, w := range lb.Workers {
		total += w.Accepted
	}
	if got := lb.Workers[victim].Accepted; got != 0 || total != uint64(conns) {
		t.Fatalf("vetoed worker accepted %d connections; fleet accepted %d, want %d", got, total, conns)
	}

	// Restore and verify traffic comes back.
	if err := lb.SetWorkerAvailable(victim, true); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + int64(50*time.Millisecond))
	fire(100_000)
	if lb.Workers[victim].Accepted == 0 {
		t.Fatal("restored worker still getting nothing")
	}

	if err := lb.SetWorkerAvailable(workers, false); err == nil {
		t.Error("out-of-range veto accepted")
	}
}
