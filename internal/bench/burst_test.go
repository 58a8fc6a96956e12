package bench

import (
	"runtime"
	"testing"
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/sim"
)

// The conn-table pre-sizing regression: a scale cell must never regrow a
// worker's connection table in steady state, in every production mode
// (exclusive-LIFO concentrates accepts the hardest).
func TestScaleCellConnTableNeverRegrows(t *testing.T) {
	o := fastOptions()
	o.Window = 50 * time.Millisecond
	o.Drain = 100 * time.Millisecond
	conns := scaleConns(1_000_000, o.Window)
	for _, mode := range Table3Modes {
		res := runScaleCell(o, 64, conns, mode, 1)
		if res.tableGrows != 0 {
			t.Errorf("%s: conn tables regrew %d times during a %d-conn cell, want 0",
				mode, res.tableGrows, conns)
		}
		if res.completed == 0 {
			t.Errorf("%s: cell completed nothing", mode)
		}
	}
}

// The hint reserves LB.Latency for one sample per planned connection; a
// worker's connection table stays at its 256-slot default whatever the hint,
// capped by the pool.
func TestConnsPerWorkerHint(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := l7lb.DefaultConfig(l7lb.ModeReuseport)
	cfg.Workers = 2
	cfg.ConnsPerWorkerHint = 10_000
	lb, err := l7lb.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20_000; i++ {
		lb.Latency.Add(1)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("20000 latency samples into a 2-worker hint of 10000 regrew the sample: %d mallocs, want 0", n)
	}
	for _, w := range lb.Workers {
		if got := w.ConnTableCap(); got != 256 {
			t.Fatalf("conn table cap = %d, want the 256-slot default", got)
		}
	}

	cfg.MaxConnsPerWorker = 100
	lb2, err := l7lb.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := lb2.Workers[0].ConnTableCap(); got != 100 {
		t.Fatalf("pool-capped conn table cap = %d, want 100", got)
	}
}
