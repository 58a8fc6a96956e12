package probe

import (
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/sim"
)

func healthyLB(t *testing.T, mode l7lb.Mode) (*sim.Engine, *l7lb.LB) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := l7lb.DefaultConfig(mode)
	cfg.Workers = 4
	lb, err := l7lb.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	return eng, lb
}

// A healthy fleet completes every probe, far inside the delay budget.
func TestProberHealthyPath(t *testing.T) {
	eng, lb := healthyLB(t, l7lb.ModeHermes)
	openTestConns(eng, lb, 16)
	p := NewWorkerProber(lb, 8080, 10*time.Millisecond)
	eng.At(int64(10*time.Millisecond), func() { p.Run(time.Second) })
	eng.RunUntil(int64(2 * time.Second))

	if p.Sent < 90 {
		t.Fatalf("sent %d probes, want ≥ one per round", p.Sent)
	}
	if p.Completed != p.Sent {
		t.Fatalf("completed %d of %d", p.Completed, p.Sent)
	}
	if d := p.DelayedCount(); d != 0 {
		t.Fatalf("healthy LB delayed %d probes", d)
	}
	if p99 := p.Latency.Percentile(99); p99 > 1.0 {
		t.Fatalf("probe P99 %v ms exceeds the 1ms healthy bound (§6.2)", p99)
	}
	if p.DelayedRate() != 0 {
		t.Fatal("delayed rate should be 0")
	}
}

func TestProberCountsHungWorkerDelays(t *testing.T) {
	eng, lb := healthyLB(t, l7lb.ModeReuseport)
	// Hang all workers with multi-second requests: probes land behind them.
	// 32 hash-dispatched hang connections make it overwhelmingly likely
	// every one of the 4 workers catches at least one.
	for i := 0; i < 32; i++ {
		i := i
		eng.At(int64(i)*int64(time.Millisecond), func() {
			conn, ok := lb.NS.DeliverSYN(kernel.FourTuple{
				SrcIP: uint32(i), SrcPort: uint16(i + 1), DstIP: 1, DstPort: 8080,
			}, nil)
			if ok {
				lb.NS.DeliverData(conn, l7lb.Work{
					ArrivalNS: eng.Now(), Cost: 5 * time.Second, Tenant: 8080,
				})
			}
		})
	}
	p := NewWorkerProber(lb, 8080, 20*time.Millisecond)
	eng.At(int64(50*time.Millisecond), func() { p.Run(time.Second) })
	eng.RunUntil(int64(1200 * time.Millisecond))

	if p.Sent == 0 {
		t.Fatal("no probes sent")
	}
	if p.DelayedCount() == 0 {
		t.Fatal("probes behind 5s requests must count as delayed")
	}
	if p.DelayedRate() < 0.9 {
		t.Fatalf("delayed rate %v, want ≈1 with all workers hung", p.DelayedRate())
	}
}

func TestCanarySeriesShape(t *testing.T) {
	m := CanaryModel{
		DaysBefore:        5,
		RolloutDays:       3,
		DaysAfter:         18,
		ProbesPerDay:      1_000_000,
		OldDelayedRate:    0.002,
		NewDelayedRate:    0.000004,
		DrainHalfLifeDays: 2,
	}
	s := m.Series()
	if len(s) != 26 {
		t.Fatalf("series length %d", len(s))
	}
	before := s[0].Delayed
	if before != 2000 {
		t.Fatalf("pre-rollout delayed/day = %v", before)
	}
	// Monotone decline through rollout.
	for d := m.DaysBefore; d < m.DaysBefore+m.RolloutDays+m.DaysAfter-1; d++ {
		if s[d+1].Delayed > s[d].Delayed+1e-9 {
			t.Fatalf("series not declining at day %d: %v -> %v", d, s[d].Delayed, s[d+1].Delayed)
		}
	}
	after := s[len(s)-1].Delayed
	reduction := 1 - after/before
	if reduction < 0.99 {
		t.Fatalf("final reduction %.4f, want ≥99%% (paper: 99.8%%)", reduction)
	}
	// The drain tail: day right after rollout still above the floor.
	tail := s[m.DaysBefore+m.RolloutDays].Delayed
	floor := m.NewDelayedRate * m.ProbesPerDay
	if tail <= floor*2 {
		t.Fatalf("no drain tail: day-after %v vs floor %v", tail, floor)
	}
}

func TestCanaryFastDrainBeatsSlowDrain(t *testing.T) {
	base := CanaryModel{
		DaysBefore: 2, RolloutDays: 2, DaysAfter: 8,
		ProbesPerDay: 1e6, OldDelayedRate: 0.002, NewDelayedRate: 1e-6,
	}
	slow := base
	slow.DrainHalfLifeDays = 4 // Region1: IoT/cloud clients, 11-day tail
	fast := base
	fast.DrainHalfLifeDays = 0.5 // Region2: mobile clients drop quickly
	ds, df := slow.Series(), fast.Series()
	day := base.DaysBefore + base.RolloutDays + 2
	if df[day].Delayed >= ds[day].Delayed {
		t.Fatalf("fast drain should be below slow drain at day %d: %v vs %v",
			day, df[day].Delayed, ds[day].Delayed)
	}
}
