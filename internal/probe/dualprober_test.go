package probe

import (
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/sim"
)

// openTestConns gives every worker something a WorkerProber can sample.
func openTestConns(eng *sim.Engine, lb *l7lb.LB, n int) {
	for i := 0; i < n; i++ {
		i := i
		eng.At(int64(i)*int64(100*time.Microsecond), func() {
			lb.NS.DeliverSYN(kernel.FourTuple{
				SrcIP: uint32(i), SrcPort: uint16(2000 + i), DstIP: 1, DstPort: 8080,
			}, nil)
		})
	}
}

// Regression: DelayedCount used to subtract an LB-global completion counter
// from p.Sent, so two probers sharing one LB cross-contaminated — the smaller
// prober's subtraction underflowed uint64 and reported astronomically many
// "lost" probes. Accounting is tagged per prober (the LB keeps none) and must
// stay exact for each.
func TestDualProberAccountingExact(t *testing.T) {
	eng, lb := healthyLB(t, l7lb.ModeHermes)
	openTestConns(eng, lb, 16)

	fast := NewWorkerProber(lb, 8080, 5*time.Millisecond)
	slow := NewWorkerProber(lb, 8080, 50*time.Millisecond)
	eng.At(int64(10*time.Millisecond), func() {
		fast.Run(time.Second)
		slow.Run(time.Second)
	})
	eng.RunUntil(int64(2 * time.Second))

	if fast.Sent == 0 || slow.Sent == 0 {
		t.Fatalf("both probers must send: fast=%d slow=%d", fast.Sent, slow.Sent)
	}
	if fast.Sent <= slow.Sent {
		t.Fatalf("test needs one prober to dominate (fast=%d slow=%d) to expose the underflow",
			fast.Sent, slow.Sent)
	}
	for name, p := range map[string]*WorkerProber{"fast": fast, "slow": slow} {
		if p.Completed != p.Sent || uint64(p.Latency.N()) != p.Sent {
			t.Fatalf("%s prober: completed %d (%d latencies) of %d on a healthy LB",
				name, p.Completed, p.Latency.N(), p.Sent)
		}
		// Pre-fix, the slow prober's DelayedCount() was ≈ 2^64 here (its
		// Sent minus a completion count the fast prober's probes dominate).
		if d := p.DelayedCount(); d != 0 {
			t.Fatalf("%s prober delayed count %d, want 0 (underflow regression)", name, d)
		}
	}
}

// Lost probes (dropped before reaching the LB) count as delayed, exactly.
func TestProberLossCountsAsDelayed(t *testing.T) {
	eng, lb := healthyLB(t, l7lb.ModeHermes)
	openTestConns(eng, lb, 16)

	lossy := NewWorkerProber(lb, 8080, 20*time.Millisecond)
	lossy.SetDrop(func() bool { return true })
	clean := NewWorkerProber(lb, 8080, 10*time.Millisecond)
	eng.At(int64(10*time.Millisecond), func() {
		lossy.Run(time.Second)
		clean.Run(time.Second)
	})
	eng.RunUntil(int64(2 * time.Second))

	if lossy.Sent == 0 || lossy.Completed != 0 || lossy.Lost != lossy.Sent {
		t.Fatalf("lossy prober: sent=%d completed=%d lost=%d, want all sent lost",
			lossy.Sent, lossy.Completed, lossy.Lost)
	}
	if d := lossy.DelayedCount(); d != lossy.Sent {
		t.Fatalf("lossy delayed %d, want %d (every lost probe is delayed)", d, lossy.Sent)
	}
	if lossy.DelayedRate() != 1 {
		t.Fatalf("lossy delayed rate %v, want 1", lossy.DelayedRate())
	}
	// The clean prober on the same LB is untouched by its neighbor's loss.
	if clean.Sent == 0 || clean.DelayedCount() != 0 {
		t.Fatalf("clean prober: sent %d, delayed %d, want > 0 and 0", clean.Sent, clean.DelayedCount())
	}
}
