package bench

import (
	"testing"
	"time"

	"hermes/internal/l7lb"
)

// Regression pin for the 256-worker grouped-controller imbalance bug: the
// two-level dispatch program fed the SAME steering hash to reciprocal_scale
// at both levels, and reciprocal_scale consumes the TOP bits of its input —
// so within group g only the slice of workers consistent with "this hash
// landed in g" was reachable, and per-worker accept counts spread ~√3× wider
// than binomial. The fix decorrelates level 2 with a golden-ratio
// multiplicative mix (hashMixConst in core/dispatch.go), in bytecode and
// both native twins.
//
// The pin compares fleets at EQUAL per-worker occupancy (≈195 accepted
// connections each) so both sides have the same binomial baseline
// stddev/mean ≈ √(w/conns) ≈ 0.07: a healthy grouped fleet lands within 2×
// of the single-controller fleet, while the broken dispatch sat at ≈1.7
// absolute — two orders of magnitude outside the gate.
func runImbalanceCell(t *testing.T, fleet, conns int, mode l7lb.Mode) scaleCell {
	t.Helper()
	o := fastOptions()
	o.Window = 250 * time.Millisecond
	return runScaleCell(o, fleet, conns, mode, o.Seed)
}

func TestGroupedDispatchImbalanceMatchesSingleController(t *testing.T) {
	// 64 workers → single-level controller; 256 → grouped (4 groups of 64).
	single := runImbalanceCell(t, 64, 12_500, l7lb.ModeHermes)
	grouped := runImbalanceCell(t, 256, 50_000, l7lb.ModeHermes)

	if single.drops != 0 || grouped.drops != 0 {
		t.Fatalf("unexpected SYN drops: single=%d grouped=%d", single.drops, grouped.drops)
	}
	if single.imbalance <= 0 || grouped.imbalance <= 0 {
		t.Fatalf("degenerate imbalance: single=%.4f grouped=%.4f",
			single.imbalance, grouped.imbalance)
	}
	// Broken grouped dispatch measured ≈1.7 here; binomial baseline ≈0.07.
	if grouped.imbalance > 0.2 {
		t.Errorf("grouped imbalance %.4f exceeds absolute bound 0.2 (level-2 hash reuse regression?)",
			grouped.imbalance)
	}
	if grouped.imbalance > 2*single.imbalance {
		t.Errorf("grouped imbalance %.4f > 2× single-controller %.4f at equal occupancy",
			grouped.imbalance, single.imbalance)
	}
}

// The grouped hermes fleet must also track plain reuseport — the stateless
// hash is the unbiased reference for "all workers equally reachable".
func TestGroupedDispatchImbalanceMatchesReuseport(t *testing.T) {
	hermes := runImbalanceCell(t, 256, 50_000, l7lb.ModeHermes)
	reuse := runImbalanceCell(t, 256, 50_000, l7lb.ModeReuseport)
	if reuse.imbalance <= 0 {
		t.Fatalf("degenerate reuseport imbalance %.4f", reuse.imbalance)
	}
	if hermes.imbalance > 2*reuse.imbalance {
		t.Errorf("grouped hermes imbalance %.4f > 2× reuseport %.4f",
			hermes.imbalance, reuse.imbalance)
	}
}
