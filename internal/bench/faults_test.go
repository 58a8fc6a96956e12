package bench

import (
	"testing"

	"hermes/internal/l7lb"
)

// The fault experiment's determinism guarantee: the same seed renders the
// same bytes at any pool width, and different seeds still render (no
// schedule/timing assumption breaks when the fault instants move).
func TestFaultsParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run fault sweep is expensive")
	}
	e := Experiments()["faults"]
	for _, seed := range []int64{1, 7} {
		o1 := parallelTestOptions(1)
		o1.Seed = seed
		o8 := parallelTestOptions(8)
		o8.Seed = seed
		seq := render(RunExperiment(e, o1))
		par := render(RunExperiment(e, o8))
		if seq != par {
			t.Errorf("seed %d: output differs between -parallel 1 and -parallel 8\n--- seq ---\n%s\n--- par ---\n%s",
				seed, seq, par)
		}
	}
}

// §7's blast-radius claim under the identical hang schedule: exclusive mode
// stalls its victim's connections for the whole hang, while Hermes's
// watchdog detects the stale WST heartbeat and restarts the worker — so the
// exclusive blast radius must be strictly larger.
func TestFaultsExclusiveBlastExceedsHermes(t *testing.T) {
	if testing.Short() {
		t.Skip("fault cells are expensive")
	}
	o := fastOptions()
	hang := faultsScenarios[1]
	if hang.name != "hang" || !hang.watchdog {
		t.Fatalf("scenario layout changed: %+v", hang)
	}
	excl := runFaultsCell(o, hang, l7lb.ModeExclusive)
	herm := runFaultsCell(o, hang, l7lb.ModeHermes)
	if excl.blastMS <= herm.blastMS {
		t.Errorf("exclusive blast %.1f conn-ms not strictly larger than hermes %.1f",
			excl.blastMS, herm.blastMS)
	}
	if herm.detections == 0 || herm.restarts == 0 {
		t.Errorf("hermes watchdog never recovered the hang: detections=%d restarts=%d",
			herm.detections, herm.restarts)
	}
	if excl.detections != 0 || excl.restarts != 0 {
		t.Errorf("exclusive mode has no WST watchdog, yet detections=%d restarts=%d",
			excl.detections, excl.restarts)
	}
}
