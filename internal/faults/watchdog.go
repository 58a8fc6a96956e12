package faults

import (
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/shm"
)

// Watchdog detects hung workers from WST loop-enter staleness — the same
// FilterTime signal the Hermes scheduler uses to keep hung workers out of
// the selection bitmap (§5.2.1), at the controller's live HangThreshold, so a
// policy change moves both at once — and optionally drives recovery: a flagged
// worker is crashed (resetting its connections, as an external supervisor's
// SIGKILL would) and restarted after RestartDelay. It requires the WST, so
// it only runs on Hermes modes; baselines have no hang signal to watch,
// which is exactly the operational gap the faults experiment quantifies.
type Watchdog struct {
	// Interval between scans.
	Interval time.Duration
	// AutoRestart crashes and restarts flagged workers.
	AutoRestart bool
	// RestartDelay is the crash-to-restart delay under AutoRestart.
	RestartDelay time.Duration

	// Detections counts workers flagged as hung.
	Detections uint64
	// Restarts counts watchdog-driven restarts.
	Restarts uint64
	// DetectionNS records, per detection, the delay between the scan that
	// flagged the worker and its last loop entry (how stale it had gone).
	DetectionNS []int64

	lb      *l7lb.LB
	flagged []bool
	buf     []shm.Metrics

	obs *watchdogObs // nil until Observe
}

// NewWatchdog builds a watchdog for lb, scanning every group's table.
// Returns nil if the LB has no WST to watch (non-Hermes modes).
func NewWatchdog(lb *l7lb.LB, interval time.Duration) *Watchdog {
	if lb.Ctl == nil {
		return nil
	}
	return &Watchdog{
		Interval: interval,
		lb:       lb,
		flagged:  make([]bool, len(lb.Workers)),
	}
}

// Start scans every Interval over [now, now+dur). Safe on nil (no WST).
func (d *Watchdog) Start(dur time.Duration) {
	if d == nil {
		return
	}
	end := d.lb.Eng.Now() + int64(dur)
	d.scheduleScan(d.lb.Eng.Now(), end)
}

func (d *Watchdog) scheduleScan(prev, end int64) {
	next := prev + int64(d.Interval)
	if next >= end {
		return
	}
	d.lb.Eng.At(next, func() {
		d.scan(next)
		d.scheduleScan(next, end)
	})
}

func (d *Watchdog) scan(nowNS int64) {
	d.buf = d.lb.Ctl.Snapshot(d.buf[:0])
	thresh := int64(d.lb.Ctl.Config().HangThreshold)
	for id, m := range d.buf {
		if id >= len(d.lb.Workers) {
			break
		}
		w := d.lb.Workers[id]
		stale := nowNS - m.LoopEnterNS
		if w.Crashed() || stale <= thresh {
			if stale <= thresh {
				d.flagged[id] = false
			}
			continue
		}
		if d.flagged[id] {
			continue // already detected this hang
		}
		d.flagged[id] = true
		d.Detections++
		d.DetectionNS = append(d.DetectionNS, stale)
		if o := d.obs; o != nil {
			o.detections.Inc()
			o.tr.Event(int32(id), nowNS, int64(Detect), stale)
		}
		if d.AutoRestart {
			// Recovery mirrors a supervisor SIGKILL + respawn: the hung
			// process cannot be revived in place, so its connections reset
			// and a fresh worker takes over the slot after RestartDelay.
			w.Crash(true)
			d.lb.Eng.After(d.RestartDelay, func() {
				if !w.Crashed() {
					return
				}
				w.Restart()
				d.Restarts++
				if o := d.obs; o != nil {
					o.restarts.Inc()
					o.tr.Event(int32(id), d.lb.Eng.Now(), int64(Restart), 0)
				}
			})
		}
	}
}
