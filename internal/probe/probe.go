// Package probe implements the health-probing subsystem behind Fig. 11: a
// prober that sends periodic tiny requests through the LB data path and
// counts end-to-end delays above the 200 ms tolerance, plus the
// canary-release drain model that turns per-mode delay rates into the
// daily delayed-probe series the paper reports before/after the Hermes
// rollout.
package probe

import (
	"math"
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/stats"
)

// DelayThreshold is the internal-network delay budget: probes above it
// count as delayed (§6.2: ">200ms is unacceptable", clients time out with
// 499s).
const DelayThreshold = 200 * time.Millisecond

// WorkerProber probes every worker, as §6.2 describes ("we periodically
// send probes to all workers"): each round it delivers a minimal request on
// one live connection of every worker, so the probe takes the same
// event-loop path as tenant traffic and a hung or swamped worker delays its
// probe stream; the LB has no probe fast path (§6.2: "The LB contains no
// probe processing logic"). Workers without connections that round are
// skipped (in production every worker carries traffic).
type WorkerProber struct {
	// Interval between probe rounds.
	Interval time.Duration
	// Port is the tenant port stamped on probe work items.
	Port uint16

	lb *l7lb.LB
	// Sent counts probes issued.
	Sent uint64
	// Completed counts this prober's probes that finished.
	Completed uint64
	// Lost counts probes swallowed by injected probe loss.
	Lost uint64
	// Latency samples this prober's probe latencies (ms).
	Latency stats.Sample

	src  int32
	drop func() bool
}

// NewWorkerProber creates a per-worker prober against lb.
func NewWorkerProber(lb *l7lb.LB, port uint16, interval time.Duration) *WorkerProber {
	p := &WorkerProber{lb: lb, Port: port, Interval: interval}
	p.src = lb.RegisterProbeSink(func(_ l7lb.Work, latNS int64) {
		p.Completed++
		p.Latency.AddDuration(latNS)
	})
	return p
}

// SetDrop installs a probe-loss predicate: probes for which it returns true
// are counted as sent but never reach the LB (and so count as delayed).
func (p *WorkerProber) SetDrop(fn func() bool) { p.drop = fn }

// Run schedules probe rounds over [now, now+d).
func (p *WorkerProber) Run(d time.Duration) {
	p.scheduleRound(p.lb.Eng.Now(), p.lb.Eng.Now()+int64(d))
}

func (p *WorkerProber) scheduleRound(prev, end int64) {
	next := prev + int64(p.Interval)
	if next >= end {
		return
	}
	p.lb.Eng.At(next, func() {
		for _, w := range p.lb.Workers {
			s := w.SampleConn()
			if s == nil || s.Closed() {
				continue
			}
			p.Sent++
			if p.drop != nil && p.drop() {
				p.Lost++
				continue
			}
			p.lb.Deliver(s.Conn(), l7lb.Work{
				ArrivalNS: p.lb.Eng.Now(),
				Cost:      10 * time.Microsecond,
				Probe:     true,
				ProbeSrc:  p.src,
				Tenant:    p.Port,
			})
		}
		p.scheduleRound(next, end)
	})
}

// DelayedCount returns how many completed probes exceeded the threshold,
// counting never-completed probes (stranded on hung workers or lost in
// flight) as delayed too — in production those are exactly the 499s. Only
// this prober's probes count, even with other probers on the same LB.
func (p *WorkerProber) DelayedCount() uint64 {
	completedDelayed := uint64(p.Latency.CountAbove(float64(DelayThreshold) / 1e6))
	var lost uint64
	if p.Sent > p.Completed {
		lost = p.Sent - p.Completed
	}
	return completedDelayed + lost
}

// DelayedRate returns the fraction of probes delayed.
func (p *WorkerProber) DelayedRate() float64 {
	if p.Sent == 0 {
		return 0
	}
	return float64(p.DelayedCount()) / float64(p.Sent)
}

// CanaryModel converts measured per-mode delayed-probe rates into the daily
// series of Fig. 11. During a canary rollout, new-version (Hermes) VMs take
// over new connections while old-version (exclusive) VMs keep their
// established connections until they drain; probes follow the traffic, so
// delayed probes decay with the drain rather than dropping to the new rate
// instantly (§6.2: Region1 took 11 days, Region2 drained fast).
type CanaryModel struct {
	// DaysBefore / RolloutDays / DaysAfter shape the timeline.
	DaysBefore  int
	RolloutDays int
	DaysAfter   int
	// ProbesPerDay is the per-region daily probe volume.
	ProbesPerDay float64
	// OldDelayedRate / NewDelayedRate are the measured per-probe delay
	// probabilities under the old (exclusive) and new (Hermes) versions.
	OldDelayedRate float64
	NewDelayedRate float64
	// DrainHalfLifeDays is the half-life of old-version connection share
	// after its VMs stop taking new connections.
	DrainHalfLifeDays float64
}

// DayPoint is one day of the Fig. 11 series.
type DayPoint struct {
	Day      int
	Delayed  float64 // delayed probes that day
	OldShare float64
}

// Series computes the daily delayed-probe counts across the timeline. The
// old fleet is phased out in RolloutDays equal batches; once a batch stops
// taking new connections, the traffic it still carries drains exponentially
// with the configured half-life, so the old-version share declines smoothly
// through and past the rollout.
func (m CanaryModel) Series() []DayPoint {
	total := m.DaysBefore + m.RolloutDays + m.DaysAfter
	batches := m.RolloutDays
	if batches < 1 {
		batches = 1
	}
	out := make([]DayPoint, 0, total)
	for day := 0; day < total; day++ {
		var oldShare float64
		for b := 0; b < batches; b++ {
			removal := m.DaysBefore + b // day batch b stops taking new conns
			if day < removal {
				oldShare++
			} else {
				oldShare += math.Exp2(-float64(day-removal+1) / m.DrainHalfLifeDays)
			}
		}
		oldShare /= float64(batches)
		rate := oldShare*m.OldDelayedRate + (1-oldShare)*m.NewDelayedRate
		out = append(out, DayPoint{Day: day, Delayed: rate * m.ProbesPerDay, OldShare: oldShare})
	}
	return out
}
