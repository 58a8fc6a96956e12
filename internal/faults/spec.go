// Package faults is the deterministic fault-injection and recovery layer:
// a sim-clock-driven injector that applies a declarative schedule of worker
// hangs, crashes (with optional restart), slowdowns, accept-queue shrinks,
// selection-map sync stalls, and probe loss to a running LB — identically
// across dispatch modes, so blast radius and recovery time can be compared
// under the *same* fault sequence (§7, Appendix C) — plus a watchdog that
// detects hung workers from WST loop-enter staleness (the paper's
// FilterTime signal) and drives the restart lifecycle.
//
// See docs/FAULTS.md for the spec grammar and recovery semantics.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind classifies a fault or recovery event.
type Kind uint8

// Fault kinds. The first six are schedulable; Restart and Detect are
// recovery events emitted by the injector and watchdog (they appear in
// traces and counters but not in schedules).
const (
	// Hang busy-spins a worker for Dur: it stops fetching and handling
	// events while burning its core (Appendix C case 1).
	Hang Kind = iota
	// Crash kills a worker; with Drop its connections are reset, and with
	// Restart > 0 it is restarted after that delay.
	Crash
	// Slow multiplies a worker's per-event CPU cost by Factor for Dur.
	Slow
	// ShrinkQueue reduces accept-queue capacity to Cap for Dur (shared
	// listeners in shared-socket modes, the victim's reuseport slot
	// otherwise).
	ShrinkQueue
	// SyncStall makes selection-map updates fail for Dur: the kernel keeps
	// serving the stale bitmap (or, with staleness fallback armed, declines
	// and falls back to reuseport hashing). Hermes modes only.
	SyncStall
	// ProbeLoss drops each probe with probability Prob for Dur.
	ProbeLoss
	// Restart is the recovery event of a worker coming back after a crash.
	Restart
	// Detect is the watchdog flagging a hung worker.
	Detect

	numKinds = int(Detect) + 1
	// numSchedulable bounds the kinds a schedule may contain.
	numSchedulable = int(ProbeLoss) + 1
)

var kindNames = [numKinds]string{
	"hang", "crash", "slow", "shrinkq", "syncstall", "probeloss",
	"restart", "detect",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromName inverts String. ok=false for unknown names.
func KindFromName(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one scheduled fault.
type Event struct {
	// Kind selects the fault.
	Kind Kind
	// AtNS is the injection time, relative to Injector.Start.
	AtNS int64
	// Worker is the victim (-1 = the most-loaded worker at fire time,
	// ties broken toward the lowest id). Ignored by SyncStall/ProbeLoss.
	Worker int
	// DurNS is the fault window (hang duration; slow/shrinkq/syncstall/
	// probeloss revert when it elapses; 0 for those = until the run ends).
	DurNS int64
	// RestartNS, for Crash, restarts the worker after this delay (0 = no
	// restart).
	RestartNS int64
	// Drop, for Crash, resets the victim's connections.
	Drop bool
	// Factor is Slow's cost multiplier.
	Factor float64
	// Cap is ShrinkQueue's new accept-queue capacity.
	Cap int
	// Prob is ProbeLoss's per-probe drop probability.
	Prob float64
}

// Schedule is an ordered list of fault events.
type Schedule struct {
	Events []Event
}

// String renders the schedule in the spec grammar (ParseSpec inverts it).
func (s Schedule) String() string {
	parts := make([]string, 0, len(s.Events))
	for _, e := range s.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ";")
}

// String renders one event in the spec grammar.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s", e.Kind, time.Duration(e.AtNS))
	if e.Worker >= 0 {
		fmt.Fprintf(&b, ":w%d", e.Worker)
	}
	if e.DurNS > 0 {
		fmt.Fprintf(&b, ":dur=%s", time.Duration(e.DurNS))
	}
	if e.RestartNS > 0 {
		fmt.Fprintf(&b, ":restart=%s", time.Duration(e.RestartNS))
	}
	if e.Drop {
		b.WriteString(":drop")
	}
	if e.Factor != 0 {
		fmt.Fprintf(&b, ":x=%g", e.Factor)
	}
	if e.Cap != 0 {
		fmt.Fprintf(&b, ":cap=%d", e.Cap)
	}
	if e.Prob != 0 {
		fmt.Fprintf(&b, ":p=%g", e.Prob)
	}
	return b.String()
}

// ParseSpec parses a fault schedule:
//
//	event[;event...]
//	event = kind@time[:wN][:dur=D][:restart=D][:drop][:x=F][:cap=N][:p=F]
//
// kind ∈ {hang, crash, slow, shrinkq, syncstall, probeloss}; time and D are
// Go durations relative to injector start ("500ms", "1.5s"); wN pins the
// victim worker (default: most-loaded at fire time); x= and p= are finite
// numbers (x > 0, p in [0,1]). Examples:
//
//	hang@500ms:w3:dur=300ms
//	crash@1s:drop:restart=200ms;slow@2s:x=8:dur=1s
func ParseSpec(spec string) (Schedule, error) {
	var s Schedule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return Schedule{}, fmt.Errorf("faults: %q: %w", part, err)
		}
		s.Events = append(s.Events, ev)
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].AtNS < s.Events[j].AtNS })
	return s, nil
}

func parseEvent(part string) (Event, error) {
	fields := strings.Split(part, ":")
	head := fields[0]
	at := strings.IndexByte(head, '@')
	if at < 0 {
		return Event{}, fmt.Errorf("missing @time")
	}
	kind, ok := KindFromName(head[:at])
	if !ok || int(kind) >= numSchedulable {
		return Event{}, fmt.Errorf("unknown fault kind %q", head[:at])
	}
	t, err := time.ParseDuration(head[at+1:])
	if err != nil || t < 0 {
		return Event{}, fmt.Errorf("bad time %q", head[at+1:])
	}
	ev := Event{Kind: kind, AtNS: int64(t), Worker: -1}
	for _, f := range fields[1:] {
		switch {
		case f == "drop":
			ev.Drop = true
		case strings.HasPrefix(f, "w"):
			n, err := strconv.Atoi(f[1:])
			if err != nil || n < 0 {
				return Event{}, fmt.Errorf("bad worker %q", f)
			}
			ev.Worker = n
		case strings.HasPrefix(f, "dur="):
			d, err := time.ParseDuration(f[4:])
			if err != nil || d <= 0 {
				return Event{}, fmt.Errorf("bad dur %q", f)
			}
			ev.DurNS = int64(d)
		case strings.HasPrefix(f, "restart="):
			d, err := time.ParseDuration(f[8:])
			if err != nil || d <= 0 {
				return Event{}, fmt.Errorf("bad restart %q", f)
			}
			ev.RestartNS = int64(d)
		case strings.HasPrefix(f, "x="):
			v, err := strconv.ParseFloat(f[2:], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return Event{}, fmt.Errorf("bad multiplier %q", f)
			}
			ev.Factor = v
		case strings.HasPrefix(f, "cap="):
			n, err := strconv.Atoi(f[4:])
			if err != nil || n < 1 {
				return Event{}, fmt.Errorf("bad cap %q", f)
			}
			ev.Cap = n
		case strings.HasPrefix(f, "p="):
			v, err := strconv.ParseFloat(f[2:], 64)
			if err != nil || math.IsNaN(v) || v < 0 || v > 1 {
				return Event{}, fmt.Errorf("bad probability %q", f)
			}
			ev.Prob = v
		default:
			return Event{}, fmt.Errorf("unknown option %q", f)
		}
	}
	return ev, validate(ev)
}

func validate(ev Event) error {
	switch ev.Kind {
	case Hang:
		if ev.DurNS <= 0 {
			return fmt.Errorf("hang needs dur=")
		}
	case Slow:
		if ev.Factor <= 0 {
			return fmt.Errorf("slow needs x=")
		}
	case ShrinkQueue:
		if ev.Cap < 1 {
			return fmt.Errorf("shrinkq needs cap=")
		}
	case ProbeLoss:
		if ev.Prob <= 0 {
			return fmt.Errorf("probeloss needs p=")
		}
	}
	return nil
}

// RandomSchedule draws n schedulable events deterministically from seed:
// injection times uniform over the middle 80% of window, victims uniform
// over the workers (with an occasional most-loaded pick), kind-appropriate
// durations scaled to the window. The same seed always yields the same
// schedule, so randomized fault runs stay byte-reproducible.
func RandomSchedule(seed int64, n, workers int, window time.Duration) Schedule {
	rng := rand.New(rand.NewSource(seed))
	var s Schedule
	for i := 0; i < n; i++ {
		at := int64(window) / 10
		at += rng.Int63n(int64(window)*8/10 + 1)
		ev := Event{Kind: Kind(rng.Intn(numSchedulable)), AtNS: at, Worker: -1}
		if workers > 0 && rng.Intn(4) != 0 {
			ev.Worker = rng.Intn(workers)
		}
		dur := int64(window)/20 + rng.Int63n(int64(window)/10+1)
		switch ev.Kind {
		case Hang:
			ev.DurNS = dur
		case Crash:
			ev.Drop = rng.Intn(2) == 0
			if rng.Intn(2) == 0 {
				ev.RestartNS = dur
			}
		case Slow:
			ev.Factor = float64(2 + rng.Intn(15))
			ev.DurNS = dur
		case ShrinkQueue:
			ev.Cap = 1 + rng.Intn(8)
			ev.DurNS = dur
		case SyncStall:
			ev.DurNS = dur
		case ProbeLoss:
			ev.Prob = 0.1 + 0.8*rng.Float64()
			ev.DurNS = dur
		}
		s.Events = append(s.Events, ev)
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].AtNS < s.Events[j].AtNS })
	return s
}
