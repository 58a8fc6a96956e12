package kernel

import (
	"testing"
	"time"

	"hermes/internal/sim"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// Regression: the two immediate-return paths of Wait (events already ready;
// zero timeout with nothing ready) used to skip the residency histogram and
// the wakeup span, so zero-block waits were invisible to telemetry and the
// flight recorder. Both must observe a 0ns residency; the events-ready path
// must also emit a zero-width wakeup span.
func TestImmediateWaitReturnsObserved(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	reg := telemetry.NewRegistry()
	tracer := tracing.New(tracing.Config{})
	ns.Observe(reg, tracer, 1)
	ls, err := ns.ListenShared(80, 8)
	if err != nil {
		t.Fatal(err)
	}
	ep := ns.NewEpoll()
	ep.Add(ls)
	ep.BindWorker(0)
	// Asking for a registered name again returns the layer's own handle.
	hist := reg.Histogram(telemetry.Metric{Name: "kernel.epoll.wait_ns"}, nil)

	// Path 1: the listener is ready before Wait is even called.
	if _, ok := ns.DeliverSYN(tupleFor(1, 80), nil); !ok {
		t.Fatal("SYN rejected")
	}
	delivered := -1
	ep.Wait(16, 5*time.Millisecond, func(evs []Event) { delivered = len(evs) })
	eng.RunUntil(eng.Now() + 1)
	if delivered != 1 {
		t.Fatalf("immediate wait delivered %d events, want 1", delivered)
	}
	if got := hist.Count(); got != 1 {
		t.Fatalf("events-ready immediate return missing from residency histogram: count=%d", got)
	}

	// Path 2: zero timeout, nothing ready — a pure poll.
	ls.Accept()
	polled := false
	ep.Wait(16, 0, func(evs []Event) { polled = len(evs) == 0 })
	eng.RunUntil(eng.Now() + 1)
	if !polled {
		t.Fatal("zero-timeout poll callback never fired")
	}
	if got := hist.Count(); got != 2 {
		t.Fatalf("zero-timeout immediate return missing from residency histogram: count=%d", got)
	}
	if sum := hist.Sum(); sum != 0 {
		t.Fatalf("immediate returns should observe 0ns residency, sum=%d", sum)
	}

	// The events-ready path emits a zero-width wakeup span; the empty
	// zero-timeout poll is idle time and stays out of the trace, like
	// ordinary timeouts.
	tracer.Flush()
	wakeups := 0
	for _, s := range tracer.Spans() {
		if s.Kind != tracing.KindWakeup {
			continue
		}
		wakeups++
		if s.StartNS != s.EndNS {
			t.Fatalf("immediate wakeup span not zero-width: [%d,%d]", s.StartNS, s.EndNS)
		}
	}
	if wakeups != 1 {
		t.Fatalf("want exactly 1 wakeup span from the events-ready path, got %d", wakeups)
	}
}
