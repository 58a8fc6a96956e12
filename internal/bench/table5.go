package bench

import (
	"fmt"
	"time"

	"hermes/internal/core"
	"hermes/internal/ebpf"
	"hermes/internal/shm"
	"hermes/internal/stats"
)

// Overheads holds measured per-operation costs of Hermes's components, in
// nanoseconds. These are wall-clock microbenchmarks of the real (not
// simulated) code paths; Table 5 converts them to CPU% at per-level event
// rates.
type Overheads struct {
	CounterNS        float64 // one event-loop counter sequence (Fig. 9 lines 12/14/18)
	SchedulerNS      float64 // one Algorithm 1 pass incl. WST snapshot
	SyscallNS        float64 // one kernel map sync (atomic store + nominal syscall)
	DispatchVMNS     float64 // one Algorithm 2 run on the simulated eBPF VM
	DispatchNativeNS float64 // one native (JIT stand-in) dispatch
}

// NominalSyscallNS approximates the bpf(2) syscall + context-switch cost the
// paper's "System call" column accounts for; our map update is an atomic
// store in-process, so the syscall itself is a documented substitution.
const NominalSyscallNS = 500

// MeasureOverheads times the real component code paths.
func MeasureOverheads(iters int) Overheads {
	if iters <= 0 {
		iters = 200_000
	}
	var o Overheads

	// Counter: the per-event instrumentation.
	wst := shm.NewWST(32)
	wr := wst.Writer(7)
	start := time.Now()
	for i := 0; i < iters; i++ {
		wr.SetLoopEnter(int64(i))
		wr.AddBusy(1)
		wr.AddBusy(-1)
		wr.AddConn(1)
		wr.AddConn(-1)
	}
	o.CounterNS = float64(time.Since(start).Nanoseconds()) / float64(iters)

	// Scheduler: snapshot + cascade filter over 32 workers.
	cfg := core.DefaultConfig()
	buf := make([]shm.Metrics, 0, 32)
	for i := 0; i < 32; i++ {
		w := wst.Writer(i)
		w.SetLoopEnter(int64(time.Second))
		w.AddBusy(int64(i % 5))
		w.AddConn(int64(i * 13 % 211))
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		buf = wst.Snapshot(buf[:0])
		core.Schedule(int64(time.Second), buf, cfg, core.OrderTimeConnEvent)
	}
	o.SchedulerNS = float64(time.Since(start).Nanoseconds()) / float64(iters)

	// Kernel sync: eBPF map update.
	sel := ebpf.NewArrayMap(1)
	start = time.Now()
	for i := 0; i < iters; i++ {
		_ = sel.Update(0, uint64(i))
	}
	o.SyscallNS = float64(time.Since(start).Nanoseconds())/float64(iters) + NominalSyscallNS

	// Dispatcher: Algorithm 2, bytecode and native.
	sa := ebpf.NewSockArray(32)
	for i := 0; i < 32; i++ {
		_ = sa.Put(uint32(i), i)
	}
	_ = sel.Update(0, 0xaaaa5555)
	prog, err := core.BuildDispatchProgram([]core.GroupMaps{{Sel: sel, Socks: sa}}, 2, core.GroupByTupleHash)
	if err != nil {
		panic(err)
	}
	ctx := &ebpf.ReuseportCtx{}
	start = time.Now()
	for i := 0; i < iters; i++ {
		ctx.Hash = uint32(i)
		if _, err := prog.Run(ctx); err != nil {
			panic(err)
		}
	}
	o.DispatchVMNS = float64(time.Since(start).Nanoseconds()) / float64(iters)

	bitmap, _ := sel.Lookup(0)
	start = time.Now()
	sink := 0
	for i := 0; i < iters; i++ {
		w, _ := core.NativeSelect(bitmap, uint32(i), 2)
		sink += w
	}
	_ = sink
	o.DispatchNativeNS = float64(time.Since(start).Nanoseconds()) / float64(iters)
	return o
}

// table5Level describes one load level's operation rates (per second,
// whole-device), matching the simulated levels of Table 3 and the
// scheduler-frequency measurements of Fig. 14.
type table5Level struct {
	name     string
	eventsPS float64 // epoll events processed
	schedPS  float64 // schedule_and_sync calls (≙ map syncs)
	connsPS  float64 // new connections dispatched
}

func init() {
	// Wall-clock microbenchmarks: concurrency would skew them, so table5
	// stays a one-cell sequential experiment.
	Register(Seq("table5",
		"CPU overhead of Hermes components (measured microbenchmarks)", Table5))
}

// Table5 reproduces Table 5: CPU utilization of Hermes's components by load
// level, computed as rate × ns-per-op over the device's total CPU capacity.
func Table5(opts Options) string {
	o := MeasureOverheads(0)
	capacityNS := float64(opts.Workers) * 1e9
	levels := []table5Level{
		{"Light", 60_000, 6_000, 40_000},
		{"Medium", 180_000, 14_000, 80_000},
		{"Heavy", 450_000, 22_000, 120_000},
	}
	tb := stats.NewTable("Table 5 — overhead (CPU utilization) of Hermes components",
		"load", "Counter", "Scheduler", "System call", "Dispatcher (VM)", "Dispatcher (native)")
	for _, lv := range levels {
		pct := func(rate, ns float64) string {
			return fmt.Sprintf("%.3f%%", 100*rate*ns/capacityNS)
		}
		tb.AddRow(lv.name,
			pct(lv.eventsPS, o.CounterNS),
			pct(lv.schedPS, o.SchedulerNS),
			pct(lv.schedPS, o.SyscallNS),
			pct(lv.connsPS, o.DispatchVMNS),
			pct(lv.connsPS, o.DispatchNativeNS))
	}
	return tb.Render() + fmt.Sprintf(
		"measured ns/op: counter=%.0f scheduler=%.0f syscall=%.0f dispatchVM=%.0f dispatchNative=%.0f\n"+
			"paper heavy: counter 0.897%%, scheduler 0.531%%, syscall 0.965%%, dispatcher 0.043%%\n",
		o.CounterNS, o.SchedulerNS, o.SyscallNS, o.DispatchVMNS, o.DispatchNativeNS)
}
