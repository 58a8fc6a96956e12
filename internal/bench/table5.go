package bench

import (
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
	DispatchVMNS     float64 // one Algorithm 2 run as every SYN is served: the compiled bytecode
	DispatchInterpNS float64 // the same bytecode on the interpreter, the compiled form's oracle
	DispatchNativeNS float64 // one native dispatch, Algorithm 2 written in Go
}

// NominalSyscallNS approximates the bpf(2) syscall + context-switch cost the
// paper's "System call" column accounts for; our map update is an atomic
// store in-process, so the syscall itself is a documented substitution.
const NominalSyscallNS = 500

// Overhead is one timed component code path: Op(i) is iteration i of it.
type Overhead struct {
	Name string
	Op   func(i int)
}

// OverheadFixtures builds Table 5's code paths once; MeasureOverheads loops
// over them and the root BenchmarkTable5 runs them as sub-benchmarks. It fails
// only if the dispatch program does not build or does not compile.
func OverheadFixtures() ([]Overhead, error) {
	// Counter: the per-event instrumentation.
	wr := shm.NewWST(32).Writer(7)

	// Scheduler: snapshot + cascade filter over 32 workers.
	wst := shm.NewWST(32)
	for i := 0; i < 32; i++ {
		w := wst.Writer(i)
		w.SetLoopEnter(int64(time.Second))
		w.AddBusy(int64(i % 5))
		w.AddConn(int64(i * 13 % 211))
	}
	cfg := core.DefaultConfig()
	buf := make([]shm.Metrics, 0, 32)

	// Kernel sync: eBPF map update.
	synced := ebpf.NewArrayMap(1)

	// Dispatcher: Algorithm 2 as bytecode — compiled, which is what
	// ReuseportGroup.AttachProgram installs and every SYN runs, and
	// interpreted — and as native Go.
	const bitmap = 0xaaaa5555
	sel, sa := ebpf.NewArrayMap(1), ebpf.NewSockArray(32)
	for i := 0; i < 32; i++ {
		_ = sa.Put(uint32(i), i)
	}
	_ = sel.Update(0, bitmap)
	prog, err := core.BuildDispatchProgram([]core.GroupMaps{{Sel: sel, Socks: sa}}, 2, core.GroupByTupleHash)
	if err != nil {
		return nil, err
	}
	jit, err := prog.Compiled()
	if err != nil {
		return nil, err
	}
	env, ctx, sink := &ebpf.Env{}, &ebpf.ReuseportCtx{}, 0

	return []Overhead{
		{"counter", func(i int) {
			wr.SetLoopEnter(int64(i))
			wr.AddBusy(1)
			wr.AddBusy(-1)
			wr.AddConn(1)
			wr.AddConn(-1)
		}},
		{"scheduler", func(int) {
			buf = wst.Snapshot(buf[:0])
			core.Schedule(int64(time.Second), buf, cfg, core.OrderTimeConnEvent)
		}},
		{"map-sync", func(i int) { _ = synced.Update(0, uint64(i)) }},
		{"dispatch-vm", func(i int) {
			env.Ctx.Hash = uint32(i)
			if _, err := jit.Run(env); err != nil {
				panic(err)
			}
		}},
		{"dispatch-interp", func(i int) {
			ctx.Hash = uint32(i)
			if _, err := prog.Run(ctx); err != nil {
				panic(err)
			}
		}},
		{"dispatch-native", func(i int) {
			w, _ := core.NativeSelect(bitmap, uint32(i), 2)
			sink += w
		}},
	}, nil
}

// MeasureOverheads times the real component code paths.
func MeasureOverheads(iters int) Overheads {
	if iters <= 0 {
		iters = 200_000
	}
	fixtures, err := OverheadFixtures()
	if err != nil {
		panic(err)
	}
	ns := make(map[string]float64, len(fixtures))
	for _, f := range fixtures {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f.Op(i)
		}
		ns[f.Name] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return Overheads{
		CounterNS:        ns["counter"],
		SchedulerNS:      ns["scheduler"],
		SyscallNS:        ns["map-sync"] + NominalSyscallNS,
		DispatchVMNS:     ns["dispatch-vm"],
		DispatchInterpNS: ns["dispatch-interp"],
		DispatchNativeNS: ns["dispatch-native"],
	}
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
	Register(Experiment{Name: "table5", Cells: oneCell("table5", table5), Tables: cellTables,
		Desc: "CPU overhead of Hermes components (measured microbenchmarks)"})
}

// table5 reproduces Table 5: CPU utilization of Hermes's components by load
// level, computed as rate × ns-per-op over the device's total CPU capacity.
func table5(opts Options) *stats.Table {
	o := MeasureOverheads(0)
	capacityNS := float64(opts.Workers) * 1e9
	levels := []table5Level{
		{"Light", 60_000, 6_000, 40_000},
		{"Medium", 180_000, 14_000, 80_000},
		{"Heavy", 450_000, 22_000, 120_000},
	}
	tb := stats.NewTable("Table 5 — overhead (CPU utilization) of Hermes components",
		stats.Col("load"), stats.Pct("Counter", 3), stats.Pct("Scheduler", 3), stats.Pct("System call", 3),
		stats.Pct("Dispatcher (VM)", 3), stats.Pct("Dispatcher (native)", 3))
	for _, lv := range levels {
		tb.AddRow(lv.name,
			lv.eventsPS*o.CounterNS/capacityNS,
			lv.schedPS*o.SchedulerNS/capacityNS,
			lv.schedPS*o.SyscallNS/capacityNS,
			lv.connsPS*o.DispatchVMNS/capacityNS,
			lv.connsPS*o.DispatchNativeNS/capacityNS)
	}
	tb.Note("measured ns/op: counter=%.0f scheduler=%.0f syscall=%.0f dispatchVM=%.0f (interpreted %.0f) dispatchNative=%.0f",
		o.CounterNS, o.SchedulerNS, o.SyscallNS, o.DispatchVMNS, o.DispatchInterpNS, o.DispatchNativeNS)
	tb.Note("paper heavy: counter 0.897%, scheduler 0.531%, syscall 0.965%, dispatcher 0.043%")
	return tb
}
