package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"hermes/internal/bitops"
	"hermes/internal/ebpf"
	"hermes/internal/kernel"
	"hermes/internal/shm"
	"hermes/internal/sim"
	"hermes/internal/telemetry"
)

// observedStack builds an exclusive-LIFO stack observed with slots
// per-worker slots. steered reads kernel.reuseport.steered: the connections
// dispatched to each member socket, queued or dropped on overflow.
func observedStack(eng *sim.Engine, slots int) (ns *kernel.NetStack, steered func() []int64) {
	reg := telemetry.NewRegistry()
	ns = kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
	ns.Observe(reg, nil, slots)
	return ns, func() []int64 { return reg.Snapshot().Get("kernel.reuseport.steered").Values }
}

func freshMetrics(n int, nowNS int64) []shm.Metrics {
	ms := make([]shm.Metrics, n)
	for i := range ms {
		ms[i] = shm.Metrics{LoopEnterNS: nowNS, Busy: 0, Conn: 0}
	}
	return ms
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.HangThreshold = 0 },
		func(c *Config) { c.ThetaFrac = -0.1 },
		func(c *Config) { c.MinWorkers = 0 },
		func(c *Config) { c.EpollTimeout = 0 },
		func(c *Config) { c.EpollTimeout = syncQuantum },
		func(c *Config) { c.EpollTimeout = time.Nanosecond },
		func(c *Config) { c.Order = OrderSingleWinner + 1 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestScheduleUniformLoadSelectsAll(t *testing.T) {
	now := int64(time.Second)
	ms := freshMetrics(8, now)
	for i := range ms {
		ms[i].Busy = 5
		ms[i].Conn = 100
	}
	res := Schedule(now, ms, DefaultConfig(), OrderTimeConnEvent)
	if res.Passed != 8 || res.Alive != 8 {
		t.Fatalf("uniform load: passed=%d alive=%d, want 8,8", res.Passed, res.Alive)
	}
}

func TestScheduleZeroMetricsSelectsAll(t *testing.T) {
	// All-idle fleet with zero counters must not be filtered to nothing
	// (inclusive comparison against Avg=0).
	now := int64(time.Second)
	res := Schedule(now, freshMetrics(4, now), DefaultConfig(), OrderTimeConnEvent)
	if res.Passed != 4 {
		t.Fatalf("zero metrics: passed=%d, want 4", res.Passed)
	}
}

func TestScheduleFiltersHungWorker(t *testing.T) {
	cfg := DefaultConfig()
	now := int64(time.Second)
	ms := freshMetrics(4, now)
	ms[2].LoopEnterNS = now - int64(cfg.HangThreshold) - 1 // hung
	res := Schedule(now, ms, cfg, OrderTimeConnEvent)
	if res.Alive != 3 {
		t.Fatalf("alive=%d, want 3", res.Alive)
	}
	if res.Bitmap.Has(2) {
		t.Fatal("hung worker selected")
	}
	if res.Passed != 3 {
		t.Fatalf("passed=%d, want 3", res.Passed)
	}
}

func TestScheduleAllHungReturnsEmpty(t *testing.T) {
	cfg := DefaultConfig()
	now := int64(time.Hour)
	ms := freshMetrics(4, now-int64(cfg.HangThreshold)*2)
	res := Schedule(now, ms, cfg, OrderTimeConnEvent)
	if res.Passed != 0 || res.Bitmap != 0 || res.Alive != 0 {
		t.Fatalf("all-hung: %+v", res)
	}
}

func TestScheduleFiltersConnHeavyWorker(t *testing.T) {
	cfg := DefaultConfig() // θ/Avg = 0.5
	now := int64(time.Second)
	ms := freshMetrics(4, now)
	ms[0].Conn = 100
	ms[1].Conn = 100
	ms[2].Conn = 100
	ms[3].Conn = 1000 // avg=325, limit=487.5 → filtered
	res := Schedule(now, ms, cfg, OrderTimeConnEvent)
	if res.Bitmap.Has(3) {
		t.Fatal("conn-heavy worker passed the filter")
	}
	if res.Passed != 3 {
		t.Fatalf("passed=%d, want 3", res.Passed)
	}
}

func TestScheduleFiltersBusyWorker(t *testing.T) {
	cfg := DefaultConfig()
	now := int64(time.Second)
	ms := freshMetrics(4, now)
	ms[1].Busy = 500 // others 0 → avg=125, limit=187.5 → filtered
	res := Schedule(now, ms, cfg, OrderTimeConnEvent)
	if res.Bitmap.Has(1) || res.Passed != 3 {
		t.Fatalf("busy worker not filtered: %+v", res)
	}
}

func TestScheduleThetaWidensSelection(t *testing.T) {
	now := int64(time.Second)
	ms := freshMetrics(4, now)
	ms[0].Conn = 10
	ms[1].Conn = 12
	ms[2].Conn = 14
	ms[3].Conn = 20 // avg=14
	tight := DefaultConfig()
	tight.ThetaFrac = 0
	loose := DefaultConfig()
	loose.ThetaFrac = 0.5
	resTight := Schedule(now, ms, tight, OrderTimeConnEvent)
	resLoose := Schedule(now, ms, loose, OrderTimeConnEvent)
	if resTight.Passed >= resLoose.Passed {
		t.Fatalf("θ=0 passed %d, θ=0.5 passed %d; offset should widen selection",
			resTight.Passed, resLoose.Passed)
	}
	if resLoose.Passed != 4 { // limit = 21
		t.Fatalf("loose passed = %d, want 4", resLoose.Passed)
	}
}

func TestScheduleFilterOrderMatters(t *testing.T) {
	// A worker heavy in conns but idle in events, and one the reverse.
	// TimeOnly keeps both; the cascades drop their respective outliers.
	now := int64(time.Second)
	ms := freshMetrics(4, now)
	ms[0].Conn = 1000
	ms[1].Busy = 1000
	resTimeOnly := Schedule(now, ms, DefaultConfig(), OrderTimeOnly)
	resCascade := Schedule(now, ms, DefaultConfig(), OrderTimeConnEvent)
	if resTimeOnly.Passed != 4 {
		t.Fatalf("time-only passed %d", resTimeOnly.Passed)
	}
	if resCascade.Bitmap.Has(0) || resCascade.Bitmap.Has(1) {
		t.Fatalf("cascade kept an outlier: %b", resCascade.Bitmap)
	}
}

func TestScheduleDegenerateInputs(t *testing.T) {
	cfg := DefaultConfig()
	if res := Schedule(0, nil, cfg, OrderTimeConnEvent); res.Passed != 0 {
		t.Fatal("nil metrics")
	}
	if res := Schedule(0, make([]shm.Metrics, 65), cfg, OrderTimeConnEvent); res.Passed != 0 {
		t.Fatal("oversized table must be rejected")
	}
}

// Property: selection is always a subset of time-alive workers, and if any
// worker is alive at least one is selected.
func TestSchedulePropertySubsetAndNonEmpty(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(64)
		now := int64(time.Hour)
		ms := make([]shm.Metrics, n)
		anyAlive := false
		for i := range ms {
			age := int64(rng.Intn(int(2 * cfg.HangThreshold)))
			ms[i] = shm.Metrics{
				LoopEnterNS: now - age,
				Busy:        int64(rng.Intn(2000)),
				Conn:        int64(rng.Intn(20000)),
			}
			if age < int64(cfg.HangThreshold) {
				anyAlive = true
			}
		}
		res := Schedule(now, ms, cfg, OrderTimeConnEvent)
		for i := 0; i < n; i++ {
			if res.Bitmap.Has(i) && now-ms[i].LoopEnterNS >= int64(cfg.HangThreshold) {
				t.Fatalf("trial %d: hung worker %d selected", trial, i)
			}
		}
		if anyAlive && res.Passed == 0 {
			t.Fatalf("trial %d: alive workers but empty selection", trial)
		}
		if !anyAlive && res.Passed != 0 {
			t.Fatalf("trial %d: selection from fully hung fleet", trial)
		}
		if res.Passed != res.Bitmap.Count() {
			t.Fatalf("trial %d: passed %d != bitmap count %d", trial, res.Passed, res.Bitmap.Count())
		}
	}
}

func TestNativeSelectFallbackBelowMin(t *testing.T) {
	if _, ok := NativeSelect(0b1, 123, 2); ok {
		t.Fatal("single worker must trigger fallback with MinWorkers=2")
	}
	if _, ok := NativeSelect(0, 123, 1); ok {
		t.Fatal("empty bitmap selected a worker")
	}
	w, ok := NativeSelect(0b1, 123, 1)
	if !ok || w != 0 {
		t.Fatalf("MinWorkers=1 single bitmap: %d, %v", w, ok)
	}
}

func TestNativeSelectAlwaysPicksSetBit(t *testing.T) {
	f := func(bitmap uint64, hash uint32) bool {
		w, ok := NativeSelect(bitmap, hash, 1)
		if bitops.PopCount64(bitmap) == 0 {
			return !ok
		}
		return ok && bitmap&(1<<uint(w)) != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestNativeSelectBalanced(t *testing.T) {
	bitmap := uint64(0b10110101) // workers 0,2,4,5,7
	counts := map[int]int{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50000; i++ {
		w, ok := NativeSelect(bitmap, rng.Uint32(), 2)
		if !ok {
			t.Fatal("unexpected fallback")
		}
		counts[w]++
	}
	for _, w := range []int{0, 2, 4, 5, 7} {
		if counts[w] < 8000 || counts[w] > 12000 {
			t.Errorf("worker %d got %d of 50000, uneven", w, counts[w])
		}
	}
	if len(counts) != 5 {
		t.Fatalf("selected worker set %v", counts)
	}
}

// The assembled Algorithm 2 bytecode must agree with NativeSelect on every
// (bitmap, hash) — the VM is the spec, the native path the JIT stand-in.
func TestDispatchProgramMatchesNative(t *testing.T) {
	const n = 64
	sel := ebpf.NewArrayMap(1)
	sa := ebpf.NewSockArray(n)
	type fakeSock struct{ id int }
	socks := make([]*fakeSock, n)
	for i := range socks {
		socks[i] = &fakeSock{i}
		if err := sa.Put(uint32(i), socks[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, minWorkers := range []int{1, 2, 5} {
		prog, err := BuildDispatchProgram([]GroupMaps{{Sel: sel, Socks: sa}}, minWorkers, GroupByTupleHash)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(minWorkers)))
		for trial := 0; trial < 4000; trial++ {
			bitmap := rng.Uint64()
			switch trial % 8 {
			case 0:
				bitmap = 0
			case 1:
				bitmap = 1 << uint(rng.Intn(64))
			case 2:
				bitmap &= 0xff
			}
			hash := rng.Uint32()
			if err := sel.Update(0, bitmap); err != nil {
				t.Fatal(err)
			}
			ctx := &ebpf.ReuseportCtx{Hash: hash}
			r0, err := prog.Run(ctx)
			if err != nil {
				t.Fatalf("min=%d bitmap=%#x hash=%#x: %v", minWorkers, bitmap, hash, err)
			}
			nw, nok := NativeSelect(bitmap, hash, minWorkers)
			if nok != (r0 == 0) {
				t.Fatalf("min=%d bitmap=%#x hash=%#x: vm r0=%d native ok=%v",
					minWorkers, bitmap, hash, r0, nok)
			}
			if nok && ctx.SelectedIndex != nw {
				t.Fatalf("min=%d bitmap=%#x hash=%#x: vm picked %d, native %d",
					minWorkers, bitmap, hash, ctx.SelectedIndex, nw)
			}
		}
	}
}

// The same differential over several groups and both level-1 keys: the
// program AttachEBPF installs and its native twin selectWorker must steer
// every (bitmaps, hash, locality hash) to the same global worker.
func TestMultiGroupDispatchProgramMatchesSelectWorker(t *testing.T) {
	const groups, span = 3, 4
	for _, key := range []GroupKey{GroupByTupleHash, GroupByLocalityHash} {
		ns := kernel.NewNetStack(sim.NewEngine(1), kernel.WakeExclusiveLIFO)
		rg, err := ns.ListenReuseport(80, groups*span, 0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(groups*span, DefaultConfig(), WithGroups(groups), WithGroupKey(key))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AttachEBPF(rg); err != nil {
			t.Fatal(err)
		}
		prog := rg.Program()
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 3000; trial++ {
			for _, sel := range c.SelMaps() {
				bm := rng.Uint64() & 0xf // span=4
				if trial%5 == 0 {
					bm = uint64(trial % 3)
				}
				if err := sel.Update(0, bm); err != nil {
					t.Fatal(err)
				}
			}
			hash, lhash := rng.Uint32(), rng.Uint32()
			ctx := &ebpf.ReuseportCtx{Hash: hash, LocalityHash: lhash}
			r0, err := prog.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			nw, nok := c.selectWorker(hash, lhash, c.Config().MinWorkers)
			if nok != (r0 == 0) {
				t.Fatalf("key %d trial %d: vm r0=%d native ok=%v", key, trial, r0, nok)
			}
			if nok && ctx.Selected != rg.Sockets()[nw] {
				t.Fatalf("key %d trial %d: vm and native picked different sockets (native worker %d)", key, trial, nw)
			}
		}
	}
}

func TestDispatchProgramSize(t *testing.T) {
	sel := ebpf.NewArrayMap(1)
	sa := ebpf.NewSockArray(64)
	for i := 0; i < 64; i++ {
		sa.Put(uint32(i), i)
	}
	p, err := BuildDispatchProgram([]GroupMaps{{Sel: sel, Socks: sa}}, 2, GroupByTupleHash)
	if err != nil {
		t.Fatal(err)
	}
	// One group is exactly the paper's single-level instruction stream — no
	// level-1 prologue, no rank-hash mix — pinned because every steered SYN
	// pays for it.
	if p.Len() != 146 {
		t.Fatalf("single-group dispatch program is %d insns, want 146", p.Len())
	}
	// 16 groups must still fit the verifier budget comfortably.
	gm := make([]GroupMaps, 16)
	for i := range gm {
		gm[i] = GroupMaps{Sel: ebpf.NewArrayMap(1), Socks: sa}
	}
	gp, err := BuildDispatchProgram(gm, 2, GroupByTupleHash)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("16-group dispatch: %d insns", gp.Len())
	if gp.Len() > ebpf.MaxInsns {
		t.Fatal("grouped program exceeds verifier budget")
	}
}

// The dispatch program's text is pinned instruction for instruction: the
// SHA-256 of Disassemble() for one, two and four groups under both level-1
// keys. Every steered SYN runs this text and the JIT fuses it by exact shape,
// so a change to an emitter must show here, not only as lost speed.
func TestDispatchProgramText(t *testing.T) {
	for _, tc := range []struct {
		groups int
		key    GroupKey
		sha256 string
	}{
		{1, GroupByTupleHash, "8c59b204254ac7677c32b3bf652286c1a1d0f914d45e7732218aa1ba01921b61"},
		{1, GroupByLocalityHash, "8c59b204254ac7677c32b3bf652286c1a1d0f914d45e7732218aa1ba01921b61"},
		{2, GroupByTupleHash, "b91a62e30d19e7de0bad95cdab208059255139ae8b95e17360e048805fd12985"},
		{2, GroupByLocalityHash, "613928c1ec4a3173acb7eed8bfe99f77f17b0daf7f8e9b45c3b5a821ef0f3da5"},
		{4, GroupByTupleHash, "5c89f656ae1f2722fb4c6280230462ae3bce258d7fa8190240a5ee33082c8c01"},
		{4, GroupByLocalityHash, "91d40d680a8e608a91bdbe827d181f03782cd5d90e2dcda2ce81e46f3ec6460d"},
	} {
		gm := make([]GroupMaps, tc.groups)
		for i := range gm {
			gm[i] = GroupMaps{Sel: ebpf.NewArrayMap(1), Socks: ebpf.NewSockArray(64)}
		}
		p, err := BuildDispatchProgram(gm, 2, tc.key)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(p.Disassemble()))); got != tc.sha256 {
			t.Errorf("%d groups, key %d: program text SHA-256 %s, want %s", tc.groups, tc.key, got, tc.sha256)
		}
	}
}

// Building and compiling a dispatch program costs a few allocations per
// structure, not one per instruction or fused window, and compiling costs the
// same at any group count. The step counts pin that fusion still collapses
// every popcount and rank-select window. For one and four groups Compile
// reads 7 and 7 allocations and BuildDispatchProgram 9 and 13 (linux/amd64,
// go1.24, with or without -race). With string labels and the assembler's
// pending-jump and defined-label maps, the build read 26 and 88; before that,
// with the fusion matchers building their shapes on the heap, jump targets
// and map slots in maps, the assembler growing from empty and labels made by
// fmt.Sprintf, the two read 44 and 204, and 41 and 124.
func TestDispatchProgramAllocs(t *testing.T) {
	const compileBudget = 8
	for _, tc := range []struct {
		groups, steps int
		buildBudget   float64
	}{{1, 22, 12}, {4, 96, 20}} {
		gm := make([]GroupMaps, tc.groups)
		for i := range gm {
			sa := ebpf.NewSockArray(64)
			for j := 0; j < 64; j++ {
				if err := sa.Put(uint32(j), j); err != nil {
					t.Fatal(err)
				}
			}
			gm[i] = GroupMaps{Sel: ebpf.NewArrayMap(1), Socks: sa}
		}
		var p *ebpf.Program
		build := testing.AllocsPerRun(10, func() {
			var err error
			if p, err = BuildDispatchProgram(gm, 2, GroupByTupleHash); err != nil {
				t.Fatal(err)
			}
		})
		var c *ebpf.Compiled
		compile := testing.AllocsPerRun(10, func() {
			var err error
			if c, err = ebpf.Compile(p); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d groups: %d insns, %d steps; build %v allocs, compile %v", tc.groups, c.Insns(), c.Steps(), build, compile)
		if c.Steps() != tc.steps {
			t.Errorf("%d groups: %d steps for %d insns, want %d", tc.groups, c.Steps(), c.Insns(), tc.steps)
		}
		if build > tc.buildBudget {
			t.Errorf("%d groups: BuildDispatchProgram allocates %v times, budget %v", tc.groups, build, tc.buildBudget)
		}
		if compile > compileBudget {
			t.Errorf("%d groups: Compile allocates %v times, budget %d", tc.groups, compile, compileBudget)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	sel := ebpf.NewArrayMap(1)
	sa := ebpf.NewSockArray(1)
	if _, err := BuildDispatchProgram([]GroupMaps{{Sel: sel, Socks: sa}}, 0, GroupByTupleHash); err == nil {
		t.Fatal("minWorkers=0 accepted")
	}
	if _, err := BuildDispatchProgram(nil, 2, GroupByTupleHash); err == nil {
		t.Fatal("empty groups accepted")
	}
	two := []GroupMaps{{Sel: sel, Socks: sa}, {Sel: sel, Socks: sa}}
	if _, err := BuildDispatchProgram(two, 0, GroupByTupleHash); err == nil {
		t.Fatal("multi-group minWorkers=0 accepted")
	}
}

// End-to-end: controller + kernel. Workers 0,1 healthy, worker 2 hung; new
// connections must avoid worker 2 entirely once the scheduler has run.
func TestControllerEndToEndAvoidsHungWorker(t *testing.T) {
	for _, attach := range []string{"ebpf", "native"} {
		t.Run(attach, func(t *testing.T) {
			eng := sim.NewEngine(1)
			ns, steered := observedStack(eng, 3)
			g, err := ns.ListenReuseport(80, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			ctl, err := NewController(3, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if attach == "ebpf" {
				err = ctl.AttachEBPF(g)
			} else {
				err = ctl.AttachNative(g)
			}
			if err != nil {
				t.Fatal(err)
			}

			now := int64(time.Second)
			hooks := []*WorkerHook{ctl.NewWorkerHook(0), ctl.NewWorkerHook(1), ctl.NewWorkerHook(2)}
			hooks[0].LoopEnter(now)
			hooks[1].LoopEnter(now)
			hooks[2].LoopEnter(now - int64(ctl.Config().HangThreshold) - 1) // hung
			res := hooks[0].ScheduleAndSync(now)
			if res.Passed != 2 || res.Bitmap.Has(2) {
				t.Fatalf("schedule: %+v", res)
			}

			for i := uint32(0); i < 300; i++ {
				ns.DeliverSYN(kernel.FourTuple{SrcIP: i, SrcPort: uint16(i), DstIP: 1, DstPort: 80}, nil)
			}
			if q := g.Sockets()[2].QueueLen(); q != 0 {
				t.Fatalf("hung worker received %d connections", q)
			}
			if g.ProgDispatched != 300 {
				t.Fatalf("ProgDispatched=%d fallbacks=%d errs=%d",
					g.ProgDispatched, g.Fallbacks, g.ProgErrors)
			}
			n := steered()
			a, b := n[0], n[1]
			if a+b != 300 || a < 90 || b < 90 {
				t.Fatalf("healthy split %d/%d", a, b)
			}
			st := ctl.Stats()
			if st.ScheduleCalls != 1 || st.Syncs != 1 || st.AvgPassed != 2 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

// With fewer than MinWorkers passing, dispatch must fall back to reuseport
// hashing — including onto the "unavailable" worker (two-stage filtering's
// deliberate safety valve, §5.3.2).
func TestControllerFallbackBelowMinWorkers(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
	g, _ := ns.ListenReuseport(80, 3, 0)
	ctl, _ := NewController(3, DefaultConfig()) // MinWorkers=2
	if err := ctl.AttachEBPF(g); err != nil {
		t.Fatal(err)
	}
	now := int64(time.Second)
	h0 := ctl.NewWorkerHook(0)
	h0.LoopEnter(now) // only worker 0 alive
	h0.ScheduleAndSync(now)

	for i := uint32(0); i < 300; i++ {
		ns.DeliverSYN(kernel.FourTuple{SrcIP: i, SrcPort: uint16(i), DstIP: 1, DstPort: 80}, nil)
	}
	if g.Fallbacks != 300 {
		t.Fatalf("fallbacks=%d prog=%d", g.Fallbacks, g.ProgDispatched)
	}
	// Hash fallback spreads across all 3 sockets.
	spread := 0
	for _, s := range g.Sockets() {
		if s.QueueLen() > 0 {
			spread++
		}
	}
	if spread != 3 {
		t.Fatalf("fallback did not hash across all sockets: %d", spread)
	}
}

func TestControllerSizeMismatch(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
	g, _ := ns.ListenReuseport(80, 4, 0)
	ctl, _ := NewController(3, DefaultConfig())
	if err := ctl.AttachEBPF(g); err == nil {
		t.Fatal("size mismatch accepted (ebpf)")
	}
	if err := ctl.AttachNative(g); err == nil {
		t.Fatal("size mismatch accepted (native)")
	}
	if _, err := NewController(0, DefaultConfig()); err == nil {
		t.Fatal("0 workers accepted")
	}
}

func TestWorkerHookCounters(t *testing.T) {
	ctl, _ := NewController(2, DefaultConfig())
	h := ctl.NewWorkerHook(0)
	h.LoopEnter(100)
	h.EventsFetched(3)
	h.EventHandled()
	h.ConnOpened()
	h.ConnOpened()
	h.ConnClosed()
	m := h.Metrics()
	if m.LoopEnterNS != 100 || m.Busy != 2 || m.Conn != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	h.EventsFetched(0)
	h.EventsFetched(-5)
	if h.Metrics().Busy != 2 {
		t.Fatal("non-positive EventsFetched must be ignored")
	}
}

// 128 workers over two groups: dispatch must reach both groups with tuple
// hashing, and pin destinations with locality hashing.
func TestControllerTwoLevel(t *testing.T) {
	eng := sim.NewEngine(1)
	ns, steered := observedStack(eng, 128)
	g, err := ns.ListenReuseport(80, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := New(128, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if gc.Groups() != 2 || gc.Workers() != 128 {
		t.Fatalf("layout: %d groups, %d workers", gc.Groups(), gc.Workers())
	}
	if err := gc.AttachEBPF(g); err != nil {
		t.Fatal(err)
	}
	warmUp(gc, int64(time.Second))
	for i := uint32(0); i < 4000; i++ {
		ns.DeliverSYN(kernel.FourTuple{SrcIP: i * 7, SrcPort: uint16(i), DstIP: i % 50, DstPort: 80}, nil)
	}
	if g.ProgDispatched != 4000 {
		t.Fatalf("prog=%d fallbacks=%d errors=%d", g.ProgDispatched, g.Fallbacks, g.ProgErrors)
	}
	var lo, hi int64
	for i, n := range steered() {
		if i < 64 {
			lo += n
		} else {
			hi += n
		}
	}
	if lo < 1000 || hi < 1000 {
		t.Fatalf("group split %d/%d too skewed", lo, hi)
	}
}

func TestControllerLocalityPinsDestination(t *testing.T) {
	eng := sim.NewEngine(1)
	ns, steered := observedStack(eng, 8)
	g, _ := ns.ListenReuseport(80, 8, 0)
	gc, err := New(8, DefaultConfig(), WithGroups(4), WithGroupKey(GroupByLocalityHash))
	if err != nil {
		t.Fatal(err)
	}
	if err := gc.AttachNative(g); err != nil {
		t.Fatal(err)
	}
	warmUp(gc, int64(time.Second))
	// All connections share DstIP/DstPort → one group (2 workers); varying
	// 4-tuples spread within it.
	for i := uint32(0); i < 1000; i++ {
		ns.DeliverSYN(kernel.FourTuple{SrcIP: i * 13, SrcPort: uint16(i * 7), DstIP: 42, DstPort: 80}, nil)
	}
	nonEmpty := 0
	var hitGroup = -1
	for i, n := range steered() {
		if n > 0 {
			nonEmpty++
			if hitGroup == -1 {
				hitGroup = i / 2
			} else if i/2 != hitGroup {
				t.Fatalf("traffic crossed groups: socket %d and group %d", i, hitGroup)
			}
		}
	}
	if nonEmpty != 2 {
		t.Fatalf("locality mode hit %d sockets, want the 2 of one group", nonEmpty)
	}
}

// warmUp stamps every worker at now and then syncs every group. Stamping
// first matters: a group's first sync serves the rest of its quantum, so a
// worker stamped after it would stay out of the published bitmap.
func warmUp(c *Controller, now int64) {
	hooks := make([]*WorkerHook, c.Workers())
	for w := range hooks {
		hooks[w] = c.NewWorkerHook(w)
		hooks[w].LoopEnter(now)
	}
	for _, h := range hooks {
		h.ScheduleAndSync(now)
	}
}

func TestControllerGroupValidation(t *testing.T) {
	if _, err := New(0, DefaultConfig()); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := New(10, DefaultConfig(), WithGroups(3)); err == nil {
		t.Fatal("non-divisible grouping accepted")
	}
	if _, err := New(130, DefaultConfig(), WithGroups(2)); err == nil {
		t.Fatal("span > 64 accepted")
	}
	eng := sim.NewEngine(1)
	ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
	g, _ := ns.ListenReuseport(80, 4, 0)
	gc, _ := New(128, DefaultConfig())
	if err := gc.AttachEBPF(g); err == nil {
		t.Fatal("socket mismatch accepted")
	}
	if err := gc.AttachNative(g); err == nil {
		t.Fatal("socket mismatch accepted (native)")
	}
}

func BenchmarkSchedule32(b *testing.B) {
	now := int64(time.Second)
	ms := freshMetrics(32, now)
	for i := range ms {
		ms[i].Busy = int64(i % 7)
		ms[i].Conn = int64(i * 13 % 301)
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Schedule(now, ms, cfg, OrderTimeConnEvent)
	}
}

func BenchmarkDispatchVMvsNative(b *testing.B) {
	sel := ebpf.NewArrayMap(1)
	sa := ebpf.NewSockArray(32)
	for i := 0; i < 32; i++ {
		sa.Put(uint32(i), i)
	}
	sel.Update(0, 0xaaaa5555aaaa5555)
	prog, err := BuildDispatchProgram([]GroupMaps{{Sel: sel, Socks: sa}}, 2, GroupByTupleHash)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("vm", func(b *testing.B) {
		ctx := &ebpf.ReuseportCtx{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx.Hash = uint32(i)
			if _, err := prog.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native", func(b *testing.B) {
		bm, _ := sel.Lookup(0)
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			w, _ := NativeSelect(bm, uint32(i), 2)
			sink += w
		}
		_ = sink
	})
}

// The emitted Algorithm 2 bytecode must contain the paper's building blocks
// (map lookup, reciprocal_scale, sk_select_reuseport, bit arithmetic) and
// stay loop-free by construction.
func TestDispatchProgramShape(t *testing.T) {
	sel := ebpf.NewArrayMap(1)
	sa := ebpf.NewSockArray(8)
	for i := 0; i < 8; i++ {
		if err := sa.Put(uint32(i), i); err != nil {
			t.Fatal(err)
		}
	}
	p, err := BuildDispatchProgram([]GroupMaps{{Sel: sel, Socks: sa}}, 2, GroupByTupleHash)
	if err != nil {
		t.Fatal(err)
	}
	dis := p.Disassemble()
	for _, frag := range []string{
		"call bpf_map_lookup_elem",
		"call bpf_get_hash",
		"call reciprocal_scale",
		"call bpf_sk_select_reuseport",
		"exit",
	} {
		if !strings.Contains(dis, frag) {
			t.Errorf("dispatch program missing %q:\n%s", frag, dis)
		}
	}
	// One group has no level 1, so the key is moot; several groups keyed by
	// locality add the locality helper.
	if strings.Contains(dis, "call bpf_get_locality_hash") {
		t.Error("single-group program calls the locality helper")
	}
	two := []GroupMaps{{Sel: sel, Socks: sa}, {Sel: ebpf.NewArrayMap(1), Socks: sa}}
	gp, err := BuildDispatchProgram(two, 2, GroupByLocalityHash)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gp.Disassemble(), "call bpf_get_locality_hash") {
		t.Error("multi-group-by-locality program missing locality helper")
	}
}

// The group table's layout: ceil(n/64) groups, only the last one partial.
func TestGroupedLayout(t *testing.T) {
	cases := []struct {
		n, groups, lastSize int
	}{
		{1, 1, 1},
		{64, 1, 64},
		{65, 2, 1},
		{128, 2, 64},
		{130, 3, 2},
		{256, 4, 64},
	}
	for _, tc := range cases {
		c, err := NewController(tc.n, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if c.Groups() != tc.groups {
			t.Errorf("NewController(%d).Groups() = %d, want %d", tc.n, c.Groups(), tc.groups)
		}
		if got := c.groups[c.Groups()-1].wst.Workers(); got != tc.lastSize {
			t.Errorf("NewController(%d) last group size = %d, want %d", tc.n, got, tc.lastSize)
		}
		if c.Workers() != tc.n {
			t.Errorf("Workers() = %d, want %d", c.Workers(), tc.n)
		}
	}
}

// Global id → (group, slot) → global id: a hook writes the row Snapshot
// reports at its worker's index, and the slot it maps to exists.
func TestGroupedLocateRoundTrip(t *testing.T) {
	c, err := NewController(200, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 200; w++ {
		c.NewWorkerHook(w).w.AddConn(int64(w + 1))
		if slot, size := w%c.span, c.groups[w/c.span].wst.Workers(); slot >= size {
			t.Fatalf("worker %d slot %d exceeds group %d size %d", w, slot, w/c.span, size)
		}
	}
	snap := c.Snapshot(nil)
	if len(snap) != 200 {
		t.Fatalf("Snapshot holds %d rows, want 200", len(snap))
	}
	for w, m := range snap {
		if m.Conn != int64(w+1) {
			t.Fatalf("row %d holds conn %d: worker %d's hook wrote elsewhere", w, m.Conn, w)
		}
	}
}

func TestGroupedWriterIsolation(t *testing.T) {
	c, err := NewController(130, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.NewWorkerHook(0).ConnOpened()
	c.NewWorkerHook(64).w.AddConn(2)
	c.NewWorkerHook(129).w.AddConn(3)
	if got := c.groups[0].wst.Snapshot(nil)[0].Conn; got != 1 {
		t.Errorf("group0 slot0 conn = %d, want 1", got)
	}
	if got := c.groups[1].wst.Snapshot(nil)[0].Conn; got != 2 {
		t.Errorf("group1 slot0 conn = %d, want 2", got)
	}
	if got := c.groups[2].wst.Snapshot(nil)[1].Conn; got != 3 {
		t.Errorf("group2 slot1 conn = %d, want 3", got)
	}
}
