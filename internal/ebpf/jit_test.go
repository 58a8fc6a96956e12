package ebpf

import (
	"testing"
)

// runBoth executes p under the interpreter and the JIT on identical contexts
// and fails the test on any observable divergence: R0, error identity, and
// the context's selection outputs. It returns the interpreter's results.
func runBoth(t *testing.T, p *Program, ctx ReuseportCtx) (uint64, error) {
	t.Helper()
	c, err := p.Compiled()
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, p.Disassemble())
	}
	ictx, env := ctx, Env{Ctx: ctx}
	jctx := &env.Ctx
	ir0, ierr := p.Run(&ictx)
	jr0, jerr := c.Run(&env)
	if ir0 != jr0 || ierr != jerr {
		t.Fatalf("divergence: interp (r0=%d err=%v) jit (r0=%d err=%v)\n%s",
			ir0, ierr, jr0, jerr, p.Disassemble())
	}
	if ictx.SelectedIndex != jctx.SelectedIndex || ictx.Selected != jctx.Selected {
		t.Fatalf("ctx divergence: interp (%v,%d) jit (%v,%d)\n%s",
			ictx.Selected, ictx.SelectedIndex, jctx.Selected, jctx.SelectedIndex, p.Disassemble())
	}
	return ir0, ierr
}

// The popcount idiom must fuse (shrinking the step sequence) while staying
// bit-identical to the interpreter — including the scratch register's final
// value, which later instructions are allowed to read.
func TestJITPopCountFusionAndRegisterFidelity(t *testing.T) {
	for _, returnReg := range []Reg{R6, R3} { // popcount result / scratch
		var pop [popCountLen]Insn
		popCountShape(&pop, R6, R3)
		insns := []Insn{{Op: OpMovImm, Dst: R6, Imm: 0}, {Op: OpMovImm, Dst: R3, Imm: 0}}
		insns = append(insns, pop[:]...)
		insns = append(insns, Insn{Op: OpMovReg, Dst: R0, Src: returnReg}, Insn{Op: OpExit})
		for _, v := range []uint64{0, 1, 0xffffffffffffffff, 0x8000000000000001, 0x5555aaaa33337777, 12345} {
			insns[0].Imm = v
			p := &Program{insns: append([]Insn(nil), insns...)}
			if err := Verify(p); err != nil {
				t.Fatal(err)
			}
			runBoth(t, p, ReuseportCtx{Hash: 7})
		}
		p := &Program{insns: insns}
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if c.Steps() >= c.Insns() {
			t.Fatalf("popcount did not fuse: %d steps for %d insns", c.Steps(), c.Insns())
		}
	}
}

// A jump landing inside the popcount window must suppress fusion without
// changing behaviour.
func TestJITFusionBlockedByJumpTarget(t *testing.T) {
	// Jump over the first two instructions of the popcount sequence, landing
	// mid-window; the fallthrough path executes the whole window.
	insns := []Insn{
		{Op: OpMovImm, Dst: R6, Imm: 0xf0f0_1234_5678_9abc},
		{Op: OpMovImm, Dst: R3, Imm: 0},
		{Op: OpJeqImm, Dst: R6, Imm: 0, Off: 2}, // never taken, but targets pc+3+2
	}
	var pop [popCountLen]Insn
	popCountShape(&pop, R6, R3)
	insns = append(insns, pop[:]...)
	insns = append(insns, Insn{Op: OpMovReg, Dst: R0, Src: R6}, Insn{Op: OpExit})
	p := &Program{insns: insns}
	if err := Verify(p); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Steps() != c.Insns() {
		t.Fatalf("fusion applied across a jump target: %d steps for %d insns", c.Steps(), c.Insns())
	}
	runBoth(t, p, ReuseportCtx{})
}

// Jump targets are step indices, and a fused window is one step: a branch over
// a fused window, a branch onto its first instruction and a branch past two of
// them must each land where the interpreter lands, taken or not.
func TestJITJumpsAcrossFusedWindows(t *testing.T) {
	var pop6, pop7 [popCountLen]Insn
	popCountShape(&pop6, R6, R3)
	popCountShape(&pop7, R7, R3)
	for _, v := range []uint64{0, 1, 0xf0f0_1234_5678_9abc} {
		insns := []Insn{
			{Op: OpMovImm, Dst: R6, Imm: v},
			{Op: OpMovImm, Dst: R3, Imm: 7},
			{Op: OpMovImm, Dst: R7, Imm: 0xff},
			{Op: OpJeqImm, Dst: R6, Imm: 0, Off: 2*popCountLen + 3}, // over both windows
			{Op: OpJeqImm, Dst: R6, Imm: 1, Off: 1},                 // onto the first window's first instruction
			{Op: OpMovImm, Dst: R6, Imm: 0x0f0f},
		}
		insns = append(insns, pop6[:]...)
		insns = append(insns, Insn{Op: OpJgtImm, Dst: R6, Imm: 4, Off: popCountLen}) // over the second window
		insns = append(insns, pop7[:]...)
		insns = append(insns,
			Insn{Op: OpMovReg, Dst: R0, Src: R6},
			Insn{Op: OpLshImm, Dst: R0, Imm: 8},
			Insn{Op: OpOrReg, Dst: R0, Src: R7},
			Insn{Op: OpLshImm, Dst: R0, Imm: 8},
			Insn{Op: OpXorReg, Dst: R0, Src: R3},
			Insn{Op: OpExit})
		p := &Program{insns: insns}
		if err := Verify(p); err != nil {
			t.Fatal(err)
		}
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.Insns() - 2*(popCountLen-1); c.Steps() != want {
			t.Fatalf("%d steps for %d insns with two fusable windows, want %d", c.Steps(), c.Insns(), want)
		}
		runBoth(t, p, ReuseportCtx{})
	}
}

// Helper calls with a dataflow-resolved map argument must behave exactly
// like the interpreter — including the ErrMapMiss path — and calls whose map
// argument differs across paths must fall back to the generic helper.
func TestJITHelperSpecializationAndMerge(t *testing.T) {
	am := NewArrayMap(2)
	_ = am.Update(0, 0b1011)
	am2 := NewArrayMap(2)
	_ = am2.Update(0, 0b0100)
	sa := NewSockArray(4)
	_ = sa.Put(1, "sock1")

	// Straight-line: known slot, hit and miss.
	for _, key := range []uint64{0, 5} {
		p := &Program{
			insns: []Insn{
				{Op: OpLdMap, Dst: R1, Imm: 0},
				{Op: OpMovImm, Dst: R2, Imm: key},
				{Op: OpCall, Imm: uint64(HelperMapLookupElem)},
				{Op: OpExit},
			},
			maps: []Map{am, am2, sa},
		}
		if err := Verify(p); err != nil {
			t.Fatal(err)
		}
		r0, err := runBoth(t, p, ReuseportCtx{})
		if key == 0 && (err != nil || r0 != 0b1011) {
			t.Fatalf("lookup hit: r0=%d err=%v", r0, err)
		}
		if key == 5 && err != ErrMapMiss {
			t.Fatalf("lookup miss: err=%v", err)
		}
	}

	// Merge conflict: R1 holds map 0 on one path, map 1 on the other. The
	// compiler must fall back to the generic helper and still match.
	for _, hash := range []uint32{0, 1} {
		p := &Program{
			insns: []Insn{
				{Op: OpCall, Imm: uint64(HelperGetHash)},
				{Op: OpLdMap, Dst: R1, Imm: 0},
				{Op: OpJeqImm, Dst: R0, Imm: 0, Off: 1},
				{Op: OpLdMap, Dst: R1, Imm: 1},
				{Op: OpMovImm, Dst: R2, Imm: 0},
				{Op: OpCall, Imm: uint64(HelperMapLookupElem)},
				{Op: OpExit},
			},
			maps: []Map{am, am2, sa},
		}
		if err := Verify(p); err != nil {
			t.Fatal(err)
		}
		want := uint64(0b0100) // hash==0 takes the jump, keeping map 0? no:
		// jump taken when R0==0 → skips the second LdMap → map 0 → 0b1011.
		if hash == 0 {
			want = 0b1011
		}
		r0, err := runBoth(t, p, ReuseportCtx{Hash: hash})
		if err != nil || r0 != want {
			t.Fatalf("hash=%d: r0=%#b err=%v, want %#b", hash, r0, err, want)
		}
	}

	// Socket selection: empty slot (r0=1, no selection) vs filled slot.
	for _, idx := range []uint64{0, 1} {
		p := &Program{
			insns: []Insn{
				{Op: OpLdMap, Dst: R1, Imm: 2},
				{Op: OpMovImm, Dst: R2, Imm: idx},
				{Op: OpCall, Imm: uint64(HelperSkSelectReuseport)},
				{Op: OpExit},
			},
			maps: []Map{am, am2, sa},
		}
		if err := Verify(p); err != nil {
			t.Fatal(err)
		}
		r0, err := runBoth(t, p, ReuseportCtx{})
		if err != nil {
			t.Fatal(err)
		}
		if idx == 1 && r0 != 0 {
			t.Fatalf("filled slot: r0=%d", r0)
		}
		if idx == 0 && r0 != 1 {
			t.Fatalf("empty slot: r0=%d", r0)
		}
	}
}

// Compiled() must cache: one compilation per program, shared result.
func TestProgramCompiledCached(t *testing.T) {
	p := &Program{insns: []Insn{{Op: OpMovImm, Dst: R0, Imm: 42}, {Op: OpExit}}}
	c1, err := p.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("Compiled() did not cache")
	}
	r0, err := c1.Run(&Env{})
	if err != nil || r0 != 42 {
		t.Fatalf("r0=%d err=%v", r0, err)
	}
}

// Compile must reject what Verify rejects: it is only sound for verified
// programs.
func TestCompileRejectsUnverifiable(t *testing.T) {
	p := &Program{insns: []Insn{{Op: OpMovReg, Dst: R0, Src: R9}, {Op: OpExit}}}
	if _, err := Compile(p); err == nil {
		t.Fatal("compiled a program reading an uninitialized register")
	}
}

// The compiled steering path must be allocation-free in steady state — this
// is the property the kernel-level CI gate (BenchmarkSteerSYN/ebpf) checks
// end-to-end; here it is pinned at the unit level, success and error paths
// both.
func TestCompiledRunZeroAlloc(t *testing.T) {
	am := NewArrayMap(1)
	_ = am.Update(0, 0xffff)
	sa := NewSockArray(2)
	_ = sa.Put(0, "sock0")
	p := &Program{
		insns: []Insn{
			{Op: OpLdMap, Dst: R1, Imm: 0},
			{Op: OpMovImm, Dst: R2, Imm: 0},
			{Op: OpCall, Imm: uint64(HelperMapLookupElem)},
			{Op: OpLdMap, Dst: R1, Imm: 1},
			{Op: OpMovImm, Dst: R2, Imm: 0},
			{Op: OpCall, Imm: uint64(HelperSkSelectReuseport)},
			{Op: OpExit},
		},
		maps: []Map{am, sa},
	}
	if err := Verify(p); err != nil {
		t.Fatal(err)
	}
	c, err := p.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	ctx := ReuseportCtx{Hash: 99}
	env := Env{Ctx: ctx}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Run(&env); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("compiled run allocates %v/op, want 0", allocs)
	}

	// Error path: helper failure must not allocate either (sentinel errors).
	miss := &Program{
		insns: []Insn{
			{Op: OpLdMap, Dst: R1, Imm: 0},
			{Op: OpMovImm, Dst: R2, Imm: 9},
			{Op: OpCall, Imm: uint64(HelperMapLookupElem)},
			{Op: OpExit},
		},
		maps: []Map{am, sa},
	}
	if err := Verify(miss); err != nil {
		t.Fatal(err)
	}
	cm, err := miss.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := cm.Run(&env); err != ErrMapMiss {
			t.Fatalf("err=%v", err)
		}
	}); allocs != 0 {
		t.Fatalf("compiled error path allocates %v/op, want 0", allocs)
	}
	// The interpreter's error path must be allocation-free too (the
	// sentinel-error fix): callers only branch on nil.
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := miss.Run(&ctx); err != ErrMapMiss {
			t.Fatalf("err=%v", err)
		}
	}); allocs != 0 {
		t.Fatalf("interpreter error path allocates %v/op, want 0", allocs)
	}
}
