package ebpf

import (
	"strings"
	"testing"
	"testing/quick"

	"hermes/internal/bitops"
)

func mustAssemble(t *testing.T, a *Assembler) *Program {
	t.Helper()
	p, err := a.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func run(t *testing.T, p *Program, ctx *ReuseportCtx) uint64 {
	t.Helper()
	if ctx == nil {
		ctx = &ReuseportCtx{}
	}
	r0, err := p.Run(ctx)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r0
}

func TestTrivialReturn(t *testing.T) {
	p := mustAssemble(t, NewAssembler().MovImm(R0, 42).Exit())
	if got := run(t, p, nil); got != 42 {
		t.Fatalf("R0 = %d, want 42", got)
	}
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		name  string
		build func(a *Assembler)
		want  uint64
	}{
		{"add", func(a *Assembler) { a.MovImm(R0, 40).AddImm(R0, 2) }, 42},
		{"sub-wrap", func(a *Assembler) { a.MovImm(R0, 0).SubImm(R0, 1) }, ^uint64(0)},
		{"mul", func(a *Assembler) { a.MovImm(R0, 6).MulImm(R0, 7) }, 42},
		{"and", func(a *Assembler) { a.MovImm(R0, 0xff).AndImm(R0, 0x0f) }, 0x0f},
		{"or", func(a *Assembler) { a.MovImm(R0, 0xf0).OrImm(R0, 0x0f) }, 0xff},
		{"xor", func(a *Assembler) { a.MovImm(R0, 0xff).XorImm(R0, 0x0f) }, 0xf0},
		{"lsh", func(a *Assembler) { a.MovImm(R0, 1).LshImm(R0, 63) }, 1 << 63},
		{"rsh", func(a *Assembler) { a.MovImm(R0, 1<<63).RshImm(R0, 63) }, 1},
		{"neg", func(a *Assembler) { a.MovImm(R0, 1).Neg(R0) }, ^uint64(0)},
		{"reg-forms", func(a *Assembler) {
			a.MovImm(R6, 5).MovImm(R7, 3).
				MovReg(R0, R6).AddReg(R0, R7).MulReg(R0, R7).
				SubReg(R0, R6).XorReg(R0, R7).OrReg(R0, R6).AndReg(R0, R7)
		}, ((5+3)*3 - 5) ^ 3 | 5&3 /* computed below in test */},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewAssembler()
			c.build(a)
			p := mustAssemble(t, a.Exit())
			want := c.want
			if c.name == "reg-forms" {
				v := uint64(5+3) * 3
				v -= 5
				v ^= 3
				v |= 5
				v &= 3
				want = v
			}
			if got := run(t, p, nil); got != want {
				t.Fatalf("R0 = %d, want %d", got, want)
			}
		})
	}
}

func TestShiftMasksTo63(t *testing.T) {
	p := mustAssemble(t, NewAssembler().MovImm(R0, 1).LshImm(R0, 64).Exit())
	if got := run(t, p, nil); got != 1 {
		t.Fatalf("lsh by 64 should mask to 0 shift, got %d", got)
	}
}

func TestConditionalJumps(t *testing.T) {
	// if R6 > 10 -> R0=1 else R0=2
	build := func(v uint64) *Program {
		a := NewAssembler()
		big := a.NewLabel()
		a.MovImm(R6, v).
			JgtImm(R6, 10, big).
			MovImm(R0, 2).Exit().
			Bind(big).
			MovImm(R0, 1).Exit()
		return mustAssembleHelper(a)
	}
	if got, _ := build(11).Run(&ReuseportCtx{}); got != 1 {
		t.Fatalf("11 > 10 path: got %d", got)
	}
	if got, _ := build(10).Run(&ReuseportCtx{}); got != 2 {
		t.Fatalf("10 > 10 path: got %d", got)
	}
}

func mustAssembleHelper(a *Assembler) *Program {
	p, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return p
}

func TestVerifierRejections(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Program, error)
		frag  string
	}{
		{"empty", func() (*Program, error) {
			return NewAssembler().Assemble()
		}, "empty"},
		{"uninit-read", func() (*Program, error) {
			return NewAssembler().MovReg(R0, R6).Exit().Assemble()
		}, "uninitialized"},
		{"uninit-r0-exit", func() (*Program, error) {
			return NewAssembler().MovImm(R6, 1).Exit().Assemble()
		}, "uninitialized"},
		{"fall-off-end", func() (*Program, error) {
			return NewAssembler().MovImm(R0, 1).Assemble()
		}, "fall off"},
		{"undefined-label", func() (*Program, error) {
			a := NewAssembler()
			return a.MovImm(R0, 0).JeqImm(R0, 0, a.NewLabel()).Exit().Assemble()
		}, "unbound label"},
		{"backward-jump", func() (*Program, error) {
			a := NewAssembler()
			loop := a.NewLabel()
			a.Bind(loop).MovImm(R0, 0)
			a.Ja(loop)
			return a.Assemble()
		}, "backward"},
		{"label-bound-twice", func() (*Program, error) {
			a := NewAssembler()
			l := a.NewLabel()
			a.MovImm(R0, 0).JeqImm(R0, 0, l).Bind(l).MovImm(R0, 1).Bind(l).Exit()
			return a.Assemble()
		}, "bound twice"},
		{"unknown-helper", func() (*Program, error) {
			p := &Program{insns: []Insn{
				{Op: OpCall, Imm: 999},
				{Op: OpMovImm, Dst: R0},
				{Op: OpExit},
			}}
			return p, Verify(p)
		}, "unknown helper"},
		{"unregistered-map", func() (*Program, error) {
			return NewAssembler().LdMap(R1, 0).MovImm(R0, 0).Exit().Assemble()
		}, "not registered"},
		{"helper-wrong-map-type", func() (*Program, error) {
			a := NewAssembler()
			slot := a.AddMap(NewSockArray(4))
			a.LdMap(R1, slot).MovImm(R2, 0).Call(HelperMapLookupElem).Exit()
			return a.Assemble()
		}, "needs"},
		{"helper-scalar-as-map", func() (*Program, error) {
			a := NewAssembler()
			a.MovImm(R1, 7).MovImm(R2, 0).Call(HelperMapLookupElem).Exit()
			return a.Assemble()
		}, "not a map handle"},
		{"call-clobbers-args", func() (*Program, error) {
			// Reading R2 after a call must fail: calls clobber R1-R5.
			a := NewAssembler()
			a.MovImm(R1, 1).MovImm(R2, 2).Call(HelperReciprocalScale).
				MovReg(R0, R2).Exit()
			return a.Assemble()
		}, "uninitialized"},
		{"partial-init-across-paths", func() (*Program, error) {
			// R6 initialized on only one branch, then read after the merge.
			a := NewAssembler()
			skip := a.NewLabel()
			a.MovImm(R0, 0).
				JeqImm(R0, 0, skip).
				MovImm(R6, 1).
				Bind(skip).
				MovReg(R0, R6).Exit()
			return a.Assemble()
		}, "uninitialized"},
		{"too-long", func() (*Program, error) {
			a := NewAssembler()
			for i := 0; i < MaxInsns+1; i++ {
				a.MovImm(R0, 0)
			}
			a.Exit()
			return a.Assemble()
		}, "too long"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.build()
			if err == nil {
				t.Fatal("verifier accepted invalid program")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("error %q does not contain %q", err, c.frag)
			}
		})
	}
}

func TestVerifierAcceptsDiamond(t *testing.T) {
	// R6 initialized on both branches before the merged read: must pass.
	a := NewAssembler()
	then, join := a.NewLabel(), a.NewLabel()
	a.MovImm(R0, 0).
		JeqImm(R0, 0, then).
		MovImm(R6, 1).Ja(join).
		Bind(then).
		MovImm(R6, 2).
		Bind(join).
		MovReg(R0, R6).Exit()
	p := mustAssemble(t, a)
	if got := run(t, p, nil); got != 2 {
		t.Fatalf("diamond result = %d, want 2 (then-branch)", got)
	}
}

// Every jump waiting for a label is patched when it is bound, however many
// wait and whichever kind they are; a label nothing jumps to binds to no
// effect.
func TestLabelPatchesEveryWaitingJump(t *testing.T) {
	a := NewAssembler()
	out, unused := a.NewLabel(), a.NewLabel()
	a.MovImm(R0, 7).
		JeqImm(R0, 1, out). // pc 1
		JgtImm(R0, 9, out). // pc 2
		Bind(unused).
		JltImm(R0, 3, out). // pc 3
		Ja(out).            // pc 4
		MovImm(R0, 0).
		Bind(out).
		Exit() // pc 6
	p := mustAssemble(t, a)
	for pc, want := range map[int]int32{1: 4, 2: 3, 3: 2, 4: 1} {
		if got := p.insns[pc].Off; got != want {
			t.Errorf("jump at pc %d: Off %d, want %d\n%s", pc, got, want, p.Disassemble())
		}
	}
	if got := run(t, p, nil); got != 7 {
		t.Fatalf("R0 = %d, want 7", got)
	}
}

func TestHelperGetHash(t *testing.T) {
	p := mustAssemble(t, NewAssembler().Call(HelperGetHash).Exit())
	if got := run(t, p, &ReuseportCtx{Hash: 0xabcd1234}); got != 0xabcd1234 {
		t.Fatalf("hash = %#x", got)
	}
}

func TestHelperReciprocalScaleMatchesBitops(t *testing.T) {
	a := NewAssembler()
	a.Call(HelperGetHash).
		MovReg(R1, R0).
		MovImm(R2, 7).
		Call(HelperReciprocalScale).
		Exit()
	p := mustAssemble(t, a)
	f := func(h uint32) bool {
		got, err := p.Run(&ReuseportCtx{Hash: h})
		return err == nil && got == uint64(bitops.ReciprocalScale(h, 7))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHelperMapLookup(t *testing.T) {
	m := NewArrayMap(4)
	if err := m.Update(2, 777); err != nil {
		t.Fatal(err)
	}
	a := NewAssembler()
	slot := a.AddMap(m)
	a.LdMap(R1, slot).MovImm(R2, 2).Call(HelperMapLookupElem).Exit()
	p := mustAssemble(t, a)
	if got := run(t, p, nil); got != 777 {
		t.Fatalf("lookup = %d, want 777", got)
	}
}

func TestHelperMapLookupMiss(t *testing.T) {
	m := NewArrayMap(1)
	a := NewAssembler()
	slot := a.AddMap(m)
	a.LdMap(R1, slot).MovImm(R2, 5).Call(HelperMapLookupElem).Exit()
	p := mustAssemble(t, a)
	if _, err := p.Run(&ReuseportCtx{}); err != ErrMapMiss {
		t.Fatalf("err = %v, want ErrMapMiss", err)
	}
}

func TestHelperSkSelect(t *testing.T) {
	sa := NewSockArray(4)
	type sock struct{ id int }
	s2 := &sock{2}
	if err := sa.Put(2, s2); err != nil {
		t.Fatal(err)
	}
	a := NewAssembler()
	slot := a.AddMap(sa)
	a.LdMap(R1, slot).MovImm(R2, 2).Call(HelperSkSelectReuseport).Exit()
	p := mustAssemble(t, a)
	ctx := &ReuseportCtx{}
	if got := run(t, p, ctx); got != 0 {
		t.Fatalf("select returned %d, want 0", got)
	}
	if ctx.Selected != SockRef(s2) || ctx.SelectedIndex != 2 {
		t.Fatalf("ctx = %+v", ctx)
	}

	// Empty slot: returns 1, selects nothing.
	a2 := NewAssembler()
	slot2 := a2.AddMap(sa)
	a2.LdMap(R1, slot2).MovImm(R2, 3).Call(HelperSkSelectReuseport).Exit()
	p2 := mustAssemble(t, a2)
	ctx2 := &ReuseportCtx{}
	if got := run(t, p2, ctx2); got != 1 {
		t.Fatalf("empty-slot select returned %d, want 1", got)
	}
	if ctx2.Selected != nil || ctx2.SelectedIndex != -1 {
		t.Fatalf("ctx2 = %+v", ctx2)
	}
}

func TestArrayMapBounds(t *testing.T) {
	m := NewArrayMap(2)
	if err := m.Update(2, 1); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	if _, err := m.UserLookup(2); err == nil {
		t.Fatal("out-of-range lookup accepted")
	}
	if _, ok := m.Lookup(2); ok {
		t.Fatal("kernel lookup out of range returned ok")
	}
	if err := m.Update(1, 9); err != nil {
		t.Fatal(err)
	}
	v, err := m.UserLookup(1)
	if err != nil || v != 9 {
		t.Fatalf("UserLookup = %d, %v", v, err)
	}
	if got := m.SyscallCount.Load(); got != 2 {
		t.Fatalf("SyscallCount = %d, want 2 (1 update + 1 lookup)", got)
	}
}

func TestSockArrayBounds(t *testing.T) {
	sa := NewSockArray(2)
	if err := sa.Put(2, "x"); err == nil {
		t.Fatal("out-of-range put accepted")
	}
	if err := sa.Put(0, nil); err == nil {
		t.Fatal("nil sock accepted")
	}
	if sa.Get(5) != nil {
		t.Fatal("out-of-range get returned non-nil")
	}
}

func TestDisassembleStable(t *testing.T) {
	a := NewAssembler()
	slot := a.AddMap(NewArrayMap(1))
	zero := a.NewLabel()
	a.LdMap(R1, slot).MovImm(R2, 0).Call(HelperMapLookupElem).
		JeqImm(R0, 0, zero).
		MovImm(R0, 1).Exit().
		Bind(zero).MovImm(R0, 0).Exit()
	p := mustAssemble(t, a)
	dis := p.Disassemble()
	for _, frag := range []string{"map[0]", "call bpf_map_lookup_elem", "goto +", "exit"} {
		if !strings.Contains(dis, frag) {
			t.Errorf("disassembly missing %q:\n%s", frag, dis)
		}
	}
	if p.Len() != 8 {
		t.Errorf("Len = %d, want 8", p.Len())
	}
}

func TestMapTypeStrings(t *testing.T) {
	if MapTypeArray.String() != "BPF_MAP_TYPE_ARRAY" {
		t.Error(MapTypeArray.String())
	}
	if MapTypeReuseportSockArray.String() != "BPF_MAP_TYPE_REUSEPORT_SOCKARRAY" {
		t.Error(MapTypeReuseportSockArray.String())
	}
	if !strings.Contains(MapType(9).String(), "9") {
		t.Error("unknown map type string")
	}
	if !strings.Contains(HelperID(99).String(), "99") {
		t.Error("unknown helper string")
	}
}

func BenchmarkVMDispatchSizedProgram(b *testing.B) {
	// A ~30-insn arithmetic program, roughly the dispatch program's scale.
	a := NewAssembler()
	a.Call(HelperGetHash)
	a.MovReg(R6, R0)
	for i := 0; i < 12; i++ {
		a.MovReg(R7, R6).RshImm(R7, uint64(i%13)).XorReg(R6, R7).AddImm(R6, 0x9e37)
	}
	a.MovReg(R0, R6).Exit()
	p, err := a.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	ctx := &ReuseportCtx{Hash: 0x12345678}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx.Hash = uint32(i)
		if _, err := p.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
