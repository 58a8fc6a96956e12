package ebpf

import (
	"errors"
	"math/rand"
	"testing"
)

// randProgram builds a random instruction sequence (valid registers, mostly
// forward jumps, occasional helper calls and map loads) that may or may not
// pass the verifier.
func randProgram(rng *rand.Rand, am *ArrayMap, sa *SockArray) *Program {
	n := 2 + rng.Intn(60)
	insns := make([]Insn, 0, n)
	for i := 0; i < n-1; i++ {
		var in Insn
		switch rng.Intn(10) {
		case 0, 1, 2:
			in = Insn{Op: OpMovImm, Dst: Reg(rng.Intn(10)), Imm: rng.Uint64()}
		case 3:
			in = Insn{Op: Op(rng.Intn(int(OpNeg) + 1)), Dst: Reg(rng.Intn(10)), Src: Reg(rng.Intn(10)), Imm: uint64(rng.Intn(64))}
		case 4:
			// Forward conditional jump (offset may land out of bounds —
			// the verifier must catch that).
			in = Insn{
				Op:  OpJeqImm + Op(rng.Intn(int(OpJleReg-OpJeqImm)+1)),
				Dst: Reg(rng.Intn(10)), Src: Reg(rng.Intn(10)),
				Imm: uint64(rng.Intn(4)),
				Off: int32(rng.Intn(n)),
			}
		case 5:
			in = Insn{Op: OpJa, Off: int32(1 + rng.Intn(4))}
		case 6:
			in = Insn{Op: OpLdMap, Dst: Reg(rng.Intn(10)), Imm: uint64(rng.Intn(3))}
		case 7:
			in = Insn{Op: OpCall, Imm: uint64(1 + rng.Intn(6))}
		case 8:
			in = Insn{Op: OpExit}
		default:
			in = Insn{Op: OpMovReg, Dst: Reg(rng.Intn(10)), Src: Reg(rng.Intn(10))}
		}
		insns = append(insns, in)
	}
	insns = append(insns, Insn{Op: OpExit})
	return &Program{insns: insns, maps: []Map{am, sa}}
}

// Property: any program the verifier accepts runs to completion — no panic,
// no budget exhaustion, no fall-off — for arbitrary context hashes. ErrMapMiss
// is legal (modelled NULL deref on array maps is impossible with in-range
// keys but possible with random ones... array key range is checked, so the
// only lookup failure is out-of-range, which returns miss).
func TestFuzzVerifiedProgramsTerminate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	am := NewArrayMap(2)
	_ = am.Update(0, 0xdead)
	sa := NewSockArray(4)
	_ = sa.Put(0, "sock0")

	accepted := 0
	const trials = 30_000
	for i := 0; i < trials; i++ {
		p := randProgram(rng, am, sa)
		if err := Verify(p); err != nil {
			continue
		}
		accepted++
		ctx := &ReuseportCtx{Hash: rng.Uint32(), LocalityHash: rng.Uint32()}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("verified program panicked: %v\n%s", r, p.Disassemble())
				}
			}()
			_, err := p.Run(ctx)
			if errors.Is(err, ErrBudget) {
				t.Fatalf("verified program exhausted budget:\n%s", p.Disassemble())
			}
			if err != nil && !errors.Is(err, ErrMapMiss) {
				t.Fatalf("verified program failed: %v\n%s", err, p.Disassemble())
			}
		}()
	}
	if accepted < 100 {
		t.Fatalf("fuzzer only produced %d verified programs of %d; generator too weak", accepted, trials)
	}
	t.Logf("fuzz: %d/%d random programs verified and ran clean", accepted, trials)
}

// idiomPrelude returns an instruction block seeding the fusable idioms the
// JIT's pattern matcher targets: the 15-insn SWAR popcount and the 111-insn
// rank-select walk. Random programs alone essentially never emit these
// shapes, so the differential fuzzer splices them in (prepended, so relative
// jump offsets in the random tail stay valid).
func idiomPrelude(rng *rand.Rand) []Insn {
	dst := Reg(rng.Intn(10))
	tmp := Reg(rng.Intn(10))
	for tmp == dst {
		tmp = Reg(rng.Intn(10))
	}
	block := []Insn{
		{Op: OpMovImm, Dst: dst, Imm: rng.Uint64()},
		{Op: OpMovImm, Dst: tmp, Imm: rng.Uint64()},
	}
	switch rng.Intn(2) {
	case 0:
		var pop [popCountLen]Insn
		popCountShape(&pop, dst, tmp)
		block = append(block, pop[:]...)
	default:
		// Full rank-select walk over five pairwise-distinct registers; v and
		// rank (dst, tmp here) are seeded above, pos/t/tmp2 are written by
		// the walk itself.
		perm := rng.Perm(10)
		pos, t, tmp2 := Reg(perm[0]), Reg(perm[1]), Reg(perm[2])
		for _, r := range []*Reg{&pos, &t, &tmp2} {
			for *r == dst || *r == tmp {
				*r = Reg(rng.Intn(10))
			}
		}
		if pos != t && t != tmp2 && pos != tmp2 {
			var walk [findNthLen]Insn
			findNthShape(&walk, dst, tmp, pos, t, tmp2)
			block = append(block, walk[:]...)
		}
	}
	return block
}

// Differential fuzzing with the interpreter as oracle: every program the
// verifier accepts must produce identical observable behaviour — R0, error
// identity, selected socket, selected index — under the interpreter and the
// JIT. Half the trials splice in fusable idiom blocks so the fused steps (not
// just the 1:1 lowering) are exercised. The compiled form omits the stores the
// verifier proves dead (entry zeroing, the R1–R5 poison after a call), so
// every compiled run here shares one Env, its registers still holding whatever
// the previous program left: a value that leaked from there into R0, a branch
// or the selection would be a divergence.
func TestFuzzDifferentialJIT(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	am := NewArrayMap(2)
	_ = am.Update(0, 0xbeef)
	_ = am.Update(1, 0b1010_1100)
	sa := NewSockArray(4)
	_ = sa.Put(0, "sock0")
	_ = sa.Put(2, "sock2")

	accepted, fused := 0, 0
	const trials = 30_000
	var env Env
	for r := range env.regs {
		env.regs[r] = rng.Uint64()
	}
	for i := 0; i < trials; i++ {
		p := randProgram(rng, am, sa)
		if rng.Intn(2) == 0 {
			p = &Program{insns: append(idiomPrelude(rng), p.insns...), maps: p.maps}
		}
		if err := Verify(p); err != nil {
			continue
		}
		accepted++
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("verified program failed to compile: %v\n%s", err, p.Disassemble())
		}
		if c.Steps() < c.Insns() {
			fused++
		}
		ictx := ReuseportCtx{Hash: rng.Uint32(), LocalityHash: rng.Uint32()}
		env.Ctx = ictx
		jctx := &env.Ctx
		ir0, ierr := p.Run(&ictx)
		jr0, jerr := c.Run(&env)
		if ir0 != jr0 || ierr != jerr {
			t.Fatalf("divergence: interp (r0=%d err=%v) jit (r0=%d err=%v)\n%s",
				ir0, ierr, jr0, jerr, p.Disassemble())
		}
		if ictx.Selected != jctx.Selected || ictx.SelectedIndex != jctx.SelectedIndex {
			t.Fatalf("ctx divergence: interp (%v,%d) jit (%v,%d)\n%s",
				ictx.Selected, ictx.SelectedIndex,
				jctx.Selected, jctx.SelectedIndex, p.Disassemble())
		}
	}
	if accepted < 100 {
		t.Fatalf("only %d verified programs of %d; generator too weak", accepted, trials)
	}
	if fused < 10 {
		t.Fatalf("only %d of %d compiled programs fused anything; idiom splicing broken", fused, accepted)
	}
	t.Logf("differential fuzz: %d/%d programs verified, %d with fusion, zero divergences", accepted, trials, fused)
}

// Property: the verifier never panics on arbitrary instruction sequences.
func TestFuzzVerifierRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	am := NewArrayMap(1)
	sa := NewSockArray(1)
	for i := 0; i < 30_000; i++ {
		p := randProgram(rng, am, sa)
		// Occasionally corrupt offsets/opcodes beyond the generator's range.
		if rng.Intn(4) == 0 && len(p.insns) > 0 {
			j := rng.Intn(len(p.insns))
			p.insns[j].Off = int32(rng.Int31()) - 1<<30
			p.insns[j].Op = Op(rng.Intn(64))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("verifier panicked: %v", r)
				}
			}()
			_ = Verify(p)
		}()
	}
}
