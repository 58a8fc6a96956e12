package ebpf

import (
	"math/bits"

	"hermes/internal/bitops"
	"hermes/internal/telemetry"
)

// This file is the JIT/specialization pass: it compiles a verified Program
// into a flat sequence of resolved steps run by one loop, the simulated
// analogue of the kernel's eBPF JIT (interpretation on the packet path is too
// slow there for exactly the reason BenchmarkSteerSYN shows here). The
// interpreter (vm.go) stays as the reference implementation; fuzz_test.go
// runs every verified program through both and requires identical observable
// behaviour.
//
// Compilation strategy (docs/EBPF.md):
//
//   - Decode once. Each instruction becomes a step with its operands and its
//     jump target (as a step index) already decoded; the steps of a program
//     are one contiguous slice, so a run touches a few cache lines and no
//     pointers between instructions.
//   - Resolve at compile time. OpLdMap writes a handle the interpreter must
//     re-validate on every helper call; the compiler instead runs a forward
//     dataflow pass tracking which concrete map slot each register holds, and
//     emits helper steps holding the *ArrayMap / *SockArray directly. Helper
//     dispatch, handle validation and map-type checks disappear from the run
//     path (the verifier already proved them; the dataflow pass only decides
//     whether the proof pins a single slot).
//   - Fuse known idioms. Assembler.PopCount's branch-free SWAR sequence (15
//     ALU instructions) collapses into one step built on bits.OnesCount64,
//     and Assembler.FindNth's rank-select walk (111 instructions) into
//     another. Both are written once, as the shapes at the end of this file:
//     the emitters append them and the matchers compare against them, so an
//     idiom emitted on distinct registers always fuses unless a jump from
//     outside lands inside it. Fusion preserves register fidelity: the
//     fused step also writes the exact final value of every scratch
//     register, so later reads see what the instruction sequence would have
//     produced.
//   - Omit dead stores. The verifier proves that no path reads a register
//     before writing it, with only R1 written at entry and R1–R5 unwritten
//     again after every helper call. Whatever those registers hold at those
//     points can therefore never reach R0, a branch or a helper argument, so
//     the compiled form neither zeroes the register file at entry nor poisons
//     R1–R5 after a call; a reused Env carries the previous run's values into
//     registers no instruction can read. The interpreter keeps both stores
//     and stays the oracle: R0, error and ctx equality is the whole contract.
//
// Fallback rules: Compile refuses nothing a verified program can contain —
// every opcode has a step, and helper calls whose map argument the dataflow
// pass cannot pin to one slot go through the interpreter's call() on the same
// registers. Attach-time callers (kernel.ReuseportGroup) treat a Compile error
// as "run interpreted", so a compiler bug can cost speed but never dispatch
// correctness.

// Env is the mutable state a compiled program runs against: the hook context
// and the register file. Whoever attaches the program owns one (the zero
// value is ready) and reuses it for every run — kernel.ReuseportGroup embeds
// its own — so a run fetches nothing and copies nothing. The owner fills Ctx
// before Run exactly as it would fill the ctx handed to Program.Run, and
// reads the selection out of it afterwards. An Env serves one run at a time.
type Env struct {
	Ctx ReuseportCtx

	regs [NumRegs]uint64
}

// Step kinds beyond the source opcodes: the fused idioms, and helper calls
// with the helper (and its map, where the dataflow pass pinned one) resolved.
const (
	stepPopCount Op = OpExit + 1 + iota // dst = popcount(dst), src = the SWAR scratch
	stepFindNth                         // the rank-select walk over r[0..4] = v, rank, pos, t, tmp
	stepGetHash
	stepGetLocalityHash
	stepReciprocalScale
	stepLookup // bpf_map_lookup_elem on am
	stepSelect // bpf_sk_select_reuseport on sa
	stepCall   // helper imm through the interpreter's call()
)

// step is one element of a compiled program: a source instruction with its
// operands decoded and its jump resolved to a step index, or one fused window.
type step struct {
	op       Op
	dst, src Reg
	r        [5]Reg
	to       int32 // jumps: index of the step the branch lands on
	imm      uint64
	am       *ArrayMap
	sa       *SockArray
}

// Compiled is a Program lowered to a flat, fused, map-resolved step sequence.
type Compiled struct {
	prog  *Program
	steps []step

	runs *telemetry.Counter // ebpf.jit.runs; nil until Observe
}

// Insns returns the source program's instruction count.
func (c *Compiled) Insns() int { return c.prog.Len() }

// Steps returns the step count after fusion.
func (c *Compiled) Steps() int { return len(c.steps) }

// Run executes the compiled program against e.Ctx with the same observable
// semantics as Program.Run(&e.Ctx): identical R0/error results and identical
// ctx mutations (Selected, SelectedIndex), property-checked by the
// differential fuzzer. It allocates nothing.
func (c *Compiled) Run(e *Env) (uint64, error) {
	c.runs.Inc()
	regs := &e.regs
	regs[R1] = 1 // context register, as in vm.go; the only one readable at entry
	e.Ctx.SelectedIndex = -1
	steps := c.steps
	for pc := 0; pc < len(steps); pc++ {
		s := &steps[pc]
		taken := false
		switch s.op {
		case OpMovImm:
			regs[s.dst] = s.imm
		case OpMovReg:
			regs[s.dst] = regs[s.src]
		case OpAddImm:
			regs[s.dst] += s.imm
		case OpAddReg:
			regs[s.dst] += regs[s.src]
		case OpSubImm:
			regs[s.dst] -= s.imm
		case OpSubReg:
			regs[s.dst] -= regs[s.src]
		case OpMulImm:
			regs[s.dst] *= s.imm
		case OpMulReg:
			regs[s.dst] *= regs[s.src]
		case OpAndImm:
			regs[s.dst] &= s.imm
		case OpAndReg:
			regs[s.dst] &= regs[s.src]
		case OpOrImm:
			regs[s.dst] |= s.imm
		case OpOrReg:
			regs[s.dst] |= regs[s.src]
		case OpXorImm:
			regs[s.dst] ^= s.imm
		case OpXorReg:
			regs[s.dst] ^= regs[s.src]
		case OpLshImm:
			regs[s.dst] <<= s.imm & 63
		case OpLshReg:
			regs[s.dst] <<= regs[s.src] & 63
		case OpRshImm:
			regs[s.dst] >>= s.imm & 63
		case OpRshReg:
			regs[s.dst] >>= regs[s.src] & 63
		case OpNeg:
			regs[s.dst] = -regs[s.dst]
		case OpLdMap:
			regs[s.dst] = s.imm + 1 // same handle encoding as the interpreter
		case OpJa:
			taken = true
		case OpJeqImm:
			taken = regs[s.dst] == s.imm
		case OpJeqReg:
			taken = regs[s.dst] == regs[s.src]
		case OpJneImm:
			taken = regs[s.dst] != s.imm
		case OpJneReg:
			taken = regs[s.dst] != regs[s.src]
		case OpJgtImm:
			taken = regs[s.dst] > s.imm
		case OpJgtReg:
			taken = regs[s.dst] > regs[s.src]
		case OpJgeImm:
			taken = regs[s.dst] >= s.imm
		case OpJgeReg:
			taken = regs[s.dst] >= regs[s.src]
		case OpJltImm:
			taken = regs[s.dst] < s.imm
		case OpJltReg:
			taken = regs[s.dst] < regs[s.src]
		case OpJleImm:
			taken = regs[s.dst] <= s.imm
		case OpJleReg:
			taken = regs[s.dst] <= regs[s.src]
		case OpExit:
			return regs[R0], nil

		// Helper calls set R0. R1–R5 — unreadable from here on, by the
		// verifier — are left as they are where vm.go's call() poisons them.
		case stepGetHash:
			regs[R0] = uint64(e.Ctx.Hash)
		case stepGetLocalityHash:
			regs[R0] = uint64(e.Ctx.LocalityHash)
		case stepReciprocalScale:
			regs[R0] = (regs[R1] & 0xffffffff) * (regs[R2] & 0xffffffff) >> 32
		case stepLookup:
			v, ok := s.am.Lookup(uint32(regs[R2]))
			if !ok {
				return 0, ErrMapMiss
			}
			regs[R0] = v
		case stepSelect:
			idx := uint32(regs[R2])
			if ref := s.sa.Get(idx); ref == nil {
				regs[R0] = 1
			} else {
				e.Ctx.Selected = ref
				e.Ctx.SelectedIndex = int(idx)
				regs[R0] = 0
			}
		case stepCall:
			// An unknown helper id, or a map argument the dataflow pass could
			// not pin: the interpreter's helper dispatch, so the two cannot
			// drift.
			if err := c.prog.call(HelperID(s.imm), regs, &e.Ctx); err != nil {
				return 0, err
			}

		// Fused idioms. Register fidelity: every register the instruction
		// sequence writes ends with the exact value the sequence leaves
		// there, scratch included, in case a later instruction reads it.
		case stepPopCount:
			v := regs[s.dst]
			d1 := v - ((v >> 1) & bitops.M1)
			d2 := (d1 & bitops.M2) + ((d1 >> 2) & bitops.M2)
			regs[s.src] = d2 >> 4 // the second fold's partial sums, shifted by the third round's extract
			regs[s.dst] = uint64(bits.OnesCount64(v))
		case stepFindNth:
			vv, rk := regs[s.r[0]], regs[s.r[1]]
			var p, tm uint64
			for _, w := range findNthWidths {
				win := (vv >> (p & 63)) & (1<<w - 1)
				d1 := win - ((win >> 1) & bitops.M1)
				d2 := (d1 & bitops.M2) + ((d1 >> 2) & bitops.M2)
				tm = d2 >> 4
				cnt := uint64(bits.OnesCount64(win))
				if rk > cnt { // JleReg not taken: descend into the high half
					p += w
					rk -= cnt
				}
			}
			fin := (vv >> (p & 63)) & 1
			if rk > fin {
				p++
			}
			regs[s.r[1]], regs[s.r[2]], regs[s.r[3]], regs[s.r[4]] = rk, p, fin, tm

		default:
			return 0, ErrUnknownOpcode
		}
		if taken {
			pc = int(s.to) - 1
		}
	}
	// Never reached: the verifier rejects fallthrough off the end.
	return 0, ErrFellOff
}

// Compiled returns the program in compiled form, compiling on first use.
// Compilation happens at most once per program; concurrent callers share the
// result.
func (p *Program) Compiled() (*Compiled, error) {
	p.jitOnce.Do(func() { p.jit, p.jitErr = Compile(p) })
	return p.jit, p.jitErr
}

// Compile lowers a verified program. Programs that did not come out of
// Assemble/Verify are rejected by re-verification: the compiler's soundness
// (forward jumps resolved to step indices, no bounds checks on fused windows)
// depends on the verifier's guarantees.
func Compile(p *Program) (*Compiled, error) {
	if err := Verify(p); err != nil {
		return nil, err
	}
	n := len(p.insns)
	entries := jumpEntries(p.insns)
	slots := resolveMapSlots(p)

	// One step per instruction, a fused window collapsing to one. index[pc]
	// is the step a jump to pc lands on; the interior of a fused window has
	// none and needs none (fusion requires that no jump from outside lands
	// inside the window).
	steps := make([]step, 0, n)
	index := make([]int32, n+1)
	for pc := 0; pc < n; {
		index[pc] = int32(len(steps))
		st, width := lower(p, pc, entries, slots)
		steps = append(steps, st)
		pc += width
	}
	for i := range steps {
		if steps[i].to >= 0 {
			steps[i].to = index[steps[i].to]
		}
	}
	return &Compiled{prog: p, steps: steps}, nil
}

// lower builds the step for the instruction or fusable window at pc and
// returns how many instructions it covers. A jump's `to` holds the target pc
// (Compile rewrites it to a step index), −1 on everything else. A window
// fuses only when it is single-entry (see singleEntry).
func lower(p *Program, pc int, entries, slots []int32) (step, int) {
	if v, rank, pos, t, tmp, ok := matchFindNth(p.insns, pc); ok && singleEntry(entries, pc, findNthLen) {
		return step{op: stepFindNth, r: [5]Reg{v, rank, pos, t, tmp}, to: -1}, findNthLen
	}
	if dst, tmp, ok := matchPopCount(p.insns, pc); ok && singleEntry(entries, pc, popCountLen) {
		return step{op: stepPopCount, dst: dst, src: tmp, to: -1}, popCountLen
	}
	in := p.insns[pc]
	st := step{op: in.Op, dst: in.Dst, src: in.Src, imm: in.Imm, to: -1}
	switch {
	case in.isJump():
		st.to = int32(pc + 1 + int(in.Off))
	case in.Op == OpCall:
		// When the dataflow pass pinned the map argument to a single slot
		// (stored as slot+1), the step holds the concrete map and skips
		// handle decoding; otherwise it goes through stepCall.
		st.op = stepCall
		slot := slots[pc]
		switch HelperID(in.Imm) {
		case HelperGetHash:
			st.op = stepGetHash
		case HelperGetLocalityHash:
			st.op = stepGetLocalityHash
		case HelperReciprocalScale:
			st.op = stepReciprocalScale
		case HelperMapLookupElem:
			if slot > 0 {
				if am, ok := p.maps[slot-1].(*ArrayMap); ok {
					st.op, st.am = stepLookup, am
				}
			}
		case HelperSkSelectReuseport:
			if slot > 0 {
				if sa, ok := p.maps[slot-1].(*SockArray); ok {
					st.op, st.sa = stepSelect, sa
				}
			}
		}
	}
	return st, 1
}

// jumpEntries returns, for each pc, one more than the lowest pc of a jump
// landing on it, or 0 where no jump lands.
func jumpEntries(insns []Insn) []int32 {
	e := make([]int32, len(insns)+1)
	for pc, in := range insns {
		if in.isJump() {
			if d := &e[pc+1+int(in.Off)]; *d == 0 {
				*d = int32(pc) + 1 // the first jump found is the lowest
			}
		}
	}
	return e
}

// singleEntry reports whether the width instructions at pc form a
// single-entry region: jumps may land inside it only from inside it (the
// entry pc itself may be a target from anywhere). The rank-select walk's
// internal branches qualify; an external branch into the middle of a fused
// window would not. Verified jumps only go forward, so a jump landing inside
// the window comes from inside it exactly when it comes from pc or later.
func singleEntry(entries []int32, pc, width int) bool {
	for i := pc + 1; i < pc+width; i++ {
		if e := entries[i]; e != 0 && int(e-1) < pc {
			return false
		}
	}
	return true
}

// resolveMapSlots runs a forward dataflow pass mirroring the verifier's,
// tracking which OpLdMap slot each register holds as a concrete value
// (slot+1; 0 = unknown/scalar). Where all paths into a helper call agree on
// the map argument's slot, the call can be specialized. The result holds
// slot+1 at each such call's pc and 0 everywhere else.
func resolveMapSlots(p *Program) []int32 {
	n := len(p.insns)
	type state struct {
		slot    [NumRegs]int32 // 0 unknown, else OpLdMap slot+1
		reached bool
	}
	merge := func(dst *state, src state) {
		if !dst.reached {
			*dst = src
			return
		}
		for r := 0; r < NumRegs; r++ {
			if dst.slot[r] != src.slot[r] {
				dst.slot[r] = 0
			}
		}
	}
	states := make([]state, n+1)
	states[0].reached = true

	resolved := make([]int32, n)
	for pc := 0; pc < n; pc++ {
		st := states[pc]
		if !st.reached {
			continue
		}
		in := p.insns[pc]
		switch in.Op {
		case OpLdMap:
			st.slot[in.Dst] = int32(in.Imm) + 1
		case OpMovReg:
			st.slot[in.Dst] = st.slot[in.Src]
		case OpMovImm, OpAddImm, OpSubImm, OpMulImm, OpAndImm, OpOrImm,
			OpXorImm, OpLshImm, OpRshImm, OpNeg,
			OpAddReg, OpSubReg, OpMulReg, OpAndReg, OpOrReg, OpXorReg,
			OpLshReg, OpRshReg:
			st.slot[in.Dst] = 0
		case OpCall:
			spec := helperSpecs[HelperID(in.Imm)]
			if spec.mapArg != 0 {
				resolved[pc] = st.slot[Reg(spec.mapArg)]
			}
			for r := R1; r <= R5; r++ {
				st.slot[r] = 0
			}
			st.slot[R0] = 0
		case OpJa:
			merge(&states[pc+1+int(in.Off)], st)
			continue
		case OpExit:
			continue
		default:
			if in.isJump() {
				merge(&states[pc+1+int(in.Off)], st)
			}
		}
		if pc+1 <= n {
			merge(&states[pc+1], st)
		}
	}
	return resolved
}

// --- Idiom fusion -----------------------------------------------------------

// Algorithm 2's CountNonZeroBits and FindNthNonZeroBit, expanded as eBPF must
// have them (no loops, §5.4): each shape below is written once, appended by
// its Assembler method and compared against by its matcher.

// popCountLen is the length of the SWAR popcount sequence: three fold rounds
// plus the multiply-shift horizontal sum.
const popCountLen = 15

// PopCount appends dst = popcount(dst), clobbering tmp: popCountLen
// branch-free instructions, which Compile fuses to one bits.OnesCount64 step
// when dst ≠ tmp.
func (a *Assembler) PopCount(dst, tmp Reg) *Assembler {
	var sh [popCountLen]Insn
	popCountShape(&sh, dst, tmp)
	a.insns = append(a.insns, sh[:]...)
	return a
}

// popCountShape fills sh with the PopCount(dst, tmp) expansion:
// bitops.PopCount64's arithmetic, its masks as immediates. The matchers fill
// a shape on their own stack, so compiling allocates none.
func popCountShape(sh *[popCountLen]Insn, dst, tmp Reg) {
	*sh = [popCountLen]Insn{
		{Op: OpMovReg, Dst: tmp, Src: dst},
		{Op: OpRshImm, Dst: tmp, Imm: 1},
		{Op: OpAndImm, Dst: tmp, Imm: bitops.M1},
		{Op: OpSubReg, Dst: dst, Src: tmp},
		{Op: OpMovReg, Dst: tmp, Src: dst},
		{Op: OpRshImm, Dst: tmp, Imm: 2},
		{Op: OpAndImm, Dst: tmp, Imm: bitops.M2},
		{Op: OpAndImm, Dst: dst, Imm: bitops.M2},
		{Op: OpAddReg, Dst: dst, Src: tmp},
		{Op: OpMovReg, Dst: tmp, Src: dst},
		{Op: OpRshImm, Dst: tmp, Imm: 4},
		{Op: OpAddReg, Dst: dst, Src: tmp},
		{Op: OpAndImm, Dst: dst, Imm: bitops.M4},
		{Op: OpMulImm, Dst: dst, Imm: bitops.H1},
		{Op: OpRshImm, Dst: dst, Imm: 56},
	}
}

// matchPopCount reports whether insns[pc:pc+popCountLen] is exactly the
// PopCount(dst, tmp) shape, returning the two registers.
func matchPopCount(insns []Insn, pc int) (dst, tmp Reg, ok bool) {
	if pc+popCountLen > len(insns) {
		return 0, 0, false
	}
	w := insns[pc : pc+popCountLen]
	dst, tmp = w[0].Src, w[0].Dst
	if dst == tmp {
		return 0, 0, false
	}
	var want [popCountLen]Insn
	popCountShape(&want, dst, tmp)
	if [popCountLen]Insn(w) != want {
		return 0, 0, false
	}
	return dst, tmp, true
}

// findNthWidths are the rank-select walk's halving windows; the final 1-bit
// probe is emitted without a popcount.
var findNthWidths = [...]uint64{32, 16, 8, 4, 2}

// findNthLen is the length of the full rank-select walk: pos init, five
// extract+popcount+branch rounds, and the final single-bit probe.
const findNthLen = 1 + len(findNthWidths)*(3+popCountLen+3) + 5

// FindNth appends pos = FindNthNonZeroBit(v, rank), the rank-select walk from
// 32-bit halves down to single bits: findNthLen instructions, which Compile
// fuses to one step when the five registers are pairwise distinct. rank
// (1-based) is consumed; v is preserved; t and tmp are scratch. The walk's
// branches are forward and stay inside it, so it needs no labels. The caller
// guarantees 1 ≤ rank ≤ popcount(v).
func (a *Assembler) FindNth(v, rank, pos, t, tmp Reg) *Assembler {
	var sh [findNthLen]Insn
	findNthShape(&sh, v, rank, pos, t, tmp)
	a.insns = append(a.insns, sh[:]...)
	return a
}

// findNthShape fills sh with the FindNth(v, rank, pos, t, tmp) expansion.
// Branch offsets are fixed by construction: each round's JleReg (rank ≤
// popcount of the low window: stay) skips its own AddImm/SubReg pair, the
// final probe's skips one AddImm.
func findNthShape(sh *[findNthLen]Insn, v, rank, pos, t, tmp Reg) {
	sh[0] = Insn{Op: OpMovImm, Dst: pos, Imm: 0}
	i := 1
	for _, w := range findNthWidths {
		sh[i] = Insn{Op: OpMovReg, Dst: t, Src: v}
		sh[i+1] = Insn{Op: OpRshReg, Dst: t, Src: pos}
		sh[i+2] = Insn{Op: OpAndImm, Dst: t, Imm: 1<<w - 1}
		i += 3
		popCountShape((*[popCountLen]Insn)(sh[i:]), t, tmp)
		i += popCountLen
		sh[i] = Insn{Op: OpJleReg, Dst: rank, Src: t, Off: 2}
		sh[i+1] = Insn{Op: OpAddImm, Dst: pos, Imm: w}
		sh[i+2] = Insn{Op: OpSubReg, Dst: rank, Src: t}
		i += 3
	}
	sh[i] = Insn{Op: OpMovReg, Dst: t, Src: v}
	sh[i+1] = Insn{Op: OpRshReg, Dst: t, Src: pos}
	sh[i+2] = Insn{Op: OpAndImm, Dst: t, Imm: 1}
	sh[i+3] = Insn{Op: OpJleReg, Dst: rank, Src: t, Off: 1}
	sh[i+4] = Insn{Op: OpAddImm, Dst: pos, Imm: 1}
}

// matchFindNth reports whether insns[pc:pc+findNthLen] is exactly a FindNth
// expansion, returning its five registers. The registers must be pairwise
// distinct (they are in every emitted program; aliased variants would change
// semantics and are left to the per-instruction compiler).
func matchFindNth(insns []Insn, pc int) (v, rank, pos, t, tmp Reg, ok bool) {
	if pc+findNthLen > len(insns) {
		return 0, 0, 0, 0, 0, false
	}
	// Registers, read off the first round: MovImm pos / MovReg t,v /
	// RshReg t,pos / ... / popcount(t,tmp) / JleReg rank,t.
	pos = insns[pc].Dst
	t, v = insns[pc+1].Dst, insns[pc+1].Src
	tmp = insns[pc+4].Dst
	rank = insns[pc+4+popCountLen].Dst
	regs := [5]Reg{v, rank, pos, t, tmp}
	for i := 0; i < len(regs); i++ {
		for j := i + 1; j < len(regs); j++ {
			if regs[i] == regs[j] {
				return 0, 0, 0, 0, 0, false
			}
		}
	}
	var want [findNthLen]Insn
	findNthShape(&want, v, rank, pos, t, tmp)
	if [findNthLen]Insn(insns[pc:pc+findNthLen]) != want {
		return 0, 0, 0, 0, 0, false
	}
	return v, rank, pos, t, tmp, true
}
