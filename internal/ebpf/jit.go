package ebpf

import (
	"math/bits"
	"sync"

	"hermes/internal/telemetry"
)

// This file is the JIT/specialization pass: it compiles a verified Program
// into a chain of native Go closures, the simulated analogue of the kernel's
// eBPF JIT (interpretation on the packet path is too slow there for exactly
// the reason BenchmarkSteerSYN shows here). The interpreter (vm.go) stays as
// the reference implementation; fuzz_test.go runs every verified program
// through both and requires identical observable behaviour.
//
// Compilation strategy (docs/EBPF.md):
//
//   - Decode once. Each instruction becomes a closure with its operands
//     (register indices, immediates) captured as constants, eliminating the
//     per-instruction fetch/decode switch of the interpreter.
//   - Resolve at compile time. OpLdMap writes a handle the interpreter must
//     re-validate on every helper call; the compiler instead runs a forward
//     dataflow pass tracking which concrete map slot each register holds, and
//     emits helper closures with the *ArrayMap / *SockArray captured
//     directly. Handle validation and map-type checks disappear from the run
//     path (the verifier already proved them; the dataflow pass only decides
//     whether the proof pins a single slot).
//   - Fuse known idioms. The branch-free SWAR popcount sequence emitted by
//     core's dispatch builder (15 ALU instructions) collapses into one
//     closure built on bits.OnesCount64, and the rank-select walk's
//     shift-and-mask window extraction (3 instructions) into another. Fusion
//     preserves register fidelity: the fused closure also writes the exact
//     final value of the scratch register, so later reads see what the
//     instruction sequence would have produced.
//   - Thread by continuation. Closures are built in reverse pc order; since
//     verified jumps are strictly forward, both jump targets and
//     fallthroughs are already compiled when a closure needs them, so each
//     closure tail-calls its successor directly — no dispatch loop at all.
//
// Fallback rules: Compile refuses nothing a verified program can contain —
// every opcode has a generic closure, and helper calls whose map argument
// the dataflow pass cannot pin to one slot fall back to the interpreter's
// call() on the same env. Attach-time callers (kernel.ReuseportGroup) treat
// a Compile error as "run interpreted", so a compiler bug can cost speed but
// never dispatch correctness.

// jitEnv is the mutable state a compiled program runs against. The context
// is held by value and copied in/out by Compiled.Run: pooled envs must not
// retain caller pointers, and a pointer field would make the caller's ctx
// escape to the heap — the steering path is required to be allocation-free.
type jitEnv struct {
	regs [NumRegs]uint64
	ctx  ReuseportCtx
	err  error
}

// jitFn executes one (possibly fused) instruction and its continuation.
type jitFn func(*jitEnv)

var jitEnvPool = sync.Pool{New: func() any { return new(jitEnv) }}

// clobberPattern is what helper calls leave in R1-R5, mirroring vm.go.
const clobberPattern = 0xdead_beef_dead_beef

// Compiled is a Program lowered to a native closure chain.
type Compiled struct {
	prog     *Program
	entry    jitFn
	closures int // closure count after fusion (compile-time stat)

	runs *telemetry.Counter // ebpf.jit.runs; nil until Observe
}

// Insns returns the source program's instruction count.
func (c *Compiled) Insns() int { return c.prog.Len() }

// Closures returns the closure count after fusion.
func (c *Compiled) Closures() int { return c.closures }

// Run executes the compiled program against ctx with the same observable
// semantics as Program.Run: identical R0/error results and identical ctx
// mutations (Selected, SelectedIndex), property-checked by the differential
// fuzzer. Steady-state allocation is zero: the env is pooled and the context
// crosses by value.
func (c *Compiled) Run(ctx *ReuseportCtx) (uint64, error) {
	e := jitEnvPool.Get().(*jitEnv)
	e.regs = [NumRegs]uint64{}
	e.regs[R1] = 1 // context register, as in vm.go
	e.ctx = *ctx
	e.ctx.SelectedIndex = -1
	e.err = nil

	c.entry(e)

	r0 := e.regs[R0]
	if e.err != nil {
		r0 = 0 // interpreter returns (0, err); match exactly
	}
	err := e.err
	*ctx = e.ctx
	e.ctx.Selected = nil // don't retain socket refs in the pool
	jitEnvPool.Put(e)
	c.runs.Inc()
	return r0, err
}

// Compiled returns the program lowered to native closures, compiling on
// first use. Compilation happens at most once per program; concurrent
// callers share the result.
func (p *Program) Compiled() (*Compiled, error) {
	p.jitOnce.Do(func() { p.jit, p.jitErr = Compile(p) })
	return p.jit, p.jitErr
}

// Compile lowers a verified program. Programs that did not come out of
// Assemble/Verify are rejected by re-verification: the compiler's soundness
// (forward-only continuation building, no bounds checks on fused windows)
// depends on the verifier's guarantees.
func Compile(p *Program) (*Compiled, error) {
	if err := Verify(p); err != nil {
		return nil, err
	}
	n := len(p.insns)
	targets := jumpTargets(p.insns)
	slots := resolveMapSlots(p)

	// fns[pc] runs the instruction at pc and everything after it; fns[n] is
	// never reached (the verifier rejects fallthrough off the end) but a
	// defined error closure keeps a compiler bug from becoming a nil call.
	fns := make([]jitFn, n+1)
	fns[n] = func(e *jitEnv) { e.err = ErrFellOff }

	for pc := n - 1; pc >= 0; pc-- {
		if fn := fuse(p.insns, pc, targets, fns); fn != nil {
			fns[pc] = fn
			continue
		}
		fns[pc] = compileInsn(p, p.insns[pc], pc, slots, fns)
	}
	// Fused windows leave their interior fns compiled but unreachable (the
	// fusion preconditions include "no jump lands inside the window"), so
	// the closure count reported is the count along the instruction stream
	// with fused windows collapsed.
	closures := countReachable(p.insns, targets, n)
	return &Compiled{prog: p, entry: fns[0], closures: closures}, nil
}

// jumpTargets maps each pc some jump lands on to the pcs of the jumps that
// land there. Fusion windows may contain jump targets only if every jump to
// them originates inside the window (single-entry region): the rank-select
// walk's internal branches qualify, an external branch into the middle of a
// fused window would not.
func jumpTargets(insns []Insn) map[int][]int {
	t := make(map[int][]int)
	for pc, in := range insns {
		if in.isJump() {
			dest := pc + 1 + int(in.Off)
			t[dest] = append(t[dest], pc)
		}
	}
	return t
}

// countReachable walks the instruction stream the way the fused compiler
// laid it out — fused windows advance by their width — and counts one
// closure per step, ignoring branch direction (both sides of a conditional
// rejoin the same stream). It measures how much fusion shrank the chain.
func countReachable(insns []Insn, targets map[int][]int, n int) int {
	count := 0
	for pc := 0; pc < n; {
		count++
		if w := fuseWidth(insns, pc, targets); w > 0 {
			pc += w
			continue
		}
		pc++
	}
	return count
}

// compileInsn builds the closure for one instruction. Continuations are read
// from fns at build time (legal because jumps are strictly forward and we
// build in reverse pc order), so the run path never indexes fns.
func compileInsn(p *Program, in Insn, pc int, slots map[int]int, fns []jitFn) jitFn {
	next := fns[pc+1]
	dst, src, imm := in.Dst, in.Src, in.Imm

	switch in.Op {
	case OpMovImm:
		return func(e *jitEnv) { e.regs[dst] = imm; next(e) }
	case OpMovReg:
		return func(e *jitEnv) { e.regs[dst] = e.regs[src]; next(e) }
	case OpAddImm:
		return func(e *jitEnv) { e.regs[dst] += imm; next(e) }
	case OpAddReg:
		return func(e *jitEnv) { e.regs[dst] += e.regs[src]; next(e) }
	case OpSubImm:
		return func(e *jitEnv) { e.regs[dst] -= imm; next(e) }
	case OpSubReg:
		return func(e *jitEnv) { e.regs[dst] -= e.regs[src]; next(e) }
	case OpMulImm:
		return func(e *jitEnv) { e.regs[dst] *= imm; next(e) }
	case OpMulReg:
		return func(e *jitEnv) { e.regs[dst] *= e.regs[src]; next(e) }
	case OpAndImm:
		return func(e *jitEnv) { e.regs[dst] &= imm; next(e) }
	case OpAndReg:
		return func(e *jitEnv) { e.regs[dst] &= e.regs[src]; next(e) }
	case OpOrImm:
		return func(e *jitEnv) { e.regs[dst] |= imm; next(e) }
	case OpOrReg:
		return func(e *jitEnv) { e.regs[dst] |= e.regs[src]; next(e) }
	case OpXorImm:
		return func(e *jitEnv) { e.regs[dst] ^= imm; next(e) }
	case OpXorReg:
		return func(e *jitEnv) { e.regs[dst] ^= e.regs[src]; next(e) }
	case OpLshImm:
		sh := imm & 63
		return func(e *jitEnv) { e.regs[dst] <<= sh; next(e) }
	case OpLshReg:
		return func(e *jitEnv) { e.regs[dst] <<= e.regs[src] & 63; next(e) }
	case OpRshImm:
		sh := imm & 63
		return func(e *jitEnv) { e.regs[dst] >>= sh; next(e) }
	case OpRshReg:
		return func(e *jitEnv) { e.regs[dst] >>= e.regs[src] & 63; next(e) }
	case OpNeg:
		return func(e *jitEnv) { e.regs[dst] = -e.regs[dst]; next(e) }
	case OpLdMap:
		handle := imm + 1 // same encoding as the interpreter
		return func(e *jitEnv) { e.regs[dst] = handle; next(e) }
	case OpCall:
		return compileCall(p, HelperID(imm), slots[pc], next)
	case OpJa:
		return fns[pc+1+int(in.Off)]
	case OpJeqImm:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] == imm {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpJeqReg:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] == e.regs[src] {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpJneImm:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] != imm {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpJneReg:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] != e.regs[src] {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpJgtImm:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] > imm {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpJgtReg:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] > e.regs[src] {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpJgeImm:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] >= imm {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpJgeReg:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] >= e.regs[src] {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpJltImm:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] < imm {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpJltReg:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] < e.regs[src] {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpJleImm:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] <= imm {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpJleReg:
		taken := fns[pc+1+int(in.Off)]
		return func(e *jitEnv) {
			if e.regs[dst] <= e.regs[src] {
				taken(e)
			} else {
				next(e)
			}
		}
	case OpExit:
		return func(e *jitEnv) {} // R0 already in place
	default:
		return func(e *jitEnv) { e.err = ErrUnknownOpcode }
	}
}

// clobberCall applies the helper call's register contract: R1-R5 poisoned,
// R0 set. Mirrors vm.go's call() epilogue exactly.
func clobberCall(e *jitEnv, r0 uint64) {
	for r := R1; r <= R5; r++ {
		e.regs[r] = clobberPattern
	}
	e.regs[R0] = r0
}

// compileCall builds the closure for one helper call. When the dataflow pass
// pinned the map argument to a single slot (slot > 0, stored as slot+1), the
// closure captures the concrete map and skips handle decoding entirely;
// otherwise it falls back to the interpreter's call() on the env's state.
func compileCall(p *Program, h HelperID, slot int, next jitFn) jitFn {
	switch h {
	case HelperGetHash:
		return func(e *jitEnv) {
			clobberCall(e, uint64(e.ctx.Hash))
			next(e)
		}
	case HelperGetLocalityHash:
		return func(e *jitEnv) {
			clobberCall(e, uint64(e.ctx.LocalityHash))
			next(e)
		}
	case HelperReciprocalScale:
		return func(e *jitEnv) {
			r0 := (e.regs[R1] & 0xffffffff) * (e.regs[R2] & 0xffffffff) >> 32
			clobberCall(e, r0)
			next(e)
		}
	case HelperMapLookupElem:
		if slot > 0 {
			if am, ok := p.maps[slot-1].(*ArrayMap); ok {
				return func(e *jitEnv) {
					v, ok := am.Lookup(uint32(e.regs[R2]))
					if !ok {
						e.err = ErrMapMiss
						return
					}
					clobberCall(e, v)
					next(e)
				}
			}
		}
	case HelperSkSelectReuseport:
		if slot > 0 {
			if sa, ok := p.maps[slot-1].(*SockArray); ok {
				return func(e *jitEnv) {
					idx := uint32(e.regs[R2])
					ref := sa.Get(idx)
					if ref == nil {
						clobberCall(e, 1)
					} else {
						e.ctx.Selected = ref
						e.ctx.SelectedIndex = int(idx)
						clobberCall(e, 0)
					}
					next(e)
				}
			}
		}
	}
	// Generic fallback: unknown helper id, or a map argument the dataflow
	// pass could not pin. Reuses the interpreter's helper dispatch so the
	// two paths cannot drift.
	return func(e *jitEnv) {
		if err := p.call(h, &e.regs, &e.ctx); err != nil {
			e.err = err
			return
		}
		next(e)
	}
}

// resolveMapSlots runs a forward dataflow pass mirroring the verifier's,
// tracking which OpLdMap slot each register holds as a concrete value
// (slot+1; 0 = unknown/scalar). Where all paths into a helper call agree on
// the map argument's slot, the call can be specialized. The result maps
// call pc → slot+1.
func resolveMapSlots(p *Program) map[int]int {
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

	resolved := make(map[int]int)
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
				resolved[pc] = int(st.slot[Reg(spec.mapArg)])
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

// popCountLen is the length of the SWAR popcount sequence core's dispatch
// builder emits (emitPopCount): three fold rounds plus the multiply-shift
// horizontal sum.
const popCountLen = 15

// popCountShape is the emitPopCount(dst, tmp) expansion: three SWAR fold
// rounds plus the multiply-shift horizontal sum.
func popCountShape(dst, tmp Reg) []Insn {
	return []Insn{
		{Op: OpMovReg, Dst: tmp, Src: dst},
		{Op: OpRshImm, Dst: tmp, Imm: 1},
		{Op: OpAndImm, Dst: tmp, Imm: m1},
		{Op: OpSubReg, Dst: dst, Src: tmp},
		{Op: OpMovReg, Dst: tmp, Src: dst},
		{Op: OpRshImm, Dst: tmp, Imm: 2},
		{Op: OpAndImm, Dst: tmp, Imm: m2},
		{Op: OpAndImm, Dst: dst, Imm: m2},
		{Op: OpAddReg, Dst: dst, Src: tmp},
		{Op: OpMovReg, Dst: tmp, Src: dst},
		{Op: OpRshImm, Dst: tmp, Imm: 4},
		{Op: OpAddReg, Dst: dst, Src: tmp},
		{Op: OpAndImm, Dst: dst, Imm: m4},
		{Op: OpMulImm, Dst: dst, Imm: h1},
		{Op: OpRshImm, Dst: dst, Imm: 56},
	}
}

// matchPopCount reports whether insns[pc:pc+popCountLen] is exactly the
// emitPopCount(dst, tmp) shape, returning the two registers.
func matchPopCount(insns []Insn, pc int) (dst, tmp Reg, ok bool) {
	if pc+popCountLen > len(insns) {
		return 0, 0, false
	}
	w := insns[pc : pc+popCountLen]
	dst, tmp = w[0].Src, w[0].Dst
	if dst == tmp {
		return 0, 0, false
	}
	for i, want := range popCountShape(dst, tmp) {
		if w[i] != want {
			return 0, 0, false
		}
	}
	return dst, tmp, true
}

// SWAR constants, shared with core's emitPopCount (which emits them as
// immediates — the matcher compares against the same values).
const (
	m1 = 0x5555555555555555
	m2 = 0x3333333333333333
	m4 = 0x0f0f0f0f0f0f0f0f
	h1 = 0x0101010101010101
)

// matchWindowExtract reports whether insns[pc:pc+3] is the rank-select walk's
// window extraction — t = (v >> pos) & mask — returning the registers and
// mask. Requires pos ≠ t: the fused form reads pos after t would have been
// overwritten.
func matchWindowExtract(insns []Insn, pc int) (t, v, pos Reg, mask uint64, ok bool) {
	if pc+3 > len(insns) {
		return 0, 0, 0, 0, false
	}
	i0, i1, i2 := insns[pc], insns[pc+1], insns[pc+2]
	if i0.Op != OpMovReg || i1.Op != OpRshReg || i2.Op != OpAndImm {
		return 0, 0, 0, 0, false
	}
	t, v, pos = i0.Dst, i0.Src, i1.Src
	if i1.Dst != t || i2.Dst != t || pos == t {
		return 0, 0, 0, 0, false
	}
	return t, v, pos, i2.Imm, true
}

// findNthWidths are the rank-select walk's halving windows; the final 1-bit
// probe is emitted without a popcount.
var findNthWidths = [...]uint64{32, 16, 8, 4, 2}

// findNthLen is the length of the full rank-select walk core's dispatch
// builder emits (emitFindNth): pos init, five extract+popcount+branch rounds,
// and the final single-bit probe.
const findNthLen = 1 + len(findNthWidths)*(3+popCountLen+3) + 5

// findNthShape builds the exact instruction sequence emitFindNth(v, rank,
// pos, t, tmp) produces, for structural matching. Branch offsets are fixed by
// construction: each round's JleReg skips its own AddImm/SubReg pair, the
// final probe's skips one AddImm.
func findNthShape(v, rank, pos, t, tmp Reg) []Insn {
	shape := make([]Insn, 0, findNthLen)
	shape = append(shape, Insn{Op: OpMovImm, Dst: pos, Imm: 0})
	for _, w := range findNthWidths {
		shape = append(shape,
			Insn{Op: OpMovReg, Dst: t, Src: v},
			Insn{Op: OpRshReg, Dst: t, Src: pos},
			Insn{Op: OpAndImm, Dst: t, Imm: 1<<w - 1})
		shape = append(shape, popCountShape(t, tmp)...)
		shape = append(shape,
			Insn{Op: OpJleReg, Dst: rank, Src: t, Off: 2},
			Insn{Op: OpAddImm, Dst: pos, Imm: w},
			Insn{Op: OpSubReg, Dst: rank, Src: t})
	}
	shape = append(shape,
		Insn{Op: OpMovReg, Dst: t, Src: v},
		Insn{Op: OpRshReg, Dst: t, Src: pos},
		Insn{Op: OpAndImm, Dst: t, Imm: 1},
		Insn{Op: OpJleReg, Dst: rank, Src: t, Off: 1},
		Insn{Op: OpAddImm, Dst: pos, Imm: 1})
	return shape
}

// matchFindNth reports whether insns[pc:pc+findNthLen] is exactly an
// emitFindNth expansion, returning its five registers. The registers must be
// pairwise distinct (they are in every emitted program; aliased variants
// would change semantics and are left to the per-instruction compiler).
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
	for i, want := range findNthShape(v, rank, pos, t, tmp) {
		if insns[pc+i] != want {
			return 0, 0, 0, 0, 0, false
		}
	}
	return v, rank, pos, t, tmp, true
}

// fuseWidth returns the instruction count a fusion starting at pc would
// consume, or 0 if nothing fuses there. A window only fuses when it is
// single-entry: jumps may land inside it only from inside it (the entry pc
// itself may be a target from anywhere).
func fuseWidth(insns []Insn, pc int, targets map[int][]int) int {
	windowClear := func(width int) bool {
		for i := pc + 1; i < pc+width; i++ {
			for _, src := range targets[i] {
				if src < pc || src >= pc+width {
					return false
				}
			}
		}
		return true
	}
	if _, _, _, _, _, ok := matchFindNth(insns, pc); ok && windowClear(findNthLen) {
		return findNthLen
	}
	if _, _, ok := matchPopCount(insns, pc); ok && windowClear(popCountLen) {
		return popCountLen
	}
	if _, _, _, _, ok := matchWindowExtract(insns, pc); ok && windowClear(3) {
		return 3
	}
	return 0
}

// fuse builds a fused closure for the window starting at pc, or nil.
func fuse(insns []Insn, pc int, targets map[int][]int, fns []jitFn) jitFn {
	switch fuseWidth(insns, pc, targets) {
	case findNthLen:
		v, rank, pos, t, tmp, _ := matchFindNth(insns, pc)
		next := fns[pc+findNthLen]
		return func(e *jitEnv) {
			vv := e.regs[v]
			rk := e.regs[rank]
			var p, tm uint64
			for _, w := range findNthWidths {
				win := (vv >> (p & 63)) & (1<<w - 1)
				// Register fidelity for tmp, as in the popcount fusion.
				d1 := win - ((win >> 1) & m1)
				d2 := (d1 & m2) + ((d1 >> 2) & m2)
				tm = d2 >> 4
				c := uint64(bits.OnesCount64(win))
				if rk > c { // JleReg not taken: descend into the high half
					p += w
					rk -= c
				}
			}
			fin := (vv >> (p & 63)) & 1
			if rk > fin {
				p++
			}
			e.regs[pos] = p
			e.regs[rank] = rk
			e.regs[t] = fin
			e.regs[tmp] = tm
			next(e)
		}
	case popCountLen:
		dst, tmp, _ := matchPopCount(insns, pc)
		next := fns[pc+popCountLen]
		return func(e *jitEnv) {
			v := e.regs[dst]
			// Register fidelity: tmp must hold the exact value the SWAR
			// sequence leaves there (the second fold's partial sums, shifted
			// by the third round's extract) in case a later insn reads it.
			d1 := v - ((v >> 1) & m1)
			d2 := (d1 & m2) + ((d1 >> 2) & m2)
			e.regs[tmp] = d2 >> 4
			e.regs[dst] = uint64(bits.OnesCount64(v))
			next(e)
		}
	case 3:
		t, v, pos, mask, _ := matchWindowExtract(insns, pc)
		next := fns[pc+3]
		return func(e *jitEnv) {
			e.regs[t] = (e.regs[v] >> (e.regs[pos] & 63)) & mask
			next(e)
		}
	}
	return nil
}
