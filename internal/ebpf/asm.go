package ebpf

import (
	"fmt"
	"strings"
	"sync"
)

// Assembler builds instruction sequences with symbolic forward labels, so
// program generators (like the Hermes dispatch builder) don't hand-compute
// jump offsets. Labels must be defined after every jump that references them
// — the verifier would reject backward jumps anyway.
type Assembler struct {
	insns   []Insn
	maps    []Map
	pending map[string][]int // label -> indices of jumps waiting for it
	defined map[string]bool
	err     error
}

// assemblerInsns is the instruction capacity an assembler starts with: room
// for a one-group Algorithm 2 program (146 instructions), so building one
// never regrows the slice, and a four-group one (592) regrows it twice.
const assemblerInsns = 256

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{
		insns:   make([]Insn, 0, assemblerInsns),
		pending: make(map[string][]int),
		defined: make(map[string]bool),
	}
}

func (a *Assembler) emit(in Insn) *Assembler {
	a.insns = append(a.insns, in)
	return a
}

// AddMap registers a map and returns its slot for OpLdMap.
func (a *Assembler) AddMap(m Map) uint64 {
	a.maps = append(a.maps, m)
	return uint64(len(a.maps) - 1)
}

// MovImm emits dst = imm.
func (a *Assembler) MovImm(dst Reg, imm uint64) *Assembler {
	return a.emit(Insn{Op: OpMovImm, Dst: dst, Imm: imm})
}

// MovReg emits dst = src.
func (a *Assembler) MovReg(dst, src Reg) *Assembler {
	return a.emit(Insn{Op: OpMovReg, Dst: dst, Src: src})
}

// ALU immediate forms.
func (a *Assembler) AddImm(dst Reg, imm uint64) *Assembler {
	return a.emit(Insn{Op: OpAddImm, Dst: dst, Imm: imm})
}
func (a *Assembler) SubImm(dst Reg, imm uint64) *Assembler {
	return a.emit(Insn{Op: OpSubImm, Dst: dst, Imm: imm})
}
func (a *Assembler) MulImm(dst Reg, imm uint64) *Assembler {
	return a.emit(Insn{Op: OpMulImm, Dst: dst, Imm: imm})
}
func (a *Assembler) AndImm(dst Reg, imm uint64) *Assembler {
	return a.emit(Insn{Op: OpAndImm, Dst: dst, Imm: imm})
}
func (a *Assembler) OrImm(dst Reg, imm uint64) *Assembler {
	return a.emit(Insn{Op: OpOrImm, Dst: dst, Imm: imm})
}
func (a *Assembler) XorImm(dst Reg, imm uint64) *Assembler {
	return a.emit(Insn{Op: OpXorImm, Dst: dst, Imm: imm})
}
func (a *Assembler) LshImm(dst Reg, imm uint64) *Assembler {
	return a.emit(Insn{Op: OpLshImm, Dst: dst, Imm: imm})
}
func (a *Assembler) RshImm(dst Reg, imm uint64) *Assembler {
	return a.emit(Insn{Op: OpRshImm, Dst: dst, Imm: imm})
}

// ALU register forms.
func (a *Assembler) AddReg(dst, src Reg) *Assembler {
	return a.emit(Insn{Op: OpAddReg, Dst: dst, Src: src})
}
func (a *Assembler) SubReg(dst, src Reg) *Assembler {
	return a.emit(Insn{Op: OpSubReg, Dst: dst, Src: src})
}
func (a *Assembler) MulReg(dst, src Reg) *Assembler {
	return a.emit(Insn{Op: OpMulReg, Dst: dst, Src: src})
}
func (a *Assembler) AndReg(dst, src Reg) *Assembler {
	return a.emit(Insn{Op: OpAndReg, Dst: dst, Src: src})
}
func (a *Assembler) OrReg(dst, src Reg) *Assembler {
	return a.emit(Insn{Op: OpOrReg, Dst: dst, Src: src})
}
func (a *Assembler) XorReg(dst, src Reg) *Assembler {
	return a.emit(Insn{Op: OpXorReg, Dst: dst, Src: src})
}
func (a *Assembler) LshReg(dst, src Reg) *Assembler {
	return a.emit(Insn{Op: OpLshReg, Dst: dst, Src: src})
}
func (a *Assembler) RshReg(dst, src Reg) *Assembler {
	return a.emit(Insn{Op: OpRshReg, Dst: dst, Src: src})
}

// Neg emits dst = -dst.
func (a *Assembler) Neg(dst Reg) *Assembler { return a.emit(Insn{Op: OpNeg, Dst: dst}) }

// LdMap emits dst = handle of map slot.
func (a *Assembler) LdMap(dst Reg, slot uint64) *Assembler {
	return a.emit(Insn{Op: OpLdMap, Dst: dst, Imm: slot})
}

// Call emits a helper call.
func (a *Assembler) Call(h HelperID) *Assembler {
	return a.emit(Insn{Op: OpCall, Imm: uint64(h)})
}

// Exit emits program termination.
func (a *Assembler) Exit() *Assembler { return a.emit(Insn{Op: OpExit}) }

func (a *Assembler) jump(op Op, dst, src Reg, imm uint64, label string) *Assembler {
	if a.defined[label] {
		a.err = fmt.Errorf("ebpf: backward jump to already-defined label %q", label)
		return a
	}
	a.pending[label] = append(a.pending[label], len(a.insns))
	return a.emit(Insn{Op: op, Dst: dst, Src: src, Imm: imm})
}

// Ja emits an unconditional forward jump to label.
func (a *Assembler) Ja(label string) *Assembler { return a.jump(OpJa, 0, 0, 0, label) }

// Conditional jumps, immediate comparand.
func (a *Assembler) JeqImm(dst Reg, imm uint64, label string) *Assembler {
	return a.jump(OpJeqImm, dst, 0, imm, label)
}
func (a *Assembler) JneImm(dst Reg, imm uint64, label string) *Assembler {
	return a.jump(OpJneImm, dst, 0, imm, label)
}
func (a *Assembler) JgtImm(dst Reg, imm uint64, label string) *Assembler {
	return a.jump(OpJgtImm, dst, 0, imm, label)
}
func (a *Assembler) JgeImm(dst Reg, imm uint64, label string) *Assembler {
	return a.jump(OpJgeImm, dst, 0, imm, label)
}
func (a *Assembler) JltImm(dst Reg, imm uint64, label string) *Assembler {
	return a.jump(OpJltImm, dst, 0, imm, label)
}
func (a *Assembler) JleImm(dst Reg, imm uint64, label string) *Assembler {
	return a.jump(OpJleImm, dst, 0, imm, label)
}

// Conditional jumps, register comparand.
func (a *Assembler) JeqReg(dst, src Reg, label string) *Assembler {
	return a.jump(OpJeqReg, dst, src, 0, label)
}
func (a *Assembler) JneReg(dst, src Reg, label string) *Assembler {
	return a.jump(OpJneReg, dst, src, 0, label)
}
func (a *Assembler) JgtReg(dst, src Reg, label string) *Assembler {
	return a.jump(OpJgtReg, dst, src, 0, label)
}
func (a *Assembler) JgeReg(dst, src Reg, label string) *Assembler {
	return a.jump(OpJgeReg, dst, src, 0, label)
}
func (a *Assembler) JltReg(dst, src Reg, label string) *Assembler {
	return a.jump(OpJltReg, dst, src, 0, label)
}
func (a *Assembler) JleReg(dst, src Reg, label string) *Assembler {
	return a.jump(OpJleReg, dst, src, 0, label)
}

// Label defines label at the current position, resolving pending jumps.
func (a *Assembler) Label(label string) *Assembler {
	if a.defined[label] {
		a.err = fmt.Errorf("ebpf: label %q defined twice", label)
		return a
	}
	a.defined[label] = true
	here := len(a.insns)
	for _, idx := range a.pending[label] {
		a.insns[idx].Off = int32(here - idx - 1)
	}
	delete(a.pending, label)
	return a
}

// Assemble resolves the program and runs it through the verifier.
func (a *Assembler) Assemble() (*Program, error) {
	if a.err != nil {
		return nil, a.err
	}
	if len(a.pending) > 0 {
		var missing []string
		for l := range a.pending {
			missing = append(missing, l)
		}
		return nil, fmt.Errorf("ebpf: undefined labels: %s", strings.Join(missing, ", "))
	}
	p := &Program{insns: append([]Insn(nil), a.insns...), maps: append([]Map(nil), a.maps...)}
	if err := Verify(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Program is a verified, immutable instruction sequence with its map
// references, ready to attach to a reuseport group. It can run interpreted
// (Run) or in compiled form (Compiled); the JIT result is cached on the
// program.
type Program struct {
	insns []Insn
	maps  []Map

	jitOnce sync.Once
	jit     *Compiled
	jitErr  error
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.insns) }

// Disassemble renders the program with one instruction per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i, in := range p.insns {
		fmt.Fprintf(&b, "%4d: %s\n", i, in)
	}
	return b.String()
}
