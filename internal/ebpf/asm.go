package ebpf

import (
	"fmt"
	"strings"
	"sync"
)

// Assembler builds instruction sequences with forward labels, so program
// generators (like the Hermes dispatch builder) don't hand-compute jump
// offsets. A Label is an index made by NewLabel and placed by Bind, after
// every jump that references it — the verifier would reject backward jumps
// anyway. Until its label is bound, a jump's Off holds the index of the
// previous jump waiting for the same label (-1 ends the chain), so pending
// jumps cost no storage of their own. Algorithm 2's bit-twiddling idioms are
// emitted whole by PopCount and FindNth (jit.go, beside the matchers that
// fuse them).
type Assembler struct {
	insns  []Insn
	maps   []Map
	labels []label
	err    error
}

// Label is a forward jump target of the assembler that made it.
type Label int32

// label is a Label's state: pos is the pc it is bound to (-1 until Bind),
// head the newest jump still waiting for it (-1 when none).
type label struct{ pos, head int32 }

// Initial capacities: room for a one-group Algorithm 2 program (146
// instructions) and a four-group program's labels, so building one never
// regrows either slice; a four-group program (592 instructions) regrows the
// instructions twice.
const (
	assemblerInsns  = 256
	assemblerLabels = 8
)

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{
		insns:  make([]Insn, 0, assemblerInsns),
		labels: make([]label, 0, assemblerLabels),
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

// NewLabel returns an unbound label.
func (a *Assembler) NewLabel() Label {
	a.labels = append(a.labels, label{pos: -1, head: -1})
	return Label(len(a.labels) - 1)
}

func (a *Assembler) jump(op Op, dst, src Reg, imm uint64, l Label) *Assembler {
	s := &a.labels[l]
	if s.pos >= 0 {
		a.err = fmt.Errorf("ebpf: backward jump to label %d, bound at %d", l, s.pos)
		return a
	}
	a.emit(Insn{Op: op, Dst: dst, Src: src, Imm: imm, Off: s.head})
	s.head = int32(len(a.insns) - 1)
	return a
}

// Ja emits an unconditional forward jump to l.
func (a *Assembler) Ja(l Label) *Assembler { return a.jump(OpJa, 0, 0, 0, l) }

// Conditional jumps, immediate comparand.
func (a *Assembler) JeqImm(dst Reg, imm uint64, l Label) *Assembler {
	return a.jump(OpJeqImm, dst, 0, imm, l)
}
func (a *Assembler) JneImm(dst Reg, imm uint64, l Label) *Assembler {
	return a.jump(OpJneImm, dst, 0, imm, l)
}
func (a *Assembler) JgtImm(dst Reg, imm uint64, l Label) *Assembler {
	return a.jump(OpJgtImm, dst, 0, imm, l)
}
func (a *Assembler) JltImm(dst Reg, imm uint64, l Label) *Assembler {
	return a.jump(OpJltImm, dst, 0, imm, l)
}

// Bind places l at the current position and patches the jumps waiting for it.
func (a *Assembler) Bind(l Label) *Assembler {
	s := &a.labels[l]
	if s.pos >= 0 {
		a.err = fmt.Errorf("ebpf: label %d bound twice", l)
		return a
	}
	here := int32(len(a.insns))
	for j := s.head; j >= 0; {
		in := &a.insns[j]
		j, in.Off = in.Off, here-j-1
	}
	s.pos, s.head = here, -1
	return a
}

// Assemble resolves the program and runs it through the verifier.
func (a *Assembler) Assemble() (*Program, error) {
	if a.err != nil {
		return nil, a.err
	}
	for l, s := range a.labels {
		if s.head >= 0 {
			return nil, fmt.Errorf("ebpf: jump to unbound label %d", l)
		}
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
