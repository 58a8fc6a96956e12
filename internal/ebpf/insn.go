// Package ebpf is a simulated eBPF subsystem: typed maps, a register-based
// virtual machine, a verifier enforcing the real runtime's key constraints
// (bounded programs, forward-only jumps, initialized registers, whitelisted
// helpers), and the SO_ATTACH_REUSEPORT_EBPF attach point that Hermes hooks.
//
// The paper's kernel-side dispatcher (§5.4, Algorithm 2) must work within
// eBPF's limited programmability — no loops, no complex hashing — which is
// why it selects workers with branch-free bit tricks. Reproducing that
// constraint faithfully matters as much as reproducing the behaviour, so
// Hermes's dispatch logic in this repo is assembled to bytecode and
// verified, exactly as a loaded BPF program would be. Verified programs run
// either interpreted (vm.go, the reference implementation) or JIT-compiled
// to a flat sequence of fused steps (jit.go) — the same two tiers the real
// kernel has, with the interpreter serving as the differential-fuzz oracle for
// the compiler. A semantically identical hand-written native path in
// internal/core mirrors what a production JIT would emit; benchmarks compare
// all three.
package ebpf

import "fmt"

// Reg is a VM register. R0 holds return values, R1..R5 carry helper
// arguments (and are clobbered by calls), R6..R9 are callee-saved scratch.
type Reg uint8

// VM registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	NumRegs = 10
)

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Op is an instruction opcode.
type Op uint8

// Opcodes. ALU ops come in immediate and register flavours; conditional
// jumps likewise. Offsets are relative to the next instruction, and the
// verifier requires them to be strictly forward (loop freedom).
const (
	OpMovImm Op = iota // dst = imm
	OpMovReg           // dst = src
	OpAddImm           // dst += imm
	OpAddReg           // dst += src
	OpSubImm           // dst -= imm
	OpSubReg           // dst -= src
	OpMulImm           // dst *= imm
	OpMulReg           // dst *= src
	OpAndImm           // dst &= imm
	OpAndReg           // dst &= src
	OpOrImm            // dst |= imm
	OpOrReg            // dst |= src
	OpXorImm           // dst ^= imm
	OpXorReg           // dst ^= src
	OpLshImm           // dst <<= imm
	OpLshReg           // dst <<= src
	OpRshImm           // dst >>= imm (logical)
	OpRshReg           // dst >>= src
	OpNeg              // dst = -dst
	OpJa               // pc += off
	OpJeqImm           // if dst == imm: pc += off
	OpJeqReg           // if dst == src: pc += off
	OpJneImm           // if dst != imm: pc += off
	OpJneReg           // if dst != src: pc += off
	OpJgtImm           // if dst >  imm: pc += off (unsigned)
	OpJgtReg           // if dst >  src: pc += off
	OpJgeImm           // if dst >= imm: pc += off
	OpJgeReg           // if dst >= src: pc += off
	OpJltImm           // if dst <  imm: pc += off
	OpJltReg           // if dst <  src: pc += off
	OpJleImm           // if dst <= imm: pc += off
	OpJleReg           // if dst <= src: pc += off
	OpLdMap            // dst = handle of map[imm] (pseudo map-fd load)
	OpCall             // call helper imm
	OpExit             // return R0
)

var opNames = map[Op]string{
	OpMovImm: "mov", OpMovReg: "mov",
	OpAddImm: "add", OpAddReg: "add",
	OpSubImm: "sub", OpSubReg: "sub",
	OpMulImm: "mul", OpMulReg: "mul",
	OpAndImm: "and", OpAndReg: "and",
	OpOrImm: "or", OpOrReg: "or",
	OpXorImm: "xor", OpXorReg: "xor",
	OpLshImm: "lsh", OpLshReg: "lsh",
	OpRshImm: "rsh", OpRshReg: "rsh",
	OpNeg:    "neg",
	OpJa:     "ja",
	OpJeqImm: "jeq", OpJeqReg: "jeq",
	OpJneImm: "jne", OpJneReg: "jne",
	OpJgtImm: "jgt", OpJgtReg: "jgt",
	OpJgeImm: "jge", OpJgeReg: "jge",
	OpJltImm: "jlt", OpJltReg: "jlt",
	OpJleImm: "jle", OpJleReg: "jle",
	OpLdMap: "ldmap",
	OpCall:  "call",
	OpExit:  "exit",
}

// Insn is one VM instruction.
type Insn struct {
	Op  Op
	Dst Reg
	Src Reg
	Imm uint64 // immediate operand / helper id / map slot
	Off int32  // jump offset, relative to next instruction
}

func (in Insn) isJump() bool {
	return in.Op >= OpJa && in.Op <= OpJleReg
}

func (in Insn) usesImm() bool {
	switch in.Op {
	case OpMovImm, OpAddImm, OpSubImm, OpMulImm, OpAndImm, OpOrImm,
		OpXorImm, OpLshImm, OpRshImm, OpJeqImm, OpJneImm, OpJgtImm,
		OpJgeImm, OpJltImm, OpJleImm, OpLdMap, OpCall:
		return true
	}
	return false
}

// String renders the instruction in a bpftool-like syntax.
func (in Insn) String() string {
	name := opNames[in.Op]
	switch {
	case in.Op == OpExit:
		return "exit"
	case in.Op == OpNeg:
		return fmt.Sprintf("%s %s", name, in.Dst)
	case in.Op == OpJa:
		return fmt.Sprintf("%s +%d", name, in.Off)
	case in.Op == OpCall:
		return fmt.Sprintf("call %s", HelperID(in.Imm))
	case in.Op == OpLdMap:
		return fmt.Sprintf("%s = map[%d]", in.Dst, in.Imm)
	case in.isJump() && in.usesImm():
		return fmt.Sprintf("if %s %s %d goto +%d", in.Dst, name[1:], in.Imm, in.Off)
	case in.isJump():
		return fmt.Sprintf("if %s %s %s goto +%d", in.Dst, name[1:], in.Src, in.Off)
	case in.usesImm():
		return fmt.Sprintf("%s %s, %d", name, in.Dst, in.Imm)
	default:
		return fmt.Sprintf("%s %s, %s", name, in.Dst, in.Src)
	}
}
