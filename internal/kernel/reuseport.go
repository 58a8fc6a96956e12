package kernel

import (
	"hermes/internal/bitops"
	"hermes/internal/ebpf"
	"hermes/internal/tracing"
)

// ReuseportGroup models a set of SO_REUSEPORT sockets bound to one port.
// With no program attached, incoming connections are spread by stateless
// hashing of the 4-tuple (reciprocal_scale over the member count), which is
// the Linux 3.9 behaviour the paper's reuseport baseline uses. A simulated
// eBPF program attached via AttachProgram — the SO_ATTACH_REUSEPORT_EBPF
// hook — overrides the selection; if the program declines, errs, or picks an
// invalid socket, the group falls back to hashing, exactly the fallback
// Hermes relies on when too few workers pass the coarse filter (§5.3.2).
type ReuseportGroup struct {
	Port uint16

	ns    *NetStack
	socks []*Socket

	prog     *ebpf.Program
	compiled *ebpf.Compiled
	env      ebpf.Env // the attached program's context and registers, reused by every SYN
	selectFn func(hash, localityHash uint32) (*Socket, bool)

	// Dispatch outcome counters.
	ProgDispatched uint64 // program selected a valid member socket
	HashDispatched uint64 // plain hash (no override attached)
	Fallbacks      uint64 // override declined or picked an invalid socket
	ProgErrors     uint64 // program execution errors (also fall back)
}

// Sockets returns the member sockets in bind order (socket i belongs to
// worker i in the Hermes deployment).
func (g *ReuseportGroup) Sockets() []*Socket { return g.socks }

// AttachProgram installs a verified eBPF program as the socket selector.
// Any previously attached selector is replaced. The program is JIT-compiled
// on attach — the kernel does the same for SO_ATTACH_REUSEPORT_EBPF when
// bpf_jit_enable is set — and the compiled form serves every SYN; the
// interpreter remains the reference semantics (AttachProgramInterpreted) and
// the fallback if compilation fails.
func (g *ReuseportGroup) AttachProgram(p *ebpf.Program) {
	g.prog = p
	g.compiled = nil
	g.selectFn = nil
	if c, err := p.Compiled(); err == nil {
		g.compiled = c
	}
}

// AttachProgramInterpreted installs p without JIT compilation, forcing every
// dispatch through the interpreter. Benchmarks use it to measure the tier
// gap; production paths should use AttachProgram.
func (g *ReuseportGroup) AttachProgramInterpreted(p *ebpf.Program) {
	g.prog = p
	g.compiled = nil
	g.selectFn = nil
}

// Program returns the attached eBPF program, nil if none.
func (g *ReuseportGroup) Program() *ebpf.Program { return g.prog }

// AttachNative installs a Go-native selector with the same contract as an
// eBPF program (the load balancer runs the program JIT-compiled; a native
// selector is its spec in tests and its yardstick in benchmarks). fn returns
// ok=false to request hash fallback.
func (g *ReuseportGroup) AttachNative(fn func(hash, localityHash uint32) (*Socket, bool)) {
	g.selectFn = fn
	g.prog = nil
	g.compiled = nil
}

// allClosed reports whether every member socket has been closed.
func (g *ReuseportGroup) allClosed() bool {
	for _, s := range g.socks {
		if !s.closed {
			return false
		}
	}
	return true
}

// hashPick is the default reuseport selection.
func (g *ReuseportGroup) hashPick(hash uint32) *Socket {
	return g.socks[bitops.ReciprocalScale(hash, uint32(len(g.socks)))]
}

// selectSocket runs the dispatch decision for one incoming connection,
// returning the steering path taken (the trace annotation of KindSYN).
func (g *ReuseportGroup) selectSocket(hash, localityHash uint32) (*Socket, tracing.Via) {
	s, via := g.pick(hash, localityHash)
	if o := g.ns.obs; o != nil {
		o.steered.At(s.groupIdx).Inc()
		o.byVia[via].Inc()
	}
	return s, via
}

// pick chooses the member socket and maintains the outcome counters.
func (g *ReuseportGroup) pick(hash, localityHash uint32) (*Socket, tracing.Via) {
	switch {
	case g.prog != nil:
		ctx := &g.env.Ctx
		*ctx = ebpf.ReuseportCtx{Hash: hash, LocalityHash: localityHash}
		var (
			r0  uint64
			err error
		)
		if g.compiled != nil {
			r0, err = g.compiled.Run(&g.env)
		} else {
			r0, err = g.prog.Run(ctx)
		}
		if err != nil {
			g.ProgErrors++
			return g.hashPick(hash), tracing.ViaProgError
		}
		if r0 == 0 && ctx.Selected != nil {
			if s, ok := ctx.Selected.(*Socket); ok && s.group == g && !s.closed {
				g.ProgDispatched++
				return s, tracing.ViaProg
			}
		}
		g.Fallbacks++
		return g.hashPick(hash), tracing.ViaFallback
	case g.selectFn != nil:
		if s, ok := g.selectFn(hash, localityHash); ok && s != nil && s.group == g && !s.closed {
			g.ProgDispatched++
			return s, tracing.ViaProg
		}
		g.Fallbacks++
		return g.hashPick(hash), tracing.ViaFallback
	default:
		g.HashDispatched++
		return g.hashPick(hash), tracing.ViaHash
	}
}
