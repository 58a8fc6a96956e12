package core

import (
	"fmt"
	"strconv"

	"hermes/internal/bitops"
	"hermes/internal/ebpf"
)

// This file emits Algorithm 2 — Hermes's in-kernel connection dispatch — as
// simulated eBPF bytecode, and provides the semantically identical native-Go
// selector: the spec the bytecode is checked against, which steers no traffic.
//
// The program must respect eBPF's constraints (no loops, bounded size), so
// CountNonZeroBits and FindNthNonZeroBit are expanded inline as straight-line
// bit arithmetic with forward branches only (§5.4, Bit Twiddling Hacks).

const (
	m1 = 0x5555555555555555
	m2 = 0x3333333333333333
	m4 = 0x0f0f0f0f0f0f0f0f
	h1 = 0x0101010101010101
)

// emitPopCount appends dst = popcount(dst), clobbering tmp. 15 instructions,
// branch-free. The JIT recognizes this exact expansion and fuses it to a
// native bits.OnesCount64 (internal/ebpf fusion matchers); changing the shape
// here only costs speed, not correctness.
func emitPopCount(a *ebpf.Assembler, dst, tmp ebpf.Reg) {
	a.MovReg(tmp, dst).RshImm(tmp, 1).AndImm(tmp, m1).SubReg(dst, tmp)
	a.MovReg(tmp, dst).RshImm(tmp, 2).AndImm(tmp, m2).AndImm(dst, m2).AddReg(dst, tmp)
	a.MovReg(tmp, dst).RshImm(tmp, 4).AddReg(dst, tmp).AndImm(dst, m4)
	a.MulImm(dst, h1).RshImm(dst, 56)
}

// emitFindNth appends pos = FindNthNonZeroBit(v, rank), the rank-select walk
// from 32-bit halves down to single bits. rank (1-based) is consumed; v is
// preserved; t and tmp are scratch. All branches are forward. The caller
// guarantees 1 ≤ rank ≤ popcount(v).
func emitFindNth(a *ebpf.Assembler, v, rank, pos, t, tmp ebpf.Reg, labelPrefix string) {
	a.MovImm(pos, 0)
	for _, w := range []uint64{32, 16, 8, 4, 2} {
		lbl := labelPrefix + "_w" + strconv.Itoa(int(w))
		a.MovReg(t, v).RshReg(t, pos).AndImm(t, (1<<w)-1)
		emitPopCount(a, t, tmp)
		a.JleReg(rank, t, lbl) // rank <= popcount(low half): stay
		a.AddImm(pos, w)
		a.SubReg(rank, t)
		a.Label(lbl)
	}
	lbl := labelPrefix + "_w1"
	a.MovReg(t, v).RshReg(t, pos).AndImm(t, 1)
	a.JleReg(rank, t, lbl)
	a.AddImm(pos, 1)
	a.Label(lbl)
}

// hashMixConst decorrelates the two levels of multi-group dispatch (odd, so the
// map hash → hash*K mod 2^32 is a bijection: no collisions introduced).
// reciprocal_scale consumes the TOP bits of its input, so reusing the raw
// 4-tuple hash for both the group pick and the in-group rank makes the rank
// a near-deterministic function of the group: within group g, only ranks
// mapping back to [g/G, (g+1)/G) of the hash space are reachable, i.e. only
// ~span/G of each group's workers ever receive traffic. At 256 workers
// (4 groups of 64) that leaves 3 of every 4 workers idle and pushes the
// load-imbalance metric to √3 ≈ 1.73 — the regression the scale sweep
// caught. Multiplying the rank hash by the golden-ratio constant first
// (Fibonacci hashing) makes the level-2 input's top bits independent of the
// level-1 decision.
const hashMixConst = 0x9E3779B1

// mix32 is the native twin of the MulImm the multi-group program applies to
// the rank hash.
func mix32(h uint32) uint32 { return uint32(uint64(h) * hashMixConst) }

// emitGroupDispatch appends the single-group body of Algorithm 2 against the
// given map slots: load the selection bitmap, count candidates, bail to
// fallLabel if fewer than minWorkers, otherwise scale the 4-tuple hash to a
// rank, select that worker's socket and exit 0. labelPrefix uniquifies
// labels when several group bodies share one program. mixHash decorrelates
// the rank hash from the level-1 group pick (see hashMixConst) and must be
// set iff the body is part of a two-level program.
func emitGroupDispatch(a *ebpf.Assembler, selSlot, sockSlot uint64, minWorkers int, fallLabel, labelPrefix string, mixHash bool) {
	// R6 = C = M_sel[0]
	a.LdMap(ebpf.R1, selSlot)
	a.MovImm(ebpf.R2, 0)
	a.Call(ebpf.HelperMapLookupElem)
	a.MovReg(ebpf.R6, ebpf.R0)

	// R7 = n = CountNonZeroBits(C)
	a.MovReg(ebpf.R7, ebpf.R6)
	emitPopCount(a, ebpf.R7, ebpf.R3)
	a.JltImm(ebpf.R7, uint64(minWorkers), fallLabel)

	// R8 = reciprocal_scale(hash, n) + 1   (1-based rank)
	a.Call(ebpf.HelperGetHash)
	a.MovReg(ebpf.R1, ebpf.R0)
	if mixHash {
		a.MulImm(ebpf.R1, hashMixConst)
	}
	a.MovReg(ebpf.R2, ebpf.R7)
	a.Call(ebpf.HelperReciprocalScale)
	a.MovReg(ebpf.R8, ebpf.R0)
	a.AddImm(ebpf.R8, 1)

	// R9 = FindNthNonZeroBit(C, rank)
	emitFindNth(a, ebpf.R6, ebpf.R8, ebpf.R9, ebpf.R4, ebpf.R5, labelPrefix+"_sel")

	// bpf_sk_select_reuseport(M_socket, ID)
	a.LdMap(ebpf.R1, sockSlot)
	a.MovReg(ebpf.R2, ebpf.R9)
	a.Call(ebpf.HelperSkSelectReuseport)
	a.JneImm(ebpf.R0, 0, fallLabel)
	a.MovImm(ebpf.R0, 0)
	a.Exit()
}

// GroupMaps holds one worker group's kernel-visible state: its selection map
// (one uint64 bitmap at key 0) and sockarray (slot i → socket of the group's
// worker i).
type GroupMaps struct {
	Sel   *ebpf.ArrayMap
	Socks *ebpf.SockArray
}

// GroupKey selects which hash drives level-1 group selection when there is
// more than one group.
type GroupKey uint8

// Level-1 keys.
const (
	// GroupByTupleHash spreads connections across groups by 4-tuple hash —
	// the >64-worker scaling mode (§7).
	GroupByTupleHash GroupKey = iota
	// GroupByLocalityHash pins same-destination connections to one group —
	// the cache-locality mode (Fig. A6).
	GroupByLocalityHash
)

// BuildDispatchProgram assembles and verifies the Algorithm 2 program over
// the given groups. Returning 0 selects the socket in the run context;
// returning 1 asks the kernel to fall back to reuseport hashing.
//
// The program specialises on the group count. One group is the paper's
// Algorithm 2 as written: bitmap dispatch ranked by the raw 4-tuple hash.
// Several groups prepend level 1 — hash (by key) to a group through a forward
// branch chain — and rank within the group by the decorrelated hash (see
// hashMixConst). Program size grows linearly with the group count; the
// verifier's instruction budget admits 30+ groups (≈2000 workers), far
// beyond the paper's deployment sizes.
func BuildDispatchProgram(groups []GroupMaps, minWorkers int, key GroupKey) (*ebpf.Program, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: no groups")
	}
	if minWorkers < 1 {
		return nil, fmt.Errorf("core: minWorkers must be ≥ 1, got %d", minWorkers)
	}
	a := ebpf.NewAssembler()
	type slots struct{ sel, sock uint64 }
	ss := make([]slots, len(groups))
	for i, g := range groups {
		ss[i] = slots{sel: a.AddMap(g.Sel), sock: a.AddMap(g.Socks)}
	}
	twoLevel := len(groups) > 1

	if twoLevel {
		// R9 = group = reciprocal_scale(level1hash, nGroups)
		switch key {
		case GroupByLocalityHash:
			a.Call(ebpf.HelperGetLocalityHash)
		default:
			a.Call(ebpf.HelperGetHash)
		}
		a.MovReg(ebpf.R1, ebpf.R0)
		a.MovImm(ebpf.R2, uint64(len(groups)))
		a.Call(ebpf.HelperReciprocalScale)
		a.MovReg(ebpf.R9, ebpf.R0)

		// Branch chain to the matching group body.
		for i := range groups {
			a.JeqImm(ebpf.R9, uint64(i), "grp"+strconv.Itoa(i))
		}
		a.Ja("fallback")
	}
	for i, s := range ss {
		if twoLevel {
			a.Label("grp" + strconv.Itoa(i))
		}
		emitGroupDispatch(a, s.sel, s.sock, minWorkers, "fallback", "g"+strconv.Itoa(i), twoLevel)
	}
	a.Label("fallback")
	a.MovImm(ebpf.R0, 1)
	a.Exit()
	return a.Assemble()
}

// NativeSelect is the Go-native twin of one group body of the dispatch
// program: given the group's current bitmap and the rank hash it returns the
// selected slot, or ok=false to request reuseport-hash fallback. Behaviour is
// bit-identical to the bytecode (property-tested); Table 5 and the benchmark
// rungs time it as the JIT's yardstick.
func NativeSelect(bitmap uint64, hash uint32, minWorkers int) (worker int, ok bool) {
	n := bitops.PopCount64(bitmap)
	if n < minWorkers {
		return 0, false
	}
	rank := int(bitops.ReciprocalScale(hash, uint32(n))) + 1
	idx := bitops.FindNthSetBit(bitmap, rank)
	if idx < 0 {
		return 0, false
	}
	return idx, true
}

// selectWorker is the whole dispatch program's native twin: the global worker a
// connection's hashes steer to, or ok=false for reuseport-hash fallback. Like
// BuildDispatchProgram, it specialises on the group count.
func (c *Controller) selectWorker(hash, localityHash uint32, minWorkers int) (worker int, ok bool) {
	gi := 0
	if len(c.groups) > 1 {
		l1 := hash
		if c.key == GroupByLocalityHash {
			l1 = localityHash
		}
		gi = int(bitops.ReciprocalScale(l1, uint32(len(c.groups))))
		hash = mix32(hash)
	}
	bitmap, _ := c.groups[gi].sel.Lookup(0)
	slot, ok := NativeSelect(bitmap, hash, minWorkers)
	if !ok {
		return 0, false
	}
	return gi*c.span + slot, true
}
