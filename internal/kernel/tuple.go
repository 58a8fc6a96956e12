// Package kernel simulates the slice of the Linux networking stack that
// Hermes's dispatch decisions flow through: listening sockets with bounded
// accept queues, connection sockets, epoll instances, socket wait queues
// with the exclusive-wakeup disciplines (thundering herd, EPOLLEXCLUSIVE's
// LIFO walk, the unmerged round-robin patch), and SO_REUSEPORT groups whose
// socket selection can be overridden by an attached (simulated) eBPF program
// — the SO_ATTACH_REUSEPORT_EBPF hook of §5.4.
//
// The simulation is event-driven on a sim.Engine virtual clock and is fully
// deterministic. It models control flow (which worker learns about which
// connection, when) rather than byte flow: payloads are opaque values whose
// processing cost the application layer (internal/l7lb) accounts for.
package kernel

import "encoding/binary"

// FourTuple identifies a TCP connection. DstPort is the tenant port the L4
// LB rewrote the connection to (Fig. 1: P1, P2, ...).
type FourTuple struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
}

// Hash returns the connection hash the kernel precomputes for reuseport
// selection (and that reuseport eBPF programs consume). FNV-1a over the
// tuple bytes plays the role of the kernel's jhash: any well-mixed hash
// reproduces both reuseport's balance and its heavy-hitter collisions. The
// real proxy hashes its accepted connections with it too, an IPv6 address
// folded into its 32-bit field as the XOR of the address's four words.
func (t FourTuple) Hash() uint32 {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:], t.SrcIP)
	binary.BigEndian.PutUint32(b[4:], t.DstIP)
	binary.BigEndian.PutUint16(b[8:], t.SrcPort)
	binary.BigEndian.PutUint16(b[10:], t.DstPort)

	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime32
	}
	// Final avalanche (murmur3 fmix32): FNV alone leaves structure in the
	// low bits for sequential tuples, which would distort modulo- and
	// reciprocal-scale-based steering.
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// LocalityHash hashes only the destination (DIP, Dport): connections to the
// same backend destination share it, which is what the cache-locality group
// mode keys level-1 group selection on (Fig. A6).
func (t FourTuple) LocalityHash() uint32 {
	h := t.DstIP*2654435761 ^ uint32(t.DstPort)*0x9e3779b9
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
