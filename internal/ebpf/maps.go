package ebpf

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// MapType identifies the simulated map kinds Hermes uses.
type MapType uint8

// Supported map types (§5.4: BPF_MAP_TYPE_ARRAY for the selection bitmap,
// BPF_MAP_TYPE_REUSEPORT_SOCKARRAY for worker-to-socket mapping).
const (
	MapTypeArray MapType = iota
	MapTypeReuseportSockArray
)

func (t MapType) String() string {
	switch t {
	case MapTypeArray:
		return "BPF_MAP_TYPE_ARRAY"
	case MapTypeReuseportSockArray:
		return "BPF_MAP_TYPE_REUSEPORT_SOCKARRAY"
	default:
		return fmt.Sprintf("MapType(%d)", uint8(t))
	}
}

// Map is the common surface of simulated maps, enough for the verifier and
// the attach machinery to reason about them.
type Map interface {
	Type() MapType
	MaxEntries() int
}

// ArrayMap is a BPF_MAP_TYPE_ARRAY of 64-bit values. Element access is
// atomic per element, which is exactly the property Hermes relies on to
// share the selection bitmap between userspace and the kernel without locks
// (§5.4 "eBPF maps inherently support atomic<int>").
//
// Userspace writes via Update (modelling the bpf() syscall) and the VM reads
// via Lookup inside HelperMapLookupElem.
type ArrayMap struct {
	vals []uint64
	// SyscallCount counts userspace update/lookup operations, modelling the
	// syscall + context-switch cost accounted in Table 5.
	SyscallCount atomic.Uint64
	// FailedUpdates counts updates rejected by an injected sync failure.
	FailedUpdates atomic.Uint64

	obs *mapObs // nil until Observe

	// failUpdate, when set, makes Update fail (sync-failure fault): the
	// syscall is still charged but the store is dropped.
	failUpdate atomic.Value // holds func() bool
	// stampNow/maxAgeNS, when set, make kernel-side Lookup treat entries
	// older than maxAgeNS as absent (stale-bitmap fault): the program sees
	// an empty bitmap and declines, falling back to reuseport hashing.
	stampNow atomic.Value // holds func() int64
	maxAgeNS atomic.Int64
	lastUp   []atomic.Int64
}

// NewArrayMap creates an array map with maxEntries zeroed elements.
func NewArrayMap(maxEntries int) *ArrayMap {
	if maxEntries < 1 {
		panic(fmt.Sprintf("ebpf: array map needs ≥1 entries, got %d", maxEntries))
	}
	return &ArrayMap{
		vals:   make([]uint64, maxEntries),
		lastUp: make([]atomic.Int64, maxEntries),
	}
}

// SetFailUpdates installs a fault predicate evaluated on each Update; while
// it returns true, updates are charged but dropped with an error. Pass nil
// to clear.
func (m *ArrayMap) SetFailUpdates(fn func() bool) {
	if fn == nil {
		fn = func() bool { return false }
	}
	m.failUpdate.Store(fn)
}

// SetStaleness arms the stale-bitmap fault model: with a clock and a
// positive maxAge, kernel-side Lookups of an entry not successfully updated
// within maxAge return (0, true) — an empty bitmap — so selection programs
// decline and the kernel falls back to reuseport hashing. Entries count as
// freshly updated at arm time. Pass maxAge 0 to disarm.
func (m *ArrayMap) SetStaleness(now func() int64, maxAge int64) {
	if now != nil {
		at := now()
		for i := range m.lastUp {
			m.lastUp[i].Store(at)
		}
		m.stampNow.Store(now)
	}
	m.maxAgeNS.Store(maxAge)
}

// Type implements Map.
func (m *ArrayMap) Type() MapType { return MapTypeArray }

// MaxEntries implements Map.
func (m *ArrayMap) MaxEntries() int { return len(m.vals) }

// Lookup reads element key from kernel context (no syscall accounting).
func (m *ArrayMap) Lookup(key uint32) (uint64, bool) {
	if int(key) >= len(m.vals) {
		return 0, false
	}
	if o := m.obs; o != nil {
		o.lookups.Inc()
	}
	if maxAge := m.maxAgeNS.Load(); maxAge > 0 {
		if now, ok := m.stampNow.Load().(func() int64); ok {
			if now()-m.lastUp[key].Load() > maxAge {
				return 0, true
			}
		}
	}
	return atomic.LoadUint64(&m.vals[key]), true
}

// Update writes element key from userspace, modelling bpf(BPF_MAP_UPDATE_ELEM).
func (m *ArrayMap) Update(key uint32, val uint64) error {
	if int(key) >= len(m.vals) {
		return fmt.Errorf("ebpf: update key %d out of range [0,%d)", key, len(m.vals))
	}
	m.SyscallCount.Add(1)
	if fail, ok := m.failUpdate.Load().(func() bool); ok && fail() {
		// The syscall happened; the write did not take (injected EAGAIN).
		m.FailedUpdates.Add(1)
		return fmt.Errorf("ebpf: injected update failure for key %d", key)
	}
	atomic.StoreUint64(&m.vals[key], val)
	if now, ok := m.stampNow.Load().(func() int64); ok {
		m.lastUp[key].Store(now())
	}
	if o := m.obs; o != nil {
		o.updates.Inc()
		o.tr.Sync(bits.OnesCount64(val))
	}
	return nil
}

// UserLookup reads element key from userspace, modelling bpf(BPF_MAP_LOOKUP_ELEM).
func (m *ArrayMap) UserLookup(key uint32) (uint64, error) {
	if int(key) >= len(m.vals) {
		return 0, fmt.Errorf("ebpf: lookup key %d out of range [0,%d)", key, len(m.vals))
	}
	m.SyscallCount.Add(1)
	if o := m.obs; o != nil {
		o.lookups.Inc()
	}
	return atomic.LoadUint64(&m.vals[key]), nil
}

// SockRef is an opaque reference to a kernel socket registered in a
// SockArray. The kernel package supplies its socket type; the eBPF layer
// never inspects it.
type SockRef any

// SockArray is a BPF_MAP_TYPE_REUSEPORT_SOCKARRAY mapping worker IDs to
// listening sockets (M_socket in Algorithm 2). Slots are populated at Hermes
// initialization time as workers create their reuseport sockets.
type SockArray struct {
	refs []atomic.Value // each holds SockRef
	n    int
}

// NewSockArray creates a sockarray with maxEntries empty slots.
func NewSockArray(maxEntries int) *SockArray {
	if maxEntries < 1 {
		panic(fmt.Sprintf("ebpf: sockarray needs ≥1 entries, got %d", maxEntries))
	}
	return &SockArray{refs: make([]atomic.Value, maxEntries), n: maxEntries}
}

// Type implements Map.
func (m *SockArray) Type() MapType { return MapTypeReuseportSockArray }

// MaxEntries implements Map.
func (m *SockArray) MaxEntries() int { return m.n }

// Put registers sock at slot key.
func (m *SockArray) Put(key uint32, sock SockRef) error {
	if int(key) >= m.n {
		return fmt.Errorf("ebpf: sockarray key %d out of range [0,%d)", key, m.n)
	}
	if sock == nil {
		return fmt.Errorf("ebpf: nil socket for key %d", key)
	}
	m.refs[key].Store(sock)
	return nil
}

// Get returns the socket at slot key, or nil if the slot is empty or out of
// range.
func (m *SockArray) Get(key uint32) SockRef {
	if int(key) >= m.n {
		return nil
	}
	return m.refs[key].Load()
}
