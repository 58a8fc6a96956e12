// Package shm models the inter-process shared memory that Hermes workers use
// to publish runtime status and the scheduler uses to read it (§5.3.1).
//
// In production, Hermes maps a POSIX shared-memory segment into every worker
// process and accesses it with C++ atomic<int>. Go has no cross-process
// shared structs, so this package keeps the same contract at the memory
// level: a Region is a flat, offset-addressed array of 64-bit words, and
// every access goes through sync/atomic. Goroutines stand in for worker
// processes; nothing in the API would change if the words lived in a real
// mmap'd segment.
//
// The concurrency discipline mirrors the paper exactly:
//
//   - the region is partitioned by worker, so writers never contend;
//   - readers take no locks and tolerate cross-variable tears — only
//     per-variable atomicity is guaranteed (each metric is one word).
//
// The scheduler's output, the 64-bit selection bitmap, is not kept here: it
// is published through the kernel-facing eBPF selection map (§5.4).
package shm

import (
	"fmt"
	"sync/atomic"
)

// Region is a flat array of atomically accessed 64-bit words, standing in
// for a shared-memory segment. Word indices play the role of byte offsets;
// alignment is by construction.
type Region struct {
	words []uint64
}

// NewRegion allocates a zeroed region of n words.
func NewRegion(n int) *Region {
	if n < 0 {
		panic(fmt.Sprintf("shm: negative region size %d", n))
	}
	return &Region{words: make([]uint64, n)}
}

// Len returns the number of words in the region.
func (r *Region) Len() int { return len(r.words) }

// Load atomically reads word i.
func (r *Region) Load(i int) uint64 { return atomic.LoadUint64(&r.words[i]) }

// Store atomically writes word i.
func (r *Region) Store(i int, v uint64) { atomic.StoreUint64(&r.words[i], v) }

// Add atomically adds delta (two's complement for negatives) to word i and
// returns the new value.
func (r *Region) Add(i int, delta int64) uint64 {
	return atomic.AddUint64(&r.words[i], uint64(delta))
}

// LoadInt64 reads word i as a signed value.
func (r *Region) LoadInt64(i int) int64 { return int64(r.Load(i)) }

// StoreInt64 writes a signed value to word i.
func (r *Region) StoreInt64(i int, v int64) { r.Store(i, uint64(v)) }
