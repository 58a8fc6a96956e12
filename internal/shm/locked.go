package shm

import "sync"

// LockedWST is the mutex-guarded alternative the paper rejects (§5.3.1
// argues for lock-free access). It implements the same operations behind a
// single RWMutex and exists for the lock-free-vs-locked ablation benchmark;
// it is not used on any Hermes fast path.
type LockedWST struct {
	mu    sync.RWMutex
	slots []Metrics
}

// NewLockedWST creates a mutex-guarded table for n workers.
func NewLockedWST(n int) *LockedWST {
	return &LockedWST{slots: make([]Metrics, n)}
}

// SetLoopEnter records the loop-entry timestamp for worker id.
func (t *LockedWST) SetLoopEnter(id int, ns int64) {
	t.mu.Lock()
	t.slots[id].LoopEnterNS = ns
	t.mu.Unlock()
}

// AddBusy adjusts worker id's pending-event count.
func (t *LockedWST) AddBusy(id int, delta int64) {
	t.mu.Lock()
	t.slots[id].Busy += delta
	t.mu.Unlock()
}

// AddConn adjusts worker id's connection count.
func (t *LockedWST) AddConn(id int, delta int64) {
	t.mu.Lock()
	t.slots[id].Conn += delta
	t.mu.Unlock()
}

// Snapshot copies all metrics under the read lock.
func (t *LockedWST) Snapshot(dst []Metrics) []Metrics {
	t.mu.RLock()
	dst = append(dst, t.slots...)
	t.mu.RUnlock()
	return dst
}
