package shm

import "fmt"

// Worker Status Table layout (§4.1 stage 1, §5.3.1).
//
// Each worker owns one cache-line-sized slot of slotWords words so that
// writers on different cores never share a line (false-sharing avoidance;
// the paper pads per-worker partitions the same way). The three published
// metrics are exactly the paper's: the timestamp of the last event-loop
// entry (hang detection), the pending-event count ("busy"), and the
// accumulated connection count ("conn").
const (
	offLoopEnter = 0 // virtual ns of last event-loop entry
	offBusy      = 1 // pending events: += epoll_wait batch, -- per handled event
	offConn      = 2 // accumulated connections: ++ accept, -- close
	slotWords    = 8 // one 64-byte cache line
)

// Metrics is a point-in-time copy of one worker's WST slot. Reads are
// lock-free: values may come from different instants (torn across variables
// but never within one), exactly the tolerance the paper argues is safe.
type Metrics struct {
	LoopEnterNS int64 // timestamp of last event-loop entry
	Busy        int64 // pending (delivered but unhandled) events
	Conn        int64 // live accumulated connections
}

// WST is the shared Worker Status Table: one padded slot per worker inside a
// Region. What the schedulers compute from it is published through the
// kernel-facing selection map (ebpf.ArrayMap), not here.
type WST struct {
	region  *Region
	workers int
}

// GroupSize is the maximum number of workers one selection bitmap can
// address: the paper synchronizes coarse-filter results through a single
// 64-bit atomic<int>, capping each group at 64 workers (§7 "Will the 64-bit
// atomic<int> limit...").
const GroupSize = 64

// NewWST creates a table for n workers, 1..GroupSize: one group. A larger
// fleet is several, each with its own WST (core.Controller).
func NewWST(n int) *WST {
	if n < 1 || n > GroupSize {
		panic(fmt.Sprintf("shm: worker count %d outside 1..%d (one group; core.Controller builds more)", n, GroupSize))
	}
	return &WST{region: NewRegion(n * slotWords), workers: n}
}

// Workers returns the number of worker slots.
func (t *WST) Workers() int { return t.workers }

func (t *WST) base(id int) int {
	if id < 0 || id >= t.workers {
		panic(fmt.Sprintf("shm: worker id %d out of range [0,%d)", id, t.workers))
	}
	return id * slotWords
}

// Writer returns the update handle a worker embeds in its event loop. Each
// worker must use only its own Writer; that partitioning is what makes the
// table lock-free on the write side.
func (t *WST) Writer(id int) Writer {
	return Writer{region: t.region, base: t.base(id)}
}

// Writer publishes one worker's metrics. The methods map one-to-one onto the
// instrumentation lines Hermes adds to the epoll event loop (Fig. 9):
// SetLoopEnter ↔ shm_avail_update, AddBusy ↔ shm_busy_count,
// AddConn ↔ shm_conn_count.
type Writer struct {
	region *Region
	base   int
}

// SetLoopEnter records the timestamp of entering the event loop.
func (w Writer) SetLoopEnter(ns int64) {
	w.region.StoreInt64(w.base+offLoopEnter, ns)
}

// AddBusy adjusts the pending-event count by delta.
func (w Writer) AddBusy(delta int64) {
	w.region.Add(w.base+offBusy, delta)
}

// AddConn adjusts the accumulated-connection count by delta.
func (w Writer) AddConn(delta int64) {
	w.region.Add(w.base+offConn, delta)
}

// Read returns this worker's own metrics (used by tests and diagnostics).
func (w Writer) Read() Metrics {
	return Metrics{
		LoopEnterNS: w.region.LoadInt64(w.base + offLoopEnter),
		Busy:        w.region.LoadInt64(w.base + offBusy),
		Conn:        w.region.LoadInt64(w.base + offConn),
	}
}

// Snapshot reads every worker's metrics without locks, appending into dst
// (reused across calls to stay allocation-free on the scheduling path) and
// returning the extended slice. Per-variable reads are atomic; the snapshot
// as a whole is not, by design (§5.3.1: "the most recently updated data
// better reflects the workers' runtime status").
func (t *WST) Snapshot(dst []Metrics) []Metrics {
	for id := 0; id < t.workers; id++ {
		base := id * slotWords
		dst = append(dst, Metrics{
			LoopEnterNS: t.region.LoadInt64(base + offLoopEnter),
			Busy:        t.region.LoadInt64(base + offBusy),
			Conn:        t.region.LoadInt64(base + offConn),
		})
	}
	return dst
}
