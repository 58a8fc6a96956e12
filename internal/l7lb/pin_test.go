package l7lb

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/sim"
)

// TestHermesCellPinned pins what a cell of the sim-churn shape does, to the
// event: which worker accepted how many connections, and how many engine
// events it took. The hermes figures were recorded at the commit before the
// event queue became ring + two heaps and wake-frame coalescing was deleted,
// the reuseport row at the commit before workers took a concrete
// *core.WorkerHook and pooled payloads; a change to the queue, the wake path or
// the worker loop that moves any of them has changed the simulation, not just
// its speed. The native rows re-attach the dispatch program's native twin to
// every group and must land on the bytecode rows' pins: the compiled program
// and its spec make the same decisions for a whole cell.
func TestHermesCellPinned(t *testing.T) {
	const conns = 20_000
	for _, pin := range []struct {
		mode     Mode
		workers  int
		native   bool
		executed uint64
		accepted uint64 // FNV-1a over the per-worker accept counts, "n," each
	}{
		{ModeHermes, 64, false, 189706, 0x41575e409cd33763},
		{ModeHermes, 64, true, 189706, 0x41575e409cd33763},
		{ModeHermes, 256, false, 344212, 0x194d505fe5bce454},
		{ModeHermes, 256, true, 344212, 0x194d505fe5bce454},
		{ModeReuseport, 64, false, 189942, 0x640dbe3beb041d06},
	} {
		eng := sim.NewEngine(1)
		cfg := DefaultConfig(pin.mode)
		cfg.Workers = pin.workers
		cfg.Ports = []uint16{8080}
		cfg.ConnsPerWorkerHint = conns/pin.workers + 1
		lb, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pin.native {
			for _, g := range lb.Groups() {
				if err := lb.Ctl.AttachNative(g); err != nil {
					t.Fatal(err)
				}
			}
		}
		lb.Start()
		i := 0
		var arrive func()
		arrive = func() {
			tuple := kernel.FourTuple{
				SrcIP:   uint32(i)*0x9E3779B1 + 1,
				SrcPort: uint16(1024 + i%60000),
				DstIP:   0x0a00_0001,
				DstPort: 8080,
			}
			if conn, ok := lb.NS.DeliverSYN(tuple, nil); ok {
				lb.NS.DeliverData(conn, Work{ArrivalNS: eng.Now(), Cost: time.Microsecond, Close: true, Tenant: 8080})
			}
			i++
			if i < conns {
				eng.At(int64(i)*1000, arrive)
			}
		}
		eng.At(0, arrive)
		eng.RunUntil(conns*1000 + int64(2*time.Second))

		if lb.Completed != conns {
			t.Errorf("%v, %d workers, native %v: completed %d of %d connections", pin.mode, pin.workers, pin.native, lb.Completed, conns)
		}
		if eng.Executed != pin.executed {
			t.Errorf("%v, %d workers, native %v: Executed = %d, pinned %d", pin.mode, pin.workers, pin.native, eng.Executed, pin.executed)
		}
		h := fnv.New64a()
		accepted := make([]uint64, len(lb.Workers))
		for wi, w := range lb.Workers {
			accepted[wi] = w.Accepted
			fmt.Fprintf(h, "%d,", w.Accepted)
		}
		if h.Sum64() != pin.accepted {
			t.Errorf("%v, %d workers, native %v: accept vector hashes to %#x, pinned %#x: %v", pin.mode, pin.workers, pin.native, h.Sum64(), pin.accepted, accepted)
		}
	}
}
