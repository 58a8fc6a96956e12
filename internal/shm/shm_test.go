package shm

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRegionBasics(t *testing.T) {
	r := NewRegion(4)
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	r.Store(2, 99)
	if got := r.Load(2); got != 99 {
		t.Fatalf("Load(2) = %d, want 99", got)
	}
	r.Add(2, -100)
	if got := r.LoadInt64(2); got != -1 {
		t.Fatalf("LoadInt64 after negative Add = %d, want -1", got)
	}
	r.StoreInt64(3, -7)
	if got := r.LoadInt64(3); got != -7 {
		t.Fatalf("StoreInt64/LoadInt64 round trip = %d, want -7", got)
	}
}

func TestRegionNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRegion(-1) did not panic")
		}
	}()
	NewRegion(-1)
}

func TestWSTWriteRead(t *testing.T) {
	w := NewWST(4)
	wr := w.Writer(2)
	wr.SetLoopEnter(12345)
	wr.AddBusy(7)
	wr.AddBusy(-2)
	wr.AddConn(3)

	snap := w.Snapshot(nil)
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	got := snap[2]
	if got.LoopEnterNS != 12345 || got.Busy != 5 || got.Conn != 3 {
		t.Fatalf("worker 2 metrics = %+v", got)
	}
	for i, m := range snap {
		if i != 2 && (m.LoopEnterNS != 0 || m.Busy != 0 || m.Conn != 0) {
			t.Fatalf("worker %d slot polluted: %+v", i, m)
		}
	}
	if self := wr.Read(); self != got {
		t.Fatalf("Writer.Read %+v != snapshot %+v", self, got)
	}
}

// A slot holds the paper's three live words (Fig. 9 lines 12/14/18) and
// nothing else: a write nobody reads would show up as a fourth.
func TestWriterTouchesOnlyThreeWords(t *testing.T) {
	w := NewWST(4)
	wr := w.Writer(2)
	wr.SetLoopEnter(12345)
	wr.AddBusy(7)
	wr.AddConn(3)
	for i := 0; i < w.region.Len(); i++ {
		word, live := i-2*slotWords, false
		if word >= 0 && word < slotWords {
			live = word <= offConn
		}
		if got := w.region.Load(i) != 0; got != live {
			t.Errorf("region word %d (slot word %d): non-zero = %v, want %v", i, word, got, live)
		}
	}
}

func TestWSTBoundsPanic(t *testing.T) {
	w := NewWST(2)
	for _, id := range []int{-1, 2, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Writer(%d) did not panic", id)
				}
			}()
			w.Writer(id)
		}()
	}
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWST(%d) did not panic", n)
				}
			}()
			NewWST(n)
		}()
	}
}

// Concurrent writers on distinct slots plus a concurrent snapshot reader:
// exercises the lock-free discipline under the race detector, and checks
// that per-slot sums are exact once writers finish (no lost updates).
func TestWSTConcurrentWritersAndReader(t *testing.T) {
	const workers = 16
	const updates = 2000
	w := NewWST(workers)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // scheduler-like reader
		defer wg.Done()
		buf := make([]Metrics, 0, workers)
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = w.Snapshot(buf[:0])
			for _, m := range buf {
				// busy may be transiently anything, but conn never goes
				// negative in this write pattern (conn only incremented).
				if m.Conn < 0 {
					t.Error("negative conn observed")
					return
				}
			}
		}
	}()

	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wr := w.Writer(id)
			for i := 0; i < updates; i++ {
				wr.SetLoopEnter(int64(i))
				wr.AddBusy(2)
				wr.AddBusy(-2)
				wr.AddConn(1)
			}
		}(id)
	}
	// Wait for writers (all but the reader goroutine).
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Let writers finish first: writers are wg-tracked along with reader, so
	// signal reader stop after a full pass of expected final state.
	for id := 0; id < workers; id++ {
		// Spin until this worker's conn reaches the target.
		wr := w.Writer(id)
		for wr.Read().Conn != updates {
			select {
			case <-done:
				t.Fatalf("worker %d conn = %d, want %d", id, wr.Read().Conn, updates)
			default:
			}
		}
	}
	close(stop)
	<-done

	snap := w.Snapshot(nil)
	for id, m := range snap {
		if m.Busy != 0 {
			t.Errorf("worker %d busy = %d, want 0", id, m.Busy)
		}
		if m.Conn != updates {
			t.Errorf("worker %d conn = %d, want %d", id, m.Conn, updates)
		}
		if m.LoopEnterNS != updates-1 {
			t.Errorf("worker %d loopEnter = %d, want %d", id, m.LoopEnterNS, updates-1)
		}
	}
}

func TestLockedWSTMatchesLockFree(t *testing.T) {
	// Property: an identical op sequence applied to both implementations
	// yields identical snapshots.
	type op struct {
		Worker uint8
		Kind   uint8
		Val    int16
	}
	f := func(ops []op) bool {
		const n = 8
		lf := NewWST(n)
		lk := NewLockedWST(n)
		for _, o := range ops {
			id := int(o.Worker) % n
			switch o.Kind % 3 {
			case 0:
				lf.Writer(id).SetLoopEnter(int64(o.Val))
				lk.SetLoopEnter(id, int64(o.Val))
			case 1:
				lf.Writer(id).AddBusy(int64(o.Val))
				lk.AddBusy(id, int64(o.Val))
			case 2:
				lf.Writer(id).AddConn(int64(o.Val))
				lk.AddConn(id, int64(o.Val))
			}
		}
		a := lf.Snapshot(nil)
		b := lk.Snapshot(nil)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWSTWriterUpdate(b *testing.B) {
	w := NewWST(32)
	wr := w.Writer(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wr.SetLoopEnter(int64(i))
		wr.AddBusy(1)
		wr.AddBusy(-1)
	}
}

func BenchmarkWSTSnapshot32(b *testing.B) {
	w := NewWST(32)
	buf := make([]Metrics, 0, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = w.Snapshot(buf[:0])
	}
	_ = buf
}

// Ablation: lock-free vs mutex under write contention (§5.3.1).
func BenchmarkWSTLockFreeVsMutex(b *testing.B) {
	b.Run("lockfree", func(b *testing.B) {
		w := NewWST(32)
		b.RunParallel(func(pb *testing.PB) {
			wr := w.Writer(0) // same-slot worst case is not representative;
			// per-goroutine slots model per-process partitions.
			i := 0
			for pb.Next() {
				wr.AddBusy(1)
				i++
			}
		})
	})
	b.Run("mutex", func(b *testing.B) {
		w := NewLockedWST(32)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				w.AddBusy(0, 1)
			}
		})
	})
}
