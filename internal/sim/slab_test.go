package sim

import "testing"

// A slab hands back what was Put last, unchanged, before any fresh object;
// fresh objects are zero; Live counts the objects out.
func TestSlabReuseOrderAndLive(t *testing.T) {
	type obj struct{ gen, v int }
	var s Slab[obj]
	a, b := s.Get(), s.Get()
	if a == b || *a != (obj{}) || *b != (obj{}) || s.Live() != 2 {
		t.Fatalf("two fresh gets: %p %+v, %p %+v, live %d", a, *a, b, *b, s.Live())
	}
	a.gen, b.gen = 1, 2
	s.Put(a)
	s.Put(b)
	if s.Live() != 0 {
		t.Fatalf("live %d after putting both back", s.Live())
	}
	if got := s.Get(); got != b || got.gen != 2 {
		t.Fatalf("first get after two puts returned %p %+v, want the last put, %p, unchanged", got, *got, b)
	}
	if got := s.Get(); got != a || got.gen != 1 {
		t.Fatalf("second get returned %p %+v, want %p", got, *got, a)
	}
	if c := s.Get(); c == a || c == b || *c != (obj{}) || s.Live() != 3 {
		t.Fatalf("get past the free list returned %p %+v, live %d: want a fresh zero object", c, *c, s.Live())
	}
}

// A slab mallocs once per chunk of objects, and a put-get cycle not at all.
func TestSlabAllocatesPerChunk(t *testing.T) {
	var s Slab[[4]int64]
	grow := testing.AllocsPerRun(1, func() {
		for i := 0; i < 4*slabChunk; i++ {
			s.Get()
		}
	})
	if grow != 4 {
		t.Errorf("%d gets from an empty slab: %v mallocs, want 4", 4*slabChunk, grow)
	}
	p := s.Get()
	s.Put(p) // the free list's first growth
	if n := testing.AllocsPerRun(100, func() { s.Put(s.Get()) }); n != 0 {
		t.Errorf("put-get cycle: %v mallocs, want 0", n)
	}
}
