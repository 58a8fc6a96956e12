package sim

// slabChunk is how many objects a Slab allocates at once: one make per 64
// objects, so a pool that grows to its peak concurrency mallocs 1/64 as often
// as one that grows an object at a time.
const slabChunk = 64

// Slab is a free list of *T that grows a chunk of objects at a time, the
// slab-cache shape the kernel gives its per-connection objects (sock, epoll
// item, skb). Get hands out the object Put back last, or else the next unused
// object of the current chunk, allocating a new chunk only when both are
// empty; an object comes back exactly as it was Put, so a pool keeps its
// generation stamps and backing arrays across incarnations, and a fresh object
// is the zero T. Live counts the objects handed out and not yet Put back, the
// number a conservation check compares with what holds them.
//
// The zero Slab is ready to use. Like the engine, a Slab is not safe for
// concurrent use.
type Slab[T any] struct {
	free  []*T // Put back, reused last-in first-out
	chunk []T  // the unused tail of the newest chunk
	live  int
}

// Get returns an object: the one Put back last, or a fresh zero T.
func (s *Slab[T]) Get() *T {
	s.live++
	if n := len(s.free) - 1; n >= 0 {
		p := s.free[n]
		s.free[n] = nil
		s.free = s.free[:n]
		return p
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]T, slabChunk)
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return p
}

// Put returns an object to the slab for a later Get. The caller must not use
// it afterwards, and must Put each object it got once.
func (s *Slab[T]) Put(p *T) {
	s.live--
	s.free = append(s.free, p)
}

// Live returns how many objects are out: got and not yet Put back.
func (s *Slab[T]) Live() int { return s.live }
