// Package bitops provides the constant-time bit manipulation primitives that
// Hermes's kernel-side dispatch program relies on.
//
// The eBPF runtime (real or simulated; see internal/ebpf) forbids loops, so
// worker selection over a 64-bit availability bitmap must be expressed with
// branch-free bitwise arithmetic. The routines here follow the classic
// "Bit Twiddling Hacks" formulations cited by the paper (§5.4): population
// count via parallel summation and select-nth-set-bit via rank computation
// over partial sums. The same routines back the userspace scheduler, so both
// sides of the kernel/user boundary agree on bit numbering (bit 0 = worker 0).
package bitops

// PopCount64's masks and multiplier. They are exported because the eBPF
// popcount idiom (ebpf.Assembler.PopCount) emits them as immediates: one
// definition, so the bytecode and the userspace routine cannot drift.
const (
	M1 = 0x5555555555555555 // 01010101...
	M2 = 0x3333333333333333 // 00110011...
	M4 = 0x0f0f0f0f0f0f0f0f // 00001111...
	H1 = 0x0101010101010101 // byte sums multiplier
)

// PopCount64 returns the number of set bits in v (Hamming weight) using the
// branch-free parallel-sum formulation. It deliberately avoids math/bits so
// the identical arithmetic can be emitted as simulated eBPF bytecode.
func PopCount64(v uint64) int {
	v -= (v >> 1) & M1
	v = (v & M2) + ((v >> 2) & M2)
	v = (v + (v >> 4)) & M4
	return int((v * H1) >> 56)
}

// FindNthSetBit returns the zero-based position of the n-th set bit of v,
// where n is 1-based rank (n=1 selects the lowest set bit). It returns -1 if
// v has fewer than n set bits or n < 1.
//
// The implementation is the branch-reduced "select the bit position with the
// given rank" routine from Bit Twiddling Hacks: compute byte-wise partial
// popcount sums, then binary-search the rank through the sum tree using only
// comparisons that the eBPF verifier accepts (no data-dependent loops).
func FindNthSetBit(v uint64, n int) int {
	if n < 1 || n > 64 {
		return -1
	}
	r := uint64(n)
	if uint64(PopCount64(v)) < r {
		return -1
	}

	var s uint64 // bit position accumulator
	// Walk down from 32-bit halves to single bits. Each step compares the
	// popcount of the low half against the remaining rank.
	t := pop32(v)
	if r > t {
		s += 32
		r -= t
	}
	t = pop16(v >> s)
	if r > t {
		s += 16
		r -= t
	}
	t = pop8(v >> s)
	if r > t {
		s += 8
		r -= t
	}
	t = pop4(v >> s)
	if r > t {
		s += 4
		r -= t
	}
	t = pop2(v >> s)
	if r > t {
		s += 2
		r -= t
	}
	t = (v >> s) & 1
	if r > t {
		s++
	}
	return int(s)
}

func pop32(v uint64) uint64 { return uint64(PopCount64(v & 0xffffffff)) }
func pop16(v uint64) uint64 { return uint64(PopCount64(v & 0xffff)) }
func pop8(v uint64) uint64  { return uint64(PopCount64(v & 0xff)) }
func pop4(v uint64) uint64  { return uint64(PopCount64(v & 0xf)) }
func pop2(v uint64) uint64  { return uint64(PopCount64(v & 0x3)) }

// ReciprocalScale maps a 32-bit hash value uniformly onto [0, n) without a
// modulo, mirroring the kernel's reciprocal_scale() helper that Hermes's
// dispatch program calls (§5.4, Algorithm 2 line 5).
func ReciprocalScale(val uint32, n uint32) uint32 {
	return uint32((uint64(val) * uint64(n)) >> 32)
}

// Bitmap64 is a fixed 64-slot worker availability bitmap. Bit i set means
// worker i passed the userspace coarse-grained filter. The zero value is an
// empty bitmap.
type Bitmap64 uint64

// Set returns b with bit i set. Out-of-range i is ignored.
func (b Bitmap64) Set(i int) Bitmap64 {
	if i < 0 || i > 63 {
		return b
	}
	return b | 1<<uint(i)
}

// Clear returns b with bit i cleared. Out-of-range i is ignored.
func (b Bitmap64) Clear(i int) Bitmap64 {
	if i < 0 || i > 63 {
		return b
	}
	return b &^ (1 << uint(i))
}

// Has reports whether bit i is set.
func (b Bitmap64) Has(i int) bool {
	return i >= 0 && i <= 63 && b&(1<<uint(i)) != 0
}

// Count returns the number of set bits.
func (b Bitmap64) Count() int { return PopCount64(uint64(b)) }

// Nth returns the position of the n-th (1-based) set bit, or -1.
func (b Bitmap64) Nth(n int) int { return FindNthSetBit(uint64(b), n) }

// Bits returns the positions of all set bits in ascending order.
func (b Bitmap64) Bits() []int {
	out := make([]int, 0, b.Count())
	for i := 0; i < 64; i++ {
		if b.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// FromBits builds a bitmap from a set of bit positions.
func FromBits(bits ...int) Bitmap64 {
	var b Bitmap64
	for _, i := range bits {
		b = b.Set(i)
	}
	return b
}
