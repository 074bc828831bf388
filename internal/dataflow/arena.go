package dataflow

// Arena recycles the storage of short-lived bit sets. Sets it hands out
// stay valid until Reset; after Reset their storage is handed out again,
// so a caller resets only once every set it took is dead. Reset sizes the
// arena to what it handed out since the previous Reset, so a caller whose
// needs repeat allocates nothing once the arena is warm. A nil *Arena
// allocates from the heap.
type Arena struct {
	words slab[uint64]
	sets  slab[BitSet]
	ptrs  slab[*BitSet]
}

// BitSets returns count empty n-bit sets.
func (a *Arena) BitSets(count, n int) []*BitSet {
	if a == nil {
		return NewBitSets(count, n)
	}
	w := wordsFor(n)
	words := a.words.take(count * w)
	sets := a.sets.take(count)
	ptrs := a.ptrs.take(count)
	for i := range ptrs {
		sets[i] = BitSet{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
		ptrs[i] = &sets[i]
	}
	return ptrs
}

// BitSet returns one empty n-bit set.
func (a *Arena) BitSet(n int) *BitSet {
	if a == nil {
		return NewBitSet(n)
	}
	return a.BitSets(1, n)[0]
}

// Reset makes all storage handed out so far available again.
func (a *Arena) Reset() {
	a.words.reset()
	a.sets.reset()
	a.ptrs.reset()
}

// slab is one recycled buffer. take carves zeroed pieces off buf; a
// request past its end comes from the heap, and reset then grows buf to
// the total taken, so the next cycle fits.
type slab[T any] struct {
	buf       []T
	off, need int
}

func (s *slab[T]) take(k int) []T {
	s.need += k
	if s.off+k > len(s.buf) {
		return make([]T, k)
	}
	p := s.buf[s.off : s.off+k : s.off+k]
	s.off += k
	clear(p)
	return p
}

func (s *slab[T]) reset() {
	if s.need > len(s.buf) {
		s.buf = make([]T, s.need)
	}
	s.off, s.need = 0, 0
}
