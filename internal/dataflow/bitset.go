// Package dataflow provides the bit-vector data-flow machinery used by both
// the optimizer and the debugger analyses: dense bit sets, an iterative
// worklist solver for forward/backward may/must problems, dominator and
// postdominator trees, and natural-loop detection.
//
// The solver visits blocks in reverse postorder of the direction the facts
// propagate — RPO of the CFG for forward problems, RPO of the reversed CFG
// (postorder) for backward problems — so that on reducible control flow
// each fact crosses every acyclic path in one sweep and only loops force
// re-visits. The worklist is an in-worklist bitmap over that fixed order:
// a block re-enters the list only when a block feeding its meet changed.
// Termination is the standard monotone-framework argument: gen/kill
// transfer functions and union/intersection meets are monotone on the
// finite powerset lattice of Problem.Bits bits, every in/out set moves in
// one direction only (up from ⊥ for may problems, down from ⊤ for must
// problems), and a block is re-queued only after an actual change — so at
// most Bits changes per set, giving O(Bits · N · E) bit-operations in the
// worst case and, in practice, loop-nesting-depth + 2 sweeps. Solve and
// the dense reference schedule SolveReference compute the same unique
// fixed point (chaotic iteration of a monotone system converges to the
// same limit regardless of a fair visit order), which the differential
// tests in dataflow_test.go and internal/randprog exercise.
//
// The debugger-side analyses of the paper (hoist reach, dead reach) are
// instances of the same framework — that is one of the paper's central
// arguments: "the data-flow analysis required to support the debugger is
// similar to the data-flow analysis performed for global optimization and
// in our compiler uses the same modules."
package dataflow

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitSet is a fixed-capacity dense bit set.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet makes an empty set with capacity for n bits.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, wordsFor(n)), n: n}
}

// NewBitSets makes count empty n-bit sets carved out of one allocation
// of words and one of set headers.
func NewBitSets(count, n int) []*BitSet {
	words := wordsFor(n)
	backing := make([]uint64, count*words)
	slab := make([]BitSet, count)
	sets := make([]*BitSet, count)
	for i := range sets {
		slab[i] = BitSet{words: backing[i*words : (i+1)*words : (i+1)*words], n: n}
		sets[i] = &slab[i]
	}
	return sets
}

// wordsFor returns the number of 64-bit words backing an n-bit set.
func wordsFor(n int) int { return (n + 63) / 64 }

// SizeBytes reports the resident size of the set (header + backing words),
// for memory-budget accounting.
func (b *BitSet) SizeBytes() int64 { return 32 + int64(len(b.words))*8 }

// Len returns the set's capacity in bits.
func (s *BitSet) Len() int { return s.n }

// Set sets bit i.
func (s *BitSet) Set(i int) { s.words[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (s *BitSet) Clear(i int) { s.words[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether bit i is set.
func (s *BitSet) Has(i int) bool { return s.words[i/64]&(1<<(uint(i)%64)) != 0 }

// SetAll sets every bit in [0, Len).
func (s *BitSet) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// ClearAll clears every bit.
func (s *BitSet) ClearAll() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// trim zeroes bits beyond n so that Equal and Count stay exact.
func (s *BitSet) trim() {
	if s.n%64 != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % 64)) - 1
	}
}

// Copy returns an independent copy of s.
func (s *BitSet) Copy() *BitSet {
	c := &BitSet{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with t (capacities must match).
func (s *BitSet) CopyFrom(t *BitSet) { copy(s.words, t.words) }

// Union adds all bits of t to s; reports whether s changed.
func (s *BitSet) Union(t *BitSet) bool {
	changed := false
	for i, w := range t.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			changed = true
			s.words[i] = nw
		}
	}
	return changed
}

// Intersect keeps only bits present in both; reports whether s changed.
func (s *BitSet) Intersect(t *BitSet) bool {
	changed := false
	for i, w := range t.words {
		nw := s.words[i] & w
		if nw != s.words[i] {
			changed = true
			s.words[i] = nw
		}
	}
	return changed
}

// Subtract removes bits of t from s; reports whether s changed.
func (s *BitSet) Subtract(t *BitSet) bool {
	changed := false
	for i, w := range t.words {
		nw := s.words[i] &^ w
		if nw != s.words[i] {
			changed = true
			s.words[i] = nw
		}
	}
	return changed
}

// Equal reports set equality.
func (s *BitSet) Equal(t *BitSet) bool {
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s *BitSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bits are set.
func (s *BitSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for every set bit, in increasing order.
func (s *BitSet) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*64 + b)
			w &= w - 1
		}
	}
}

func (s *BitSet) String() string {
	var parts []string
	s.ForEach(func(i int) { parts = append(parts, fmt.Sprint(i)) })
	return "{" + strings.Join(parts, ",") + "}"
}
