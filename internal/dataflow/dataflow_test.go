package dataflow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// ---------------------------------------------------------------- bitsets

// randomSet builds a bitset of n bits from a seed (deterministic).
func randomSet(n int, seed int64) *BitSet {
	r := rand.New(rand.NewSource(seed))
	s := NewBitSet(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s.Set(i)
		}
	}
	return s
}

func TestBitSetBasics(t *testing.T) {
	s := NewBitSet(130) // spans three words
	if !s.Empty() {
		t.Error("new set not empty")
	}
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if s.Count() != 3 {
		t.Errorf("count = %d", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.Has(i) {
			t.Errorf("missing bit %d", i)
		}
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 2 {
		t.Error("clear failed")
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Errorf("ForEach = %v", got)
	}
}

func TestBitSetSetAllTrim(t *testing.T) {
	s := NewBitSet(70)
	s.SetAll()
	if s.Count() != 70 {
		t.Errorf("SetAll count = %d, want 70", s.Count())
	}
}

// Property: union is commutative on membership.
func TestQuickUnionCommutative(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		const n = 200
		a1, b1 := randomSet(n, seedA), randomSet(n, seedB)
		a2, b2 := randomSet(n, seedA), randomSet(n, seedB)
		a1.Union(b1)
		b2.Union(a2)
		return a1.Equal(b2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: A ∖ B, A ∩ B, and A ∪ B have the expected per-bit semantics.
func TestQuickSetOpsSemantics(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		const n = 150
		a := randomSet(n, seedA)
		b := randomSet(n, seedB)
		u := a.Copy()
		u.Union(b)
		i := a.Copy()
		i.Intersect(b)
		d := a.Copy()
		d.Subtract(b)
		for k := 0; k < n; k++ {
			if u.Has(k) != (a.Has(k) || b.Has(k)) {
				return false
			}
			if i.Has(k) != (a.Has(k) && b.Has(k)) {
				return false
			}
			if d.Has(k) != (a.Has(k) && !b.Has(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the "changed" return value is accurate.
func TestQuickUnionChanged(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		const n = 100
		a := randomSet(n, seedA)
		b := randomSet(n, seedB)
		before := a.Copy()
		changed := a.Union(b)
		return changed == !a.Equal(before)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------- graphs

// randomGraph builds a connected digraph with n nodes rooted at 0.
func randomGraph(n int, seed int64) Graph {
	r := rand.New(rand.NewSource(seed))
	g := Graph{N: n, Succs: make([][]int, n), Preds: make([][]int, n)}
	addEdge := func(a, b int) {
		g.Succs[a] = append(g.Succs[a], b)
		g.Preds[b] = append(g.Preds[b], a)
	}
	// spanning structure: every node i>0 reachable from some j<i
	for i := 1; i < n; i++ {
		addEdge(r.Intn(i), i)
	}
	// extra random edges (including back edges)
	for k := 0; k < n; k++ {
		addEdge(r.Intn(n), r.Intn(n))
	}
	return g
}

// Property: the entry dominates every reachable node, and the idom of a
// node dominates it.
func TestQuickDominatorProperties(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(12, seed)
		dom := Dominators(g, 0)
		// reachability
		reach := make([]bool, g.N)
		var walk func(int)
		walk = func(b int) {
			if reach[b] {
				return
			}
			reach[b] = true
			for _, s := range g.Succs[b] {
				walk(s)
			}
		}
		walk(0)
		for b := 0; b < g.N; b++ {
			if !reach[b] {
				continue
			}
			if !dom.Dominates(0, b) {
				return false
			}
			if b != 0 {
				id := dom.IDom[b]
				if id < 0 || !dom.Dominates(id, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Brute-force dominance for cross-checking: a dominates b iff removing a
// makes b unreachable.
func bruteDominates(g Graph, a, b int) bool {
	if a == b {
		return true
	}
	seen := make([]bool, g.N)
	var walk func(int)
	walk = func(x int) {
		if x == a || seen[x] {
			return
		}
		seen[x] = true
		for _, s := range g.Succs[x] {
			walk(s)
		}
	}
	walk(0)
	return !seen[b]
}

// Property: Dominates agrees with the brute-force definition on reachable
// node pairs.
func TestQuickDominatorsVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(9, seed)
		dom := Dominators(g, 0)
		reach := make([]bool, g.N)
		var walk func(int)
		walk = func(x int) {
			if reach[x] {
				return
			}
			reach[x] = true
			for _, s := range g.Succs[x] {
				walk(s)
			}
		}
		walk(0)
		for a := 0; a < g.N; a++ {
			for b := 0; b < g.N; b++ {
				if !reach[a] || !reach[b] {
					continue
				}
				if dom.Dominates(a, b) != bruteDominates(g, a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	// 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
	g := Graph{N: 4,
		Succs: [][]int{{1, 2}, {3}, {3}, {}},
		Preds: [][]int{{}, {0}, {0}, {1, 2}},
	}
	pd := PostDominators(g)
	if pd.IDom[0] != 3 {
		t.Errorf("idom-post of 0 = %d, want 3 (the join)", pd.IDom[0])
	}
	if pd.IDom[1] != 3 || pd.IDom[2] != 3 {
		t.Errorf("arms should be post-dominated by the join")
	}
	if pd.IDom[3] != -1 {
		t.Errorf("exit's post-idom should be virtual (-1), got %d", pd.IDom[3])
	}
}

func TestFindLoopsSimple(t *testing.T) {
	// 0 -> 1; 1 -> 2; 2 -> 1 (back edge); 1 -> 3
	g := Graph{N: 4,
		Succs: [][]int{{1}, {2, 3}, {1}, {}},
		Preds: [][]int{{}, {0, 2}, {1}, {1}},
	}
	loops, depth := FindLoops(g, 0)
	if len(loops) != 1 {
		t.Fatalf("found %d loops", len(loops))
	}
	l := loops[0]
	if l.Header != 1 || !l.Blocks[2] || l.Blocks[3] || l.Blocks[0] {
		t.Errorf("loop = header %d blocks %v", l.Header, l.Blocks)
	}
	if depth[1] != 1 || depth[2] != 1 || depth[0] != 0 || depth[3] != 0 {
		t.Errorf("depth = %v", depth)
	}
}

func TestFindLoopsNested(t *testing.T) {
	// outer: 1..4, inner: 2..3
	// 0->1; 1->2; 2->3; 3->2 (inner back); 3->4; 4->1 (outer back); 1->5
	g := Graph{N: 6,
		Succs: [][]int{{1}, {2, 5}, {3}, {2, 4}, {1}, {}},
		Preds: [][]int{{}, {0, 4}, {1, 3}, {2}, {3}, {1}},
	}
	loops, depth := FindLoops(g, 0)
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	if depth[2] != 2 || depth[3] != 2 {
		t.Errorf("inner blocks should have depth 2: %v", depth)
	}
	if depth[1] != 1 || depth[4] != 1 {
		t.Errorf("outer-only blocks should have depth 1: %v", depth)
	}
}

// ---------------------------------------------------------------- solver

// TestSolverReachingDefs solves a tiny forward-union problem by hand.
func TestSolverReachingDefs(t *testing.T) {
	// Blocks: 0 -> 1 -> 2; 1 -> 1 (self loop)
	g := Graph{N: 3,
		Succs: [][]int{{1}, {2, 1}, {}},
		Preds: [][]int{{}, {0, 1}, {1}},
	}
	// defs: bit0 gen'd in block0; bit1 gen'd in block1, kills bit0.
	gen := []*BitSet{NewBitSet(2), NewBitSet(2), NewBitSet(2)}
	kill := []*BitSet{NewBitSet(2), NewBitSet(2), NewBitSet(2)}
	gen[0].Set(0)
	gen[1].Set(1)
	kill[1].Set(0)
	res := (&Problem{Graph: g, Dir: Forward, Meet: Union, Bits: 2, Gen: gen, Kill: kill}).Solve()
	if !res.In[1].Has(0) {
		t.Error("def0 should reach block1 entry (first iteration)")
	}
	if !res.In[1].Has(1) {
		t.Error("def1 should reach block1 entry (around the loop)")
	}
	if res.Out[1].Has(0) {
		t.Error("def0 must be killed through block1")
	}
	if !res.In[2].Has(1) || res.In[2].Has(0) {
		t.Errorf("block2 in = %v", res.In[2])
	}
}

// TestSolverMustVsMay checks the meet operators differ on a diamond where
// only one arm generates a bit.
func TestSolverMustVsMay(t *testing.T) {
	g := Graph{N: 4,
		Succs: [][]int{{1, 2}, {3}, {3}, {}},
		Preds: [][]int{{}, {0}, {0}, {1, 2}},
	}
	gen := []*BitSet{NewBitSet(1), NewBitSet(1), NewBitSet(1), NewBitSet(1)}
	gen[1].Set(0) // only the left arm
	may := (&Problem{Graph: g, Dir: Forward, Meet: Union, Bits: 1, Gen: gen}).Solve()
	must := (&Problem{Graph: g, Dir: Forward, Meet: Intersect, Bits: 1, Gen: gen}).Solve()
	if !may.In[3].Has(0) {
		t.Error("may-analysis should see the bit at the join")
	}
	if must.In[3].Has(0) {
		t.Error("must-analysis must not see the bit at the join")
	}
}

// Property: for identical gen/kill, the must solution is always a subset
// of the may solution.
func TestQuickMustSubsetOfMay(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(8, seed)
		const bits = 6
		gen := make([]*BitSet, g.N)
		kill := make([]*BitSet, g.N)
		for i := 0; i < g.N; i++ {
			gen[i] = randomSet(bits, r.Int63())
			kill[i] = randomSet(bits, r.Int63())
			kill[i].Subtract(gen[i]) // disjoint gen/kill, as in practice
		}
		may := (&Problem{Graph: g, Dir: Forward, Meet: Union, Bits: bits, Gen: gen, Kill: kill}).Solve()
		must := (&Problem{Graph: g, Dir: Forward, Meet: Intersect, Bits: bits, Gen: gen, Kill: kill}).Solve()
		for b := 0; b < g.N; b++ {
			m := must.In[b].Copy()
			m.Subtract(may.In[b])
			// Unreachable blocks keep the full "top" set under Intersect;
			// exclude them by checking reachability.
			if !m.Empty() && reachable(g, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func reachable(g Graph, target int) bool {
	seen := make([]bool, g.N)
	var walk func(int)
	walk = func(x int) {
		if seen[x] {
			return
		}
		seen[x] = true
		for _, s := range g.Succs[x] {
			walk(s)
		}
	}
	walk(0)
	return seen[target]
}

// resultsEqual compares two solver results block by block.
func resultsEqual(a, b *Result) bool {
	if len(a.In) != len(b.In) {
		return false
	}
	for i := range a.In {
		if !a.In[i].Equal(b.In[i]) || !a.Out[i].Equal(b.Out[i]) {
			return false
		}
	}
	return true
}

// Property: the RPO worklist solver computes exactly the fixed point of
// the dense reference schedule, for every direction × meet combination,
// with and without a boundary value, on random (possibly irreducible,
// possibly partially unreachable) graphs.
func TestQuickSolverMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(10, seed)
		const bits = 130 // spans three words
		gen := make([]*BitSet, g.N)
		kill := make([]*BitSet, g.N)
		for i := 0; i < g.N; i++ {
			gen[i] = randomSet(bits, r.Int63())
			kill[i] = randomSet(bits, r.Int63())
			kill[i].Subtract(gen[i])
		}
		var boundaries []*BitSet
		boundaries = append(boundaries, nil, randomSet(bits, r.Int63()))
		for _, dir := range []Direction{Forward, Backward} {
			for _, meet := range []Meet{Union, Intersect} {
				for _, bd := range boundaries {
					p := &Problem{Graph: g, Dir: dir, Meet: meet, Bits: bits,
						Gen: gen, Kill: kill, Boundary: bd}
					if !resultsEqual(p.Solve(), p.SolveReference()) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestSolverUnreachableBlocks pins the contract for blocks no entry
// reaches: they still get their local (boundary-independent) solution,
// identically under both schedules.
func TestSolverUnreachableBlocks(t *testing.T) {
	// 0 -> 1; island 2 -> 3 unreachable from the entry.
	g := Graph{N: 4,
		Succs: [][]int{{1}, {}, {3}, {}},
		Preds: [][]int{{}, {0}, {}, {2}},
	}
	gen := []*BitSet{NewBitSet(2), NewBitSet(2), NewBitSet(2), NewBitSet(2)}
	gen[2].Set(1)
	p := &Problem{Graph: g, Dir: Forward, Meet: Union, Bits: 2, Gen: gen, Entries: []int{0}}
	got, want := p.Solve(), p.SolveReference()
	if !resultsEqual(got, want) {
		t.Fatalf("worklist and reference disagree on unreachable blocks")
	}
	if !got.In[3].Has(1) {
		t.Errorf("fact should flow within the unreachable island: in[3] = %v", got.In[3])
	}
}

// TestSolverBackwardLiveness solves a tiny backward problem.
func TestSolverBackwardLiveness(t *testing.T) {
	// 0 -> 1 -> 2. use of x (bit0) in block2; def (kill) in block1.
	g := Graph{N: 3,
		Succs: [][]int{{1}, {2}, {}},
		Preds: [][]int{{}, {0}, {1}},
	}
	use := []*BitSet{NewBitSet(1), NewBitSet(1), NewBitSet(1)}
	def := []*BitSet{NewBitSet(1), NewBitSet(1), NewBitSet(1)}
	use[2].Set(0)
	def[1].Set(0)
	res := (&Problem{Graph: g, Dir: Backward, Meet: Union, Bits: 1, Gen: use, Kill: def}).Solve()
	if !res.In[2].Has(0) {
		t.Error("x live into its use")
	}
	if !res.In[1].Has(0) == false && res.In[1].Has(0) {
		t.Error("x should not be live into block1 (defined there before any use)")
	}
	if res.In[0].Has(0) {
		t.Error("x dead above the def")
	}
}

// TestArenaReuse checks that an arena hands out empty sets of the right
// size, serves a request past its storage from the heap, and after Reset
// reuses its storage — grown to cover the whole previous cycle — for sets
// that again start empty.
func TestArenaReuse(t *testing.T) {
	var a Arena
	for cycle := 0; cycle < 3; cycle++ {
		sets := a.BitSets(3, 100)
		one := a.BitSet(70)
		for _, s := range append(sets, one) {
			if !s.Empty() {
				t.Fatalf("cycle %d: fresh set not empty: %v", cycle, s)
			}
		}
		if sets[0].Len() != 100 || one.Len() != 70 {
			t.Fatalf("cycle %d: sizes %d, %d", cycle, sets[0].Len(), one.Len())
		}
		for i, s := range sets {
			s.SetAll()
			if s.Count() != 100 {
				t.Fatalf("cycle %d: set %d holds %d bits after SetAll", cycle, i, s.Count())
			}
		}
		one.Set(69)
		if sets[2].Count() != 100 || one.Count() != 1 {
			t.Fatalf("cycle %d: sets share storage", cycle)
		}
		a.Reset()
	}
	if got := len(a.words.buf); got != 3*2+2 {
		t.Errorf("arena holds %d words after warm cycles, want %d", got, 3*2+2)
	}
	var nilArena *Arena
	if s := nilArena.BitSet(10); s.Len() != 10 || !s.Empty() {
		t.Error("nil arena must allocate empty sets from the heap")
	}
}
