package dataflow

// Graph is the abstract CFG view the solver works on: blocks are numbered
// 0..N-1 with block 0 conventionally the entry (callers may pass any entry
// set). Both the IR CFG and the machine-code CFG implement it by exporting
// successor/predecessor index slices.
type Graph struct {
	N     int
	Succs [][]int
	Preds [][]int
}

// Direction of a data-flow problem.
type Direction int

// Problem directions.
const (
	Forward Direction = iota
	Backward
)

// Meet operator of a data-flow problem.
type Meet int

// Meet operators: Union computes a "may" (some-path) solution, Intersect a
// "must" (all-paths) solution.
const (
	Union Meet = iota
	Intersect
)

// Problem is a gen/kill bit-vector data-flow problem:
//
//	out[b] = gen[b] ∪ (in[b] − kill[b])       (forward)
//	in[b]  = meet over preds' out (forward)
//
// Boundary is the value at the entry (forward) or exits (backward).
type Problem struct {
	Graph     Graph
	Dir       Direction
	Meet      Meet
	Bits      int
	Gen, Kill []*BitSet // per block
	// Boundary is the in-set of the entry block (forward) or the out-set
	// of exit blocks (backward). nil means empty.
	Boundary *BitSet
	// Entries lists boundary blocks; for Forward it defaults to {0}, for
	// Backward it defaults to all blocks with no successors.
	Entries []int
	// Arena, when non-nil, supplies the solution's sets; they are valid
	// until the arena is Reset.
	Arena *Arena
}

// Result holds the fixed-point solution.
type Result struct {
	In, Out []*BitSet
}

// solverState is the shared setup of Solve and SolveReference: initial
// values, boundary seeding, and the direction-resolved views of the
// solution (flowIn is the set entering each block's transfer function,
// edgesIn the edges the meet reads — preds for Forward, succs for
// Backward).
type solverState struct {
	res             *Result
	boundary        *BitSet
	entries         []int
	isEntry         []bool
	flowIn, flowOut []*BitSet
	edgesIn         [][]int
	edgesOut        [][]int
}

func (p *Problem) setup() *solverState {
	n := p.Graph.N
	st := &solverState{}

	st.boundary = p.Boundary
	if st.boundary == nil {
		st.boundary = p.Arena.BitSet(p.Bits)
	}
	st.entries = p.Entries
	if st.entries == nil {
		if p.Dir == Forward {
			st.entries = []int{0}
		} else {
			for b := 0; b < n; b++ {
				if len(p.Graph.Succs[b]) == 0 {
					st.entries = append(st.entries, b)
				}
			}
		}
	}
	st.isEntry = make([]bool, n)
	for _, e := range st.entries {
		st.isEntry[e] = true
	}

	// Initial values: for Intersect problems, interior sets start full
	// (top); for Union they start empty (bottom). All 2n sets share one
	// backing array, allocated in a single shot.
	sets := p.Arena.BitSets(2*n, p.Bits)
	st.res = &Result{In: sets[:n:n], Out: sets[n:]}
	if p.Meet == Intersect {
		for _, s := range sets {
			s.SetAll()
		}
	}

	if p.Dir == Forward {
		st.flowIn, st.flowOut = st.res.In, st.res.Out
		st.edgesIn, st.edgesOut = p.Graph.Preds, p.Graph.Succs
	} else {
		st.flowIn, st.flowOut = st.res.Out, st.res.In
		st.edgesIn, st.edgesOut = p.Graph.Succs, p.Graph.Preds
	}

	// Seed boundary blocks.
	for _, e := range st.entries {
		st.flowIn[e].CopyFrom(st.boundary)
	}
	return st
}

// step applies block b's data-flow equations once, using tmp as scratch.
// It reports whether flowOut[b] changed (i.e. whether b's dependents need
// to be revisited).
func (p *Problem) step(st *solverState, b int, tmp *BitSet) bool {
	// Meet over incoming edges. Blocks without incoming edges keep their
	// seeded (entry) or initial (unreachable) value.
	if len(st.edgesIn[b]) > 0 {
		first := true
		for _, pb := range st.edgesIn[b] {
			if first {
				tmp.CopyFrom(st.flowOut[pb])
				first = false
			} else if p.Meet == Union {
				tmp.Union(st.flowOut[pb])
			} else {
				tmp.Intersect(st.flowOut[pb])
			}
		}
		if st.isEntry[b] {
			// A boundary block with incoming edges (e.g. a loop header
			// that is also the entry) still receives the boundary value.
			if p.Meet == Union {
				tmp.Union(st.boundary)
			} else {
				tmp.Intersect(st.boundary)
			}
		}
		if !tmp.Equal(st.flowIn[b]) {
			st.flowIn[b].CopyFrom(tmp)
		}
	}
	// Transfer: out = gen ∪ (in − kill).
	tmp.CopyFrom(st.flowIn[b])
	if p.Kill != nil && p.Kill[b] != nil {
		tmp.Subtract(p.Kill[b])
	}
	if p.Gen != nil && p.Gen[b] != nil {
		tmp.Union(p.Gen[b])
	}
	if !tmp.Equal(st.flowOut[b]) {
		st.flowOut[b].CopyFrom(tmp)
		return true
	}
	return false
}

// visitOrder returns the blocks in reverse postorder of the traversal
// graph the solver propagates along: successors for Forward problems
// (classic RPO), predecessors for Backward problems (postorder of the
// original CFG). Blocks unreachable from the entries are appended in
// index order so they still receive their (boundary-independent) local
// solution, exactly as the reference solver computes it.
func (p *Problem) visitOrder(st *solverState) []int {
	n := p.Graph.N
	order := make([]int, 0, n)
	seen := make([]bool, n)
	// Iterative DFS; frame = (block, next successor index).
	type frame struct{ b, i int }
	stack := make([]frame, 0, 16)
	for _, root := range st.entries {
		if seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack, frame{root, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(st.edgesOut[f.b]) {
				s := st.edgesOut[f.b][f.i]
				f.i++
				if !seen[s] {
					seen[s] = true
					stack = append(stack, frame{s, 0})
				}
				continue
			}
			order = append(order, f.b)
			stack = stack[:len(stack)-1]
		}
	}
	// order is postorder; reverse to get RPO.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for b := 0; b < n; b++ {
		if !seen[b] {
			order = append(order, b)
		}
	}
	return order
}

// Solve runs a worklist iteration to the fixed point, visiting blocks in
// reverse postorder of the propagation direction (RPO of the CFG for
// forward problems, RPO of the reversed CFG — i.e. postorder — for
// backward problems), so on a reducible CFG most facts propagate in a
// single sweep and the loop converges in O(loop-nesting depth) sweeps.
//
// The worklist is an in-worklist bitmap swept in that fixed order: a
// block is re-processed only if one of the blocks feeding its meet
// changed since the block was last visited. Termination: the transfer
// functions out = gen ∪ (in − kill) and the meets are monotone on the
// finite lattice of bit vectors, every set moves monotonically (upward
// for Union from ⊥, downward for Intersect from ⊤), and a block is
// re-queued only after an actual change, so the number of re-visits is
// bounded by Bits·N and the iteration reaches the same unique fixed
// point as the dense reference schedule (SolveReference).
func (p *Problem) Solve() *Result {
	st := p.setup()
	n := p.Graph.N
	order := p.visitOrder(st)

	inWork := make([]bool, n)
	for b := range inWork {
		inWork[b] = true
	}
	remaining := n
	tmp := p.Arena.BitSet(p.Bits)
	for remaining > 0 {
		for _, b := range order {
			if !inWork[b] {
				continue
			}
			inWork[b] = false
			remaining--
			if p.step(st, b, tmp) {
				for _, s := range st.edgesOut[b] {
					if !inWork[s] {
						inWork[s] = true
						remaining++
					}
				}
			}
		}
	}
	return st.res
}

// SolveReference is the dense round-robin schedule the solver used before
// the worklist rewrite: sweep all blocks in index order until a full pass
// changes nothing. It computes the identical fixed point and is retained
// as the oracle for differential tests (and as the simplest statement of
// the algorithm); use Solve everywhere else.
func (p *Problem) SolveReference() *Result {
	st := p.setup()
	n := p.Graph.N
	changed := true
	tmp := p.Arena.BitSet(p.Bits)
	for changed {
		changed = false
		for b := 0; b < n; b++ {
			if p.step(st, b, tmp) {
				changed = true
			}
		}
	}
	return st.res
}
