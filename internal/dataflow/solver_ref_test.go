package dataflow

// SolveReference is the dense round-robin schedule the solver used before
// the worklist rewrite: sweep all blocks in index order until a full pass
// changes nothing. It computes the identical fixed point and is the
// oracle the differential tests hold Solve against (and the simplest
// statement of the algorithm). Exported for the external randprog CFG
// differential test in this directory.
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
