package dataflow_test

import (
	"math/rand"
	"testing"

	"repro/internal/compile"
	"repro/internal/dataflow"
	"repro/internal/mach"
	"repro/internal/randprog"
)

// graphOf exports a machine function's CFG as a solver graph.
func graphOf(f *mach.Func) dataflow.Graph {
	idx := map[*mach.Block]int{}
	for i, b := range f.Blocks {
		idx[b] = i
	}
	n := len(f.Blocks)
	g := dataflow.Graph{N: n, Succs: make([][]int, n), Preds: make([][]int, n)}
	for i, b := range f.Blocks {
		for _, s := range b.Succs {
			si := idx[s]
			g.Succs[i] = append(g.Succs[i], si)
			g.Preds[si] = append(g.Preds[si], i)
		}
	}
	return g
}

// TestSolverDifferentialOnRandomCFGs runs the solver differential on the
// graphs of generated programs: on the control-flow graphs of randomly generated,
// fully optimized programs — the exact graph shapes the classifier and
// the optimizer feed the solver — the RPO worklist schedule (Solve) must
// compute the identical fixed point as the dense reference schedule
// (SolveReference), for every direction × meet combination.
func TestSolverDifferentialOnRandomCFGs(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	cfgs := []compile.Config{compile.O2NoRegAlloc(), compile.O2()}
	for seed := int64(900); seed < int64(900+seeds); seed++ {
		src := randprog.Gen(seed)
		for ci, cfg := range cfgs {
			res, err := compile.Compile("rand.mc", src, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %d: %v", seed, ci, err)
			}
			r := rand.New(rand.NewSource(seed))
			for _, f := range res.Mach.Funcs {
				g := graphOf(f)
				const bits = 96
				gen := make([]*dataflow.BitSet, g.N)
				kill := make([]*dataflow.BitSet, g.N)
				for i := 0; i < g.N; i++ {
					gen[i] = dataflow.NewBitSet(bits)
					kill[i] = dataflow.NewBitSet(bits)
					for j := 0; j < bits; j++ {
						switch r.Intn(4) {
						case 0:
							gen[i].Set(j)
						case 1:
							kill[i].Set(j)
						}
					}
				}
				for _, dir := range []dataflow.Direction{dataflow.Forward, dataflow.Backward} {
					for _, meet := range []dataflow.Meet{dataflow.Union, dataflow.Intersect} {
						p := &dataflow.Problem{Graph: g, Dir: dir, Meet: meet,
							Bits: bits, Gen: gen, Kill: kill}
						got, want := p.Solve(), p.SolveReference()
						for b := 0; b < g.N; b++ {
							if !got.In[b].Equal(want.In[b]) || !got.Out[b].Equal(want.Out[b]) {
								t.Fatalf("seed %d cfg %d fn %s dir %d meet %d block %d: worklist %v/%v, reference %v/%v",
									seed, ci, f.Name, dir, meet, b,
									got.In[b], got.Out[b], want.In[b], want.Out[b])
							}
						}
					}
				}
			}
		}
	}
}
