// Package opt implements mcc's global scalar optimizations — the passes of
// Table 1 of the paper — together with the §3 bookkeeping: inserted code is
// annotated Hoisted/Sunk, deleted source-level assignments leave marker
// pseudo-instructions, and expressions that replace fetches of source
// variables record the variable for recovery.
package opt

import (
	"sync"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// graphOf builds the dataflow.Graph view of a function. Block index =
// position in f.Blocks; an edge to a block outside f.Blocks reads as
// index 0.
func graphOf(f *ir.Func) (dataflow.Graph, blockPos) {
	n := len(f.Blocks)
	maxID, edges := -1, 0
	for _, b := range f.Blocks {
		maxID = max(maxID, b.ID)
		edges += len(b.Succs) + len(b.Preds)
	}
	pos := make(blockPos, maxID+1)
	for i, b := range f.Blocks {
		pos[b.ID] = int32(i + 1)
	}
	flat := make([]int, edges)
	fill := func(bs []*ir.Block) []int {
		out := flat[:len(bs):len(bs)]
		flat = flat[len(bs):]
		for j, x := range bs {
			out[j], _ = pos.of(x)
		}
		return out
	}
	adj := make([][]int, 2*n)
	g := dataflow.Graph{N: n, Succs: adj[:n:n], Preds: adj[n:]}
	for i, b := range f.Blocks {
		g.Succs[i] = fill(b.Succs)
		g.Preds[i] = fill(b.Preds)
	}
	return g, pos
}

// blockPos maps block IDs to 1 + the block's position in f.Blocks (0 for
// blocks outside it).
type blockPos []int32

// of returns b's position in f.Blocks, or 0 and false.
func (p blockPos) of(b *ir.Block) (int, bool) {
	if b.ID < len(p) && p[b.ID] > 0 {
		return int(p[b.ID]) - 1, true
	}
	return 0, false
}

// valueSpace maps Var and Temp operands to dense indices:
// vars (by Object.ID) occupy [0, numVars), temps [numVars, numVars+NumTemps).
type valueSpace struct {
	fn      *ir.Func
	numVars int
}

func spaceOf(f *ir.Func) valueSpace {
	return valueSpace{fn: f, numVars: len(f.Decl.Locals)}
}

func (s valueSpace) size() int { return s.numVars + s.fn.NumTemps }

// indexOf returns the dense index of a Var/Temp operand, or -1.
func (s valueSpace) indexOf(o ir.Operand) int {
	switch o.Kind {
	case ir.Var:
		return o.Obj.ID
	case ir.Temp:
		return s.numVars + o.TID
	}
	return -1
}

// isVarIndex reports whether a dense index denotes a source variable.
func (s valueSpace) isVarIndex(i int) bool { return i < s.numVars }

// varOf returns the object for a var index.
func (s valueSpace) varOf(i int) *ast.Object { return s.fn.Decl.Locals[i] }

// ---------------------------------------------------------------- liveness

// liveness computes per-block LiveIn/LiveOut over the value space. Source
// variables are additionally considered live at every point inside their
// syntactic scope when keepVarsLive is set (used before register allocation
// decisions that must not delete values the debugger still addresses).
type liveness struct {
	space   valueSpace
	LiveIn  []*dataflow.BitSet
	LiveOut []*dataflow.BitSet
}

// arenas recycles bit-set storage across optimizer passes. A pass takes
// one for its analyses and puts it back when they are dead: no set from
// an arena may outlive the pass (or pass iteration) that took it.
var arenas = sync.Pool{New: func() any { return new(dataflow.Arena) }}

func getArena() *dataflow.Arena { return arenas.Get().(*dataflow.Arena) }

func putArena(a *dataflow.Arena) {
	a.Reset()
	arenas.Put(a)
}

// computeLiveness solves backward may-liveness, with sets from a.
func computeLiveness(f *ir.Func, a *dataflow.Arena) *liveness {
	g, _ := graphOf(f)
	sp := spaceOf(f)
	n := sp.size()
	sets := a.BitSets(2*g.N, n)
	use, def := sets[:g.N], sets[g.N:]
	var buf []ir.Operand
	for i, b := range f.Blocks {
		for _, in := range b.Instrs {
			buf = in.Uses(buf[:0])
			for _, o := range buf {
				if k := sp.indexOf(o); k >= 0 && !def[i].Has(k) {
					use[i].Set(k)
				}
			}
			if in.HasDst() {
				if k := sp.indexOf(in.Dst); k >= 0 {
					def[i].Set(k)
				}
			}
		}
	}
	p := dataflow.Problem{
		Graph: g, Dir: dataflow.Backward, Meet: dataflow.Union, Bits: n,
		Gen: use, Kill: def, Arena: a,
	}
	res := p.Solve()
	return &liveness{space: sp, LiveIn: res.In, LiveOut: res.Out}
}

// stepBack applies in's backward transfer to cur, turning the set of
// values live just after in into the set live just before it. buf is
// scratch space for operand lists; the grown buffer is returned.
func (lv *liveness) stepBack(cur *dataflow.BitSet, in *ir.Instr, buf []ir.Operand) []ir.Operand {
	if in.HasDst() {
		if k := lv.space.indexOf(in.Dst); k >= 0 {
			cur.Clear(k)
		}
	}
	buf = in.Uses(buf[:0])
	for _, o := range buf {
		if k := lv.space.indexOf(o); k >= 0 {
			cur.Set(k)
		}
	}
	return buf
}

// ---------------------------------------------------------------- expr keys

// exprTable interns comparable expression keys to dense indices for
// availability problems.
type exprTable[K comparable] struct {
	index map[K]int32
	// sample holds one representative instruction per key, used to clone
	// computations during PRE insertion.
	sample []*ir.Instr
}

func newExprTable[K comparable]() *exprTable[K] { return &exprTable[K]{index: map[K]int32{}} }

// intern returns key's index, adding it with sample in when new (added).
func (t *exprTable[K]) intern(key K, in *ir.Instr) (i int32, added bool) {
	if i, ok := t.index[key]; ok {
		return i, false
	}
	i = int32(len(t.sample))
	t.index[key] = i
	t.sample = append(t.sample, in)
	return i, true
}

// lookup returns key's index, or -1 when it was never interned.
func (t *exprTable[K]) lookup(key K) int32 {
	if i, ok := t.index[key]; ok {
		return i
	}
	return -1
}

func (t *exprTable[K]) size() int { return len(t.sample) }

// keyIndex holds, per block and instruction position, the table index of
// the instruction's key or -1, so a pass keys each instruction once.
type keyIndex [][]int32

// keysIndexed, when set, observes every key index a pass builds, with
// the key family ("expr", "assign" or "copy"); tests use it to check the
// partition against reference keys.
var keysIndexed func(family string, f *ir.Func, keys keyIndex)

// indexKeys evaluates keyOf over every instruction of f.
func indexKeys(f *ir.Func, family string, keyOf func(*ir.Instr) int32) keyIndex {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	flat := make([]int32, n)
	ki := make(keyIndex, len(f.Blocks))
	for bi, b := range f.Blocks {
		ki[bi], flat = flat[:len(b.Instrs):len(b.Instrs)], flat[len(b.Instrs):]
		for pos, in := range b.Instrs {
			ki[bi][pos] = keyOf(in)
		}
	}
	if keysIndexed != nil {
		keysIndexed(family, f, ki)
	}
	return ki
}

// valueLists maps dense value indices to lists of expression indices,
// stored flat (one offset array and one item array).
type valueLists struct {
	off   []int32
	items []int32
}

// buildValueLists groups the items of the (value, item) pairs that each()
// yields by value, keeping each value's items in yield order. Values at or
// beyond n are dropped; n bounds the value space at build time.
func buildValueLists(n int, each func(yield func(v int, item int32))) valueLists {
	l := valueLists{off: make([]int32, n+2)}
	each(func(v int, _ int32) {
		if v < n {
			l.off[v+2]++
		}
	})
	for v := 2; v < len(l.off); v++ {
		l.off[v] += l.off[v-1]
	}
	l.items = make([]int32, l.off[n+1])
	each(func(v int, item int32) {
		if v < n {
			l.items[l.off[v+1]] = item
			l.off[v+1]++
		}
	})
	return l
}

// of returns the items listed for value v (nil when v is out of range).
func (l valueLists) of(v int) []int32 {
	if v < 0 || v+1 >= len(l.off) {
		return nil
	}
	return l.items[l.off[v]:l.off[v+1]]
}

// killMap records, per value index k, the expression indices invalidated
// by defining k (k is an operand of the expression's sample, or its
// destination when tracking assignment-availability).
type killMap struct{ killedBy valueLists }

func buildKillMap(samples []*ir.Instr, sp valueSpace, includeDst bool) *killMap {
	var buf []ir.Operand
	lists := buildValueLists(sp.size(), func(yield func(int, int32)) {
		for ei, in := range samples {
			buf = in.Uses(buf[:0])
			for _, o := range buf {
				if k := sp.indexOf(o); k >= 0 {
					yield(k, int32(ei))
				}
			}
			if includeDst && in.HasDst() {
				if k := sp.indexOf(in.Dst); k >= 0 {
					yield(k, int32(ei))
				}
			}
		}
	})
	return &killMap{killedBy: lists}
}

func blockIndex(f *ir.Func, b *ir.Block) int {
	for i, x := range f.Blocks {
		if x == b {
			return i
		}
	}
	return -1
}
