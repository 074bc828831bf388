// Package regalloc implements mcc's global register allocator: a
// Chaitin-style graph-coloring allocator (Table 1 of the paper: "global
// register allocation (using graph coloring)" and "register coalescing")
// with Briggs-style optimistic coloring and conservative coalescing, plus
// spilling to frame slots.
//
// Allocation is what makes source variables *nonresident*: once variables
// share physical registers, a variable's register only holds its value
// inside the variable's live range. The allocator therefore records each
// variable's allocated location in Func.VarLoc; the per-point residence
// test itself is performed by the debugger analyses (package core) from
// the DefObj/UseObjs tags that survive on the final instructions.
//
// Moves that copy source variables are never coalesced away: deleting them
// would erase the variable's defining instruction, which the debugger's
// bookkeeping needs. Temp-to-temp moves are coalesced normally.
package regalloc

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/mach"
)

// Allocate colors every function in the program.
func Allocate(p *mach.Program) error {
	for _, f := range p.Funcs {
		if err := AllocateFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// AllocateFunc runs register allocation for one function.
func AllocateFunc(f *mach.Func) error {
	a := &allocator{f: f, spillTemp: map[int]bool{}}
	if err := a.run(mach.IntClass, mach.NumIntRegs); err != nil {
		return err
	}
	if err := a.run(mach.FloatClass, mach.NumFloatRegs); err != nil {
		return err
	}
	f.Allocated = true
	return nil
}

type allocator struct {
	f         *mach.Func
	spillTemp map[int]bool // vregs created by spill code: never re-spill
}

// run allocates one register class.
func (a *allocator) run(class mach.RegClass, k int) error {
	spilled := map[int]int64{} // vreg -> frame offset
	for round := 0; round < 24; round++ {
		// Coalesce to a fixed point, rebuilding the graph after each merge.
		var g *igraph
		for i := 0; ; i++ {
			g = a.buildGraph(class)
			if i > 10_000 || !a.coalesce(g, class, k) {
				break
			}
		}
		toSpill := g.colorGraph(k)
		if len(toSpill) == 0 {
			a.rewrite(g, class, spilled)
			return nil
		}
		for _, v := range toSpill {
			if a.spillTemp[v] {
				return fmt.Errorf("regalloc: %s: spill temp v%d needs spilling again (class %d)",
					a.f.Name, v, class)
			}
			off := a.f.FrameSize
			a.f.FrameSize += 4
			spilled[v] = off
			a.insertSpillCode(v, class, off)
		}
	}
	return fmt.Errorf("regalloc: %s: did not converge", a.f.Name)
}

// ---------------------------------------------------------------- liveness

func machGraph(f *mach.Func) dataflow.Graph {
	idx := map[*mach.Block]int{}
	for i, b := range f.Blocks {
		idx[b] = i
	}
	g := dataflow.Graph{N: len(f.Blocks), Succs: make([][]int, len(f.Blocks)), Preds: make([][]int, len(f.Blocks))}
	for i, b := range f.Blocks {
		for _, s := range b.Succs {
			g.Succs[i] = append(g.Succs[i], idx[s])
			g.Preds[idx[s]] = append(g.Preds[idx[s]], i)
		}
	}
	return g
}

// RegKey encodes a register operand (class + number) as a dense bit index,
// so int and float registers never collide in liveness bit vectors.
func RegKey(o mach.Opd) int { return o.R*2 + int(o.Class) }

// KeyReg decodes a RegKey back into (number, class).
func KeyReg(k int) (int, mach.RegClass) { return k / 2, mach.RegClass(k % 2) }

// Liveness computes per-block live-in/out over all registers of f, indexed
// by RegKey.
func Liveness(f *mach.Func) ([]*dataflow.BitSet, []*dataflow.BitSet) {
	g := machGraph(f)
	n := 2 * (f.NumVregs + mach.NumIntRegs + mach.NumFloatRegs + 2)
	sets := dataflow.NewBitSets(2*g.N, n)
	use, def := sets[:g.N], sets[g.N:]
	var buf []mach.Opd
	for i, b := range f.Blocks {
		for _, in := range b.Instrs {
			buf = in.Uses(buf[:0])
			for _, o := range buf {
				if !def[i].Has(RegKey(o)) {
					use[i].Set(RegKey(o))
				}
			}
			if d := in.Def(); d.IsReg() {
				def[i].Set(RegKey(d))
			}
		}
	}
	p := dataflow.Problem{Graph: g, Dir: dataflow.Backward, Meet: dataflow.Union,
		Bits: n, Gen: use, Kill: def}
	res := p.Solve()
	return res.In, res.Out
}

// ---------------------------------------------------------------- graph

// igraph is the interference graph of one register class. Nodes are vreg
// numbers below n; every per-node table is a dense slice indexed by vreg,
// and adjacency is a bit matrix of n rows.
type igraph struct {
	n      int
	words  int      // uint64 words per adjacency row
	isNode []bool   // vreg occurs in the class
	adj    []uint64 // row v holds v's neighbors
	deg    []int    // neighbor count
	cost   []float64
	colors []int // assigned color, or -1
}

func newIgraph(n int) *igraph {
	words := (n + 63) / 64
	g := &igraph{
		n: n, words: words,
		isNode: make([]bool, n),
		adj:    make([]uint64, n*words),
		deg:    make([]int, n),
		cost:   make([]float64, n),
		colors: make([]int, n),
	}
	for i := range g.colors {
		g.colors[i] = -1
	}
	return g
}

func (g *igraph) row(v int) []uint64 { return g.adj[v*g.words : (v+1)*g.words] }

func (g *igraph) interferes(x, y int) bool { return g.adj[x*g.words+y/64]&(1<<(y%64)) != 0 }

func (g *igraph) addEdge(x, y int) {
	if x == y || g.interferes(x, y) {
		return
	}
	g.isNode[x], g.isNode[y] = true, true
	g.adj[x*g.words+y/64] |= 1 << (y % 64)
	g.adj[y*g.words+x/64] |= 1 << (x % 64)
	g.deg[x]++
	g.deg[y]++
}

// forEachBit calls fn for every set bit of row in increasing order.
func forEachBit(row []uint64, fn func(int)) {
	for w, word := range row {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// color returns the vreg's color, or -1 when it has none.
func (g *igraph) color(v int) int {
	if v < 0 || v >= g.n {
		return -1
	}
	return g.colors[v]
}

func (a *allocator) buildGraph(class mach.RegClass) *igraph {
	f := a.f
	n := f.NumVregs
	var buf []mach.Opd
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, o := range in.Uses(buf[:0]) {
				n = max(n, o.R+1)
			}
			n = max(n, in.Def().R+1)
		}
	}
	g := newIgraph(n)

	// Node discovery and spill costs (weighted by loop depth).
	for _, b := range f.Blocks {
		w := math.Pow(10, float64(b.LoopDepth))
		for _, in := range b.Instrs {
			ops := in.Uses(buf[:0])
			if d := in.Def(); d.IsReg() {
				ops = append(ops, d)
			}
			for _, o := range ops {
				if o.Class == class {
					g.isNode[o.R] = true
					g.cost[o.R] += w
				}
			}
			buf = ops
		}
	}

	_, liveOut := Liveness(f)
	for bi, b := range f.Blocks {
		live := liveOut[bi].Copy()
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			d := in.Def()
			if d.IsReg() && d.Class == class {
				live.ForEach(func(key int) {
					l, cls := KeyReg(key)
					if cls != class {
						return
					}
					// A move does not interfere with its source.
					if in.Op == mach.MOV && in.A.IsReg() && in.A.Class == class && in.A.R == l {
						return
					}
					g.addEdge(d.R, l)
				})
			}
			if d.IsReg() {
				live.Clear(RegKey(d))
			}
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				live.Set(RegKey(u))
			}
		}
	}
	return g
}

// ---------------------------------------------------------------- coalesce

// coalesce merges one batch of temp-to-temp moves using the Briggs
// conservative criterion; returns true if anything was merged (the caller
// rebuilds the graph).
func (a *allocator) coalesce(g *igraph, class mach.RegClass, k int) bool {
	f := a.f
	merged := false
	union := make([]uint64, g.words)
	for _, b := range f.Blocks {
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			if in.Op != mach.MOV || !in.A.IsReg() || !in.Dst.IsReg() {
				continue
			}
			if in.Dst.Class != class || in.A.Class != class {
				continue
			}
			dst, src := in.Dst.R, in.A.R
			if dst == src {
				b.RemoveAt(pos)
				pos--
				merged = true
				continue
			}
			// Preserve source-variable defining moves and recovery points.
			if dst < f.NumVars || src < f.NumVars {
				continue
			}
			if in.Ann.ReplacedVar != nil || in.Ann.Recover != nil {
				continue
			}
			if g.interferes(dst, src) {
				continue
			}
			// Briggs: merged node must have < k significant neighbors.
			sig := 0
			rd, rs := g.row(dst), g.row(src)
			for w := range union {
				union[w] = rd[w] | rs[w]
			}
			forEachBit(union, func(n int) {
				if g.deg[n] >= k {
					sig++
				}
			})
			if sig >= k {
				continue
			}
			// Merge src into dst everywhere; drop the move.
			b.RemoveAt(pos)
			pos--
			old := mach.Opd{Kind: mach.Reg, Class: class, R: src}
			new := mach.Opd{Kind: mach.Reg, Class: class, R: dst}
			for _, bb := range f.Blocks {
				for _, ii := range bb.Instrs {
					ii.ReplaceReg(old, new, true)
				}
			}
			return true // rebuild graph after each merge for safety
		}
	}
	return merged
}

// ---------------------------------------------------------------- color

// colorGraph runs simplify/select with optimistic coloring; returns the
// list of vregs that must be spilled (empty on success, in which case
// g.colors maps every node to a physical register number).
func (g *igraph) colorGraph(k int) []int {
	// Working copies.
	deg := append([]int(nil), g.deg...)
	removed := make([]bool, g.n)
	stack := make([]int, 0, g.n)
	remaining := 0
	for _, isNode := range g.isNode {
		if isNode {
			remaining++
		}
	}
	// Every node below low is removed or has degree >= k, so simplify
	// scans upward from low for the lowest-numbered low-degree node.
	low := 0

	removeNode := func(n int) {
		removed[n] = true
		remaining--
		forEachBit(g.row(n), func(m int) {
			if !removed[m] {
				deg[m]--
				if deg[m] == k-1 && m < low {
					low = m
				}
			}
		})
		stack = append(stack, n)
	}

	for remaining > 0 {
		// Simplify: pick any node with degree < k (deterministic order:
		// lowest vreg number).
		pick := -1
		for ; low < g.n; low++ {
			if g.isNode[low] && !removed[low] && deg[low] < k {
				pick = low
				break
			}
		}
		if pick < 0 {
			// Potential spill: lowest cost/degree, ties to the lowest vreg.
			bestScore := math.Inf(1)
			for n := 0; n < g.n; n++ {
				if !g.isNode[n] || removed[n] {
					continue
				}
				d := max(deg[n], 1)
				if score := g.cost[n] / float64(d); pick < 0 || score < bestScore {
					pick, bestScore = n, score
				}
			}
		}
		removeNode(pick)
	}

	// Select.
	var spills []int
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		var used uint64
		forEachBit(g.row(n), func(m int) {
			if c := g.colors[m]; c >= 0 {
				used |= 1 << c
			}
		})
		c := bits.TrailingZeros64(^used)
		if c >= k {
			spills = append(spills, n)
			continue
		}
		g.colors[n] = c
	}
	return spills
}

// ---------------------------------------------------------------- spill

// insertSpillCode rewrites every occurrence of vreg v through a frame slot.
func (a *allocator) insertSpillCode(v int, class mach.RegClass, off int64) {
	f := a.f
	loadOp, storeOp := mach.LWFP, mach.SWFP
	if class == mach.FloatClass {
		loadOp, storeOp = mach.FLWFP, mach.FSWFP
	}
	old := mach.Opd{Kind: mach.Reg, Class: class, R: v}
	for _, b := range f.Blocks {
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			usesV := false
			var buf []mach.Opd
			for _, u := range in.Uses(buf) {
				if u.Same(old) {
					usesV = true
					break
				}
			}
			defsV := in.Def().Same(old) && in.Def().IsReg()
			if !usesV && !defsV {
				if in.MarkAlias.Same(old) {
					// The alias value now lives in a slot the debugger
					// cannot name through a register: drop the alias.
					in.MarkAlias = mach.Opd{}
				}
				continue
			}
			if usesV {
				t := f.NewVreg(class)
				a.spillTemp[t.R] = true
				ld := &mach.Instr{Op: loadOp, Dst: t, Off: off, Stmt: in.Stmt, OrigIdx: in.OrigIdx}
				insertAt(b, pos, ld)
				pos++
				in.ReplaceReg(old, t, false)
			}
			if defsV {
				t := f.NewVreg(class)
				a.spillTemp[t.R] = true
				in.ReplaceReg(old, t, true) // only the def remains
				st := &mach.Instr{Op: storeOp, B: t, Off: off, Stmt: in.Stmt, OrigIdx: in.OrigIdx}
				insertAt(b, pos+1, st)
				pos++
			}
		}
	}
}

func insertAt(b *mach.Block, pos int, in *mach.Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[pos+1:], b.Instrs[pos:])
	b.Instrs[pos] = in
}

// ---------------------------------------------------------------- rewrite

// rewrite maps vregs of the class to their physical registers and records
// variable locations.
// pruneStaleAliases drops MarkAlias operands that name a vreg which is
// not live at the marker's position. The coloring guarantee — the
// assigned physical register holds the vreg's value — covers only the
// vreg's live range; markers deliberately do not extend live ranges
// (an alias must never keep a value alive), so a marker can sit past
// the aliased vreg's last use, where the register may already have
// been reused for an unrelated value. ValidateMarkers cannot catch
// this: it runs on IR before allocation and physical register reuse
// does not exist yet. Recovering through such an alias would fabricate
// a value, so it is degraded to no recovery instead. Must run before
// operands are rewritten to physical numbers.
func (a *allocator) pruneStaleAliases(class mach.RegClass) {
	f := a.f
	any := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == mach.MARKDEAD && in.MarkAlias.Kind == mach.Reg && in.MarkAlias.Class == class {
				any = true
			}
		}
	}
	if !any {
		return
	}
	_, liveOut := Liveness(f)
	var buf []mach.Opd
	for bi, b := range f.Blocks {
		live := liveOut[bi].Copy()
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			// Markers have no defs or uses, so live-after equals
			// live-at for them; check before applying effects.
			if in.Op == mach.MARKDEAD && in.MarkAlias.Kind == mach.Reg && in.MarkAlias.Class == class &&
				!live.Has(RegKey(in.MarkAlias)) {
				in.MarkAlias = mach.Opd{}
			}
			if d := in.Def(); d.IsReg() {
				live.Clear(RegKey(d))
			}
			buf = in.Uses(buf[:0])
			for _, o := range buf {
				live.Set(RegKey(o))
			}
		}
	}
}

func (a *allocator) rewrite(g *igraph, class mach.RegClass, spilled map[int]int64) {
	f := a.f
	a.pruneStaleAliases(class)
	phys := func(o *mach.Opd) {
		if o.Kind == mach.Reg && o.Class == class {
			if c := g.color(o.R); c >= 0 {
				o.R = c
			} else {
				// Unconstrained (never live simultaneously with anything,
				// or dead): give it register 0.
				o.R = 0
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			phys(&in.Dst)
			phys(&in.A)
			phys(&in.B)
			for i := range in.Args {
				phys(&in.Args[i])
			}
			for i := range in.PrintFmt {
				if !in.PrintFmt[i].IsStr {
					phys(&in.PrintFmt[i].Val)
				}
			}
			// A marker's alias operand names the register holding an
			// eliminated value. If that vreg got no color (its defs were
			// all removed or it was spilled), the alias is unrecoverable
			// through a register: drop it rather than point at a wrong
			// physical register.
			if in.MarkAlias.Kind == mach.Reg && in.MarkAlias.Class == class {
				if c := g.color(in.MarkAlias.R); c >= 0 {
					in.MarkAlias.R = c
				} else {
					in.MarkAlias = mach.Opd{}
				}
			}
		}
	}
	// Record variable locations.
	for vid := 0; vid < f.NumVars; vid++ {
		obj := f.Decl.Locals[vid]
		cls := mach.IntClass
		if ast.IsFloat(obj.Type) {
			cls = mach.FloatClass
		}
		if cls != class {
			continue
		}
		if off, ok := spilled[vid]; ok {
			f.VarLoc[obj] = mach.Loc{Kind: mach.LocSpill, Class: class, Off: off}
		} else if c := g.color(vid); c >= 0 {
			f.VarLoc[obj] = mach.Loc{Kind: mach.LocReg, Class: class, R: c}
		} else {
			f.VarLoc[obj] = mach.Loc{Kind: mach.LocNone}
		}
	}
}
