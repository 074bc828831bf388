package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// PRE performs partial redundancy elimination in two layers:
//
//  1. Assignment-level PRE on source-variable assignments "V = E": a fully
//     redundant assignment is deleted and replaced by a MarkAvail marker
//     (its value is already in V on every path); a partially redundant one
//     is made fully redundant by inserting copies of the assignment on the
//     predecessor edges where it is missing — the inserted copies are
//     annotated Hoisted and are exactly the paper's "hoisted expressions"
//     (Figure 2's E3), while the deleted occurrence is the "redundant copy"
//     whose marker kills hoist reach.
//
//  2. Expression-level CSE/PRE on temp computations "t = E": occurrences
//     are routed through a canonical temp per expression; redundant
//     computations collapse to copies; partially redundant ones get edge
//     insertions (hoisted temp computations — address arithmetic, mostly,
//     matching the paper's observation that cmcc hoisted mainly address
//     computations).
//
// Reports whether anything changed.
func PRE(f *ir.Func) bool {
	changed := false
	// Layer 1 must reach its fixed point first: the expression CSE below
	// rewrites "V = E" into copy form, destroying the assignment pattern
	// that layer 1's markers and hoisted insertions are generated from.
	for i := 0; i < 8; i++ {
		if !preVarAssignments(f) {
			break
		}
		changed = true
	}
	// The loop runs while CSE removes or inserts computations; a call
	// that only routes occurrences through canonical temps still counts
	// as a change.
	for i := 0; i < 8; i++ {
		c, progress := cseTemps(f)
		changed = changed || c
		if !progress {
			break
		}
	}
	return changed
}

// keyable reports whether in is an assignment whose value can be keyed for
// redundancy analysis (pure computation over Const/Var/Temp operands).
func keyable(in *ir.Instr) bool {
	switch in.Kind {
	case ir.BinOp, ir.UnOp, ir.Copy, ir.Addr:
		return in.HasDst()
	}
	return false
}

// selfRef reports whether in reads its own destination (e.g. x = x + 1);
// such assignments never generate availability of their key.
func selfRef(in *ir.Instr) bool { return in.Reads(in.Dst) }

// assignKey is the availability key of a source-var assignment "V = E".
type assignKey struct {
	Dst ir.OpdKey
	E   ir.ExprKey
}

func assignKeyOf(in *ir.Instr) assignKey {
	e, _ := in.ExprKey()
	return assignKey{Dst: in.Dst.Key(), E: e}
}

// preVarAssignments implements layer 1.
func preVarAssignments(f *ir.Func) bool {
	sp := spaceOf(f)
	a := getArena()
	defer putArena(a)

	// Collect assignment keys.
	table := newExprTable[assignKey]()
	keys := indexKeys(f, "assign", func(in *ir.Instr) int32 {
		if keyable(in) && in.Dst.Kind == ir.Var && !selfRef(in) && in.Kind != ir.Copy {
			i, _ := table.intern(assignKeyOf(in), in)
			return i
		}
		return -1
	})
	if table.size() == 0 {
		return false
	}
	km := buildKillMap(table.sample, sp, true) // defs of V and of E's operands kill

	g, bidx := graphOf(f)
	gen, kill := genKillFor(f, table.size(), sp, km, keys, a)

	must := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: table.size(), Gen: gen, Kill: kill, Arena: a}).Solve()
	may := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Union,
		Bits: table.size(), Gen: gen, Kill: kill, Arena: a}).Solve()

	changed := false
	var inserts []insertion

	avail, pav := a.BitSet(table.size()), a.BitSet(table.size())
	for bi, b := range f.Blocks {
		avail.CopyFrom(must.In[bi])
		pav.CopyFrom(may.In[bi])
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			key := keys[bi][pos]
			if key >= 0 && !in.Ann.Hoisted && !in.Ann.Sunk {
				if avail.Has(int(key)) {
					// Fully redundant source assignment: delete, leaving an
					// availability marker (§3, "code deletion").
					b.Instrs[pos] = &ir.Instr{
						Kind:    ir.MarkAvail,
						MarkObj: in.Dst.Obj,
						Stmt:    in.Stmt,
						OrigIdx: in.OrigIdx,
					}
					changed = true
					continue // marker has no transfer effect
				}
				if pav.Has(int(key)) && upwardExposed(b, pos, sp, km, key) && len(b.Preds) > 1 {
					// Partially redundant: insert hoisted copies on the
					// incoming edges that lack availability.
					inserts = hoistOnEdges(f, inserts, b, in, bidx, must.Out, key)
				}
			}
			// Transfer.
			stepAvail(avail, sp, km, in, key)
			stepAvail(pav, sp, km, in, key)
		}
	}

	if insertAll(f, inserts) {
		changed = true
	}
	return changed
}

// insertion is a hoisted instruction to place on the edge from -> to.
type insertion struct {
	from, to *ir.Block
	instr    *ir.Instr
}

// hoistOnEdges appends, for every predecessor of b whose exit lacks key,
// a hoisted clone of in to be placed on that incoming edge.
func hoistOnEdges(f *ir.Func, inserts []insertion, b *ir.Block, in *ir.Instr,
	bidx blockPos, out []*dataflow.BitSet, key int32) []insertion {
	for _, p := range b.Preds {
		if pi, ok := bidx.of(p); !ok || out[pi].Has(int(key)) {
			continue
		}
		h := in.Clone()
		h.Ann.Hoisted = true
		h.Ann.InsertedBy = "pre"
		h.OrigIdx = f.NextOrig()
		inserts = append(inserts, insertion{from: p, to: b, instr: h})
	}
	return inserts
}

// insertAll places the collected edge insertions, reporting whether there
// were any.
func insertAll(f *ir.Func, inserts []insertion) bool {
	for _, ins := range inserts {
		insertOnEdge(f, ins.from, ins.to, ins.instr)
	}
	if len(inserts) > 0 {
		f.RecomputePreds()
	}
	return len(inserts) > 0
}

// upwardExposed reports whether the key's operands and destination are not
// redefined in b before position pos (so edge insertion is equivalent to
// executing the assignment at pos).
func upwardExposed(b *ir.Block, pos int, sp valueSpace, km *killMap, key int32) bool {
	for i := 0; i < pos; i++ {
		in := b.Instrs[i]
		if !in.HasDst() {
			continue
		}
		if di := sp.indexOf(in.Dst); di >= 0 {
			for _, e := range km.killedBy.of(di) {
				if e == key {
					return false
				}
			}
		}
	}
	return true
}

// genKillFor builds per-block gen/kill sets from a for an availability
// problem over nb expression keys, given each instruction's key index.
func genKillFor(f *ir.Func, nb int, sp valueSpace, km *killMap, keys keyIndex, a *dataflow.Arena) (gen, kill []*dataflow.BitSet) {
	sets := a.BitSets(2*len(f.Blocks), nb)
	gen, kill = sets[:len(f.Blocks)], sets[len(f.Blocks):]
	for bi, b := range f.Blocks {
		for pos, in := range b.Instrs {
			if in.HasDst() {
				if di := sp.indexOf(in.Dst); di >= 0 {
					for _, e := range km.killedBy.of(di) {
						gen[bi].Clear(int(e))
						kill[bi].Set(int(e))
					}
				}
			}
			if k := keys[bi][pos]; k >= 0 {
				gen[bi].Set(int(k))
				kill[bi].Clear(int(k))
			}
		}
	}
	return gen, kill
}

// stepAvail applies one instruction's transfer to an availability set;
// key is the instruction's key index, or -1.
func stepAvail(s *dataflow.BitSet, sp valueSpace, km *killMap, in *ir.Instr, key int32) {
	if in.HasDst() {
		if di := sp.indexOf(in.Dst); di >= 0 {
			for _, e := range km.killedBy.of(di) {
				if int(e) < s.Len() {
					s.Clear(int(e))
				}
			}
		}
	}
	if key >= 0 && int(key) < s.Len() {
		s.Set(int(key))
	}
}

// insertOnEdge places instr on the edge from -> to: appended at the end of
// `from` when `to` is its only successor, otherwise on a freshly split edge
// block (preserving branch-target order).
func insertOnEdge(f *ir.Func, from, to *ir.Block, instr *ir.Instr) {
	if len(from.Succs) == 1 {
		from.AppendBeforeTerm(instr)
		return
	}
	m := f.NewBlock()
	j := &ir.Instr{Kind: ir.Jmp, Stmt: -1, OrigIdx: f.NextOrig()}
	m.Instrs = []*ir.Instr{instr, j}
	m.Succs = []*ir.Block{to}
	from.ReplaceSucc(to, m)
}

// ---------------------------------------------------------------- layer 2

// cseTemps implements layer 2: expression CSE/PRE through canonical temps.
// progress reports whether a recomputation was removed or a hoisted one
// inserted; changed additionally covers routing occurrences through their
// canonical temps.
func cseTemps(f *ir.Func) (changed, progress bool) {
	sp := spaceOf(f)
	a := getArena()
	defer putArena(a)

	// Key every candidate once. Classes are numbered in first-occurrence
	// order, which is also the table's deterministic interning order.
	// Temp or var destinations both supply values; only multi-occurrence
	// keys are worth a canonical temp.
	type class struct {
		count  int
		sample *ir.Instr
		// dst is the temp every occurrence writes (e.g. from a previous
		// CSE round), or NoOpd once destinations differ.
		dst ir.Operand
	}
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if keyable(in) && in.Kind != ir.Copy {
				n++
			}
		}
	}
	classOf := make(map[ir.ExprKey]int32, n)
	classes := make([]class, 0, n)
	keys := indexKeys(f, "expr", func(in *ir.Instr) int32 {
		if !keyable(in) || in.Kind == ir.Copy {
			return -1
		}
		k, _ := in.ExprKey()
		c, ok := classOf[k]
		if !ok {
			c = int32(len(classes))
			classOf[k] = c
			classes = append(classes, class{sample: in, dst: in.Dst})
		} else if d := classes[c].dst; !d.Same(in.Dst) || in.Dst.Kind != ir.Temp {
			classes[c].dst = ir.Operand{}
		}
		classes[c].count++
		return c
	})
	tableIdx := make([]int32, len(classes))
	var samples []*ir.Instr
	var canon []ir.Operand
	for c := range classes {
		tableIdx[c] = -1
		if classes[c].count >= 2 {
			tableIdx[c] = int32(len(samples))
			samples = append(samples, classes[c].sample)
		}
	}
	if len(samples) == 0 {
		return false, false
	}

	// Canonical temp per key. When every occurrence of a key already
	// writes the same temp, reuse it — otherwise each round would wrap
	// another copy layer around the value.
	for c := range classes {
		if tableIdx[c] < 0 {
			continue
		}
		if d := classes[c].dst; d.Kind == ir.Temp {
			canon = append(canon, d)
		} else {
			canon = append(canon, f.NewTemp(classes[c].sample.Dst.Ty))
		}
	}

	// Rewrite every occurrence "d = E" (d != canon) into
	// "hE = E; d = copy hE" so availability implies the value sits in hE.
	// Afterwards keys[bi][pos] is the table index of every keyed
	// occurrence, all of which write their canonical temp.
	for bi, b := range f.Blocks {
		var instrs []*ir.Instr // rebuilt only once the block is rewritten
		var ks []int32
		for pos, in := range b.Instrs {
			key := keys[bi][pos]
			if key >= 0 {
				key = tableIdx[key]
			}
			rewrite := key >= 0 && !in.Dst.Same(canon[key])
			if rewrite && instrs == nil {
				instrs = append(make([]*ir.Instr, 0, len(b.Instrs)+4), b.Instrs[:pos]...)
				ks = append(make([]int32, 0, len(b.Instrs)+4), keys[bi][:pos]...)
			}
			if instrs != nil {
				instrs = append(instrs, in)
				ks = append(ks, key)
			} else {
				keys[bi][pos] = key
			}
			if !rewrite {
				continue
			}
			// Replace in place: in becomes hE = E; a copy follows.
			cp := &ir.Instr{
				Kind: ir.Copy, Dst: in.Dst, A: canon[key],
				Stmt: in.Stmt, OrigIdx: f.NextOrig(),
			}
			cp.Ann = in.Ann
			cp.Ann.InsertedBy = "cse"
			in.Dst = canon[key]
			instrs = append(instrs, cp)
			ks = append(ks, -1)
			changed = true
		}
		if instrs != nil {
			b.Instrs, keys[bi] = instrs, ks
		}
	}
	// Self-referencing computations never make their key available.
	for bi, b := range f.Blocks {
		for pos, in := range b.Instrs {
			if keys[bi][pos] >= 0 && selfRef(in) {
				keys[bi][pos] = -1
			}
		}
	}

	// Availability of keys now means "canon[key] holds the value".
	km := buildKillMap(samples, sp, false)
	g, bidx := graphOf(f)
	gen, kill := genKillFor(f, len(samples), sp, km, keys, a)
	must := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: len(samples), Gen: gen, Kill: kill, Arena: a}).Solve()
	may := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Union,
		Bits: len(samples), Gen: gen, Kill: kill, Arena: a}).Solve()

	var inserts []insertion
	avail, pav := a.BitSet(len(samples)), a.BitSet(len(samples))
	for bi, b := range f.Blocks {
		avail.CopyFrom(must.In[bi])
		pav.CopyFrom(may.In[bi])
		ks := keys[bi]
		for pos := 0; pos < len(b.Instrs); pos++ {
			in := b.Instrs[pos]
			key := ks[pos]
			if key >= 0 && !in.Ann.Hoisted {
				if avail.Has(int(key)) {
					// hE already holds the value: drop the recomputation.
					// Temps are invisible to the user, so no marker is
					// needed; but keep recovery annotations alive by
					// moving them to the following copy if present.
					b.RemoveAt(pos)
					ks = append(ks[:pos], ks[pos+1:]...)
					pos--
					progress = true
					continue
				}
				if pav.Has(int(key)) && upwardExposed(b, pos, sp, km, key) && len(b.Preds) > 1 {
					inserts = hoistOnEdges(f, inserts, b, in, bidx, must.Out, key)
				}
			}
			stepAvail(avail, sp, km, in, key)
			stepAvail(pav, sp, km, in, key)
		}
	}
	if insertAll(f, inserts) {
		progress = true
	}
	return changed || progress, progress
}
