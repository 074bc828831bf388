package opt

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// AssignProp performs assignment propagation (cmcc performs it "to improve
// partial redundancy elimination", §2.5): where the assignment "X = E" is
// available at a use of the source variable X, the use is replaced by a
// re-materialized computation of E into a fresh temp. The re-materialized
// instruction is annotated ReplacedVar=X — it is a "code replacement"
// record: its value aliases X, enabling the debugger to recover X after the
// original assignment is dead-code eliminated (Figure 4 of the paper).
//
// Re-materializations are merged back into single computations by the
// expression-level CSE of the PRE pass, reproducing exactly the paper's
// copy-propagation + common-subexpression pipeline.
func AssignProp(f *ir.Func) bool {
	sp := spaceOf(f)

	// Candidate assignments: X = E, X a promoted source var, E a pure
	// computation (BinOp/UnOp over Const/Var/Temp, or a Copy of a simple
	// operand) that does not read X.
	table := newExprTable[assignKey]()
	var cands []*ir.Instr
	isCand := func(in *ir.Instr) bool {
		if !keyable(in) || in.Dst.Kind != ir.Var || selfRef(in) {
			return false
		}
		switch in.Kind {
		case ir.BinOp, ir.UnOp, ir.Copy:
			return true
		}
		return false
	}
	keyOf := func(in *ir.Instr) int32 {
		if isCand(in) {
			return table.lookup(assignKeyOf(in))
		}
		return -1
	}
	keys := indexKeys(f, "assign", func(in *ir.Instr) int32 {
		if !isCand(in) {
			return -1
		}
		ki, added := table.intern(assignKeyOf(in), in)
		if added {
			// Snapshot the defining instruction NOW: later use
			// replacements may rewrite the original in place (e.g.
			// substituting an available copy into one of its operands),
			// and re-materialization must clone the expression whose
			// availability was analyzed, not the rewritten one.
			cands = append(cands, in.Clone())
		}
		return ki
	})
	if table.size() == 0 {
		return false
	}
	km := buildKillMap(table.sample, sp, true)
	g, _ := graphOf(f)
	a := getArena()
	defer putArena(a)
	gen, kill := genKillFor(f, table.size(), sp, km, keys, a)
	must := (&dataflow.Problem{Graph: g, Dir: dataflow.Forward, Meet: dataflow.Intersect,
		Bits: table.size(), Gen: gen, Kill: kill, Arena: a}).Solve()

	// Per variable, the list of candidate keys assigning it.
	keysForVar := buildValueLists(sp.numVars, func(yield func(int, int32)) {
		for ki, c := range cands {
			yield(sp.indexOf(c.Dst), int32(ki))
		}
	})

	changed := false
	var buf []ir.Operand
	avail := a.BitSet(table.size())
	for bi, b := range f.Blocks {
		avail.CopyFrom(must.In[bi])
		ks := keys[bi]
		for pos, oi := 0, 0; pos < len(b.Instrs); pos, oi = pos+1, oi+1 {
			in := b.Instrs[pos]
			if in.IsMarker() {
				continue
			}
			// Find uses of candidate variables with an available
			// defining assignment.
			rewritten := false
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				if u.Kind != ir.Var {
					continue
				}
				for _, ki := range keysForVar.of(sp.indexOf(u)) {
					if !avail.Has(int(ki)) {
						continue
					}
					def := cands[ki]
					if in == def {
						break
					}
					// Propagate: re-materialize E into a temp just before
					// the use; annotate for recovery.
					rm := def.Clone()
					rm.Dst = f.NewTemp(def.Dst.Ty)
					rm.Stmt = in.Stmt
					rm.OrigIdx = f.NextOrig()
					rm.Ann = ir.Ann{ReplacedVar: def.Dst.Obj, InsertedBy: "assignprop"}
					// Copies of plain operands propagate the operand
					// directly (classic copy/constant propagation): no new
					// instruction, but the recovery link is preserved by
					// the dead-marker operand recorded at DCE time.
					if def.Kind == ir.Copy {
						in.ReplaceUses(u, def.A)
						changed, rewritten = true, true
						break
					}
					b.InsertBefore(pos, rm)
					pos++
					in.ReplaceUses(u, rm.Dst)
					changed, rewritten = true, true
					break
				}
			}
			// A rewritten instruction transfers under its new key.
			key := ks[oi]
			if rewritten {
				key = keyOf(in)
			}
			stepAvail(avail, sp, km, in, key)
		}
	}
	return changed
}
