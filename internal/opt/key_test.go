package opt

import (
	"fmt"
	"testing"

	"repro/internal/ir"
)

// Reference keys: the string spellings the optimizer keyed on before
// ir.OpdKey and ir.ExprKey. The struct keys must put instructions in
// exactly the classes these strings do.

func refOpdKey(o ir.Operand) string {
	switch o.Kind {
	case ir.Temp:
		return fmt.Sprintf("t%d", o.TID)
	case ir.Var:
		return fmt.Sprintf("v%d.%s", o.Obj.ID, o.Obj.Name)
	case ir.ConstI:
		return fmt.Sprintf("#%d", o.Int)
	case ir.ConstF:
		return fmt.Sprintf("#%g", o.Fl)
	}
	return "_"
}

func refExprKey(i *ir.Instr) string {
	switch i.Kind {
	case ir.BinOp:
		a, b := refOpdKey(i.A), refOpdKey(i.B)
		if i.Op.IsCommutative() && b < a {
			a, b = b, a
		}
		return fmt.Sprintf("%s %s %s", i.Op, a, b)
	case ir.UnOp:
		return fmt.Sprintf("%s %s", i.Op, refOpdKey(i.A))
	case ir.Copy:
		return fmt.Sprintf("copy %s", refOpdKey(i.A))
	case ir.Addr:
		return fmt.Sprintf("addr v%d.%s", i.AddrObj.ID, i.AddrObj.Name)
	}
	return ""
}

// refKey is the reference key of an instruction in one key family.
func refKey(family string, in *ir.Instr) string {
	switch family {
	case "expr":
		return refExprKey(in)
	case "assign":
		return refOpdKey(in.Dst) + " := " + refExprKey(in)
	case "copy":
		return refOpdKey(in.Dst) + "=" + refOpdKey(in.A)
	}
	panic("unknown key family " + family)
}

// TestKeyPartitionMatchesReference optimizes every function of the corpora
// at O2 and checks every key index a pass builds: two instructions share a
// table entry exactly when their reference string keys are equal.
func TestKeyPartitionMatchesReference(t *testing.T) {
	tables := map[string]int{}
	defer func() { keysIndexed = nil }()
	var where string
	keysIndexed = func(family string, f *ir.Func, keys keyIndex) {
		tables[family]++
		byRef := map[string]int32{}
		byIdx := map[int32]string{}
		for bi, b := range f.Blocks {
			for pos, in := range b.Instrs {
				k := keys[bi][pos]
				if k < 0 {
					continue
				}
				ref := refKey(family, in)
				if prev, ok := byRef[ref]; ok && prev != k {
					t.Fatalf("%s/%s %s: %q keyed as both %d and %d", where, f.Name, family, ref, prev, k)
				}
				if prev, ok := byIdx[k]; ok && prev != ref {
					t.Fatalf("%s/%s %s: entry %d holds both %q and %q", where, f.Name, family, k, prev, ref)
				}
				byRef[ref], byIdx[k] = k, ref
			}
		}
	}
	for _, p := range corpus(t) {
		where = p.name
		for _, f := range freshFuncs(t, p) {
			RunFunc(f, O2())
		}
	}
	t.Logf("checked key indexes: %v", tables)
	for _, family := range []string{"expr", "assign", "copy"} {
		if tables[family] == 0 {
			t.Errorf("no %s key index was built", family)
		}
	}
}
