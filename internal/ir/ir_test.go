package ir

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sem"
)

func build(t *testing.T, src string) *Program {
	t.Helper()
	p, err := sem.CheckSource("test.mc", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	return Build(p)
}

func TestBuildSimple(t *testing.T) {
	prog := build(t, `int main() { int x = 1 + 2; return x; }`)
	f := prog.LookupFunc("main")
	if f == nil || f.Entry == nil {
		t.Fatal("no main")
	}
	// x = 1+2 should emit a single BinOp directly into x.
	found := false
	for _, in := range f.Entry.Instrs {
		if in.Kind == BinOp && in.Dst.Kind == Var && in.Dst.Obj.Name == "x" {
			found = true
		}
	}
	if !found {
		t.Errorf("assignment should target the variable directly:\n%s", f)
	}
}

func TestBuildControlFlowShape(t *testing.T) {
	prog := build(t, `
int main() {
	int x = 0;
	if (x < 1) { x = 1; } else { x = 2; }
	while (x < 10) { x = x + 1; }
	return x;
}`)
	f := prog.LookupFunc("main")
	branches, rets := 0, 0
	for _, b := range f.Blocks {
		if tm := b.Term(); tm != nil {
			switch tm.Kind {
			case Br:
				branches++
				if len(b.Succs) != 2 {
					t.Errorf("branch block %s has %d succs", b, len(b.Succs))
				}
			case Ret:
				rets++
			}
		}
	}
	if branches != 2 { // if cond + while cond
		t.Errorf("got %d branches, want 2", branches)
	}
	if rets != 1 {
		t.Errorf("got %d returns, want 1", rets)
	}
	// preds must be consistent with succs
	f.RecomputePreds()
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			found := false
			for _, p := range s.Preds {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Errorf("%s missing from preds of %s", b, s)
			}
		}
	}
}

func TestBuildShortCircuit(t *testing.T) {
	// f(0) must not evaluate the division (short-circuit &&).
	prog := build(t, `
int main() {
	int d = 0;
	int x = 0;
	if (d != 0 && 10 / d > 1) { x = 1; }
	return x;
}`)
	ret, _, err := NewInterp(prog).Run()
	if err != nil {
		t.Fatalf("short-circuit failed to protect the division: %v", err)
	}
	if ret != 0 {
		t.Errorf("ret = %d", ret)
	}
}

func TestBuildStatementTags(t *testing.T) {
	prog := build(t, `
int main() {
	int a = 1;
	int b = 2;
	print(a + b);
	return 0;
}`)
	f := prog.LookupFunc("main")
	seen := map[int]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Stmt >= 0 {
				seen[in.Stmt] = true
			}
		}
	}
	for s := 0; s < 4; s++ {
		if !seen[s] {
			t.Errorf("no instruction tagged with statement %d", s)
		}
	}
}

func TestBuildOrigIdxMonotonic(t *testing.T) {
	prog := build(t, `
int main() {
	int s = 0;
	int i;
	for (i = 0; i < 3; i++) { s += i; }
	return s;
}`)
	f := prog.LookupFunc("main")
	seen := map[int]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if seen[in.OrigIdx] {
				t.Errorf("duplicate OrigIdx %d", in.OrigIdx)
			}
			seen[in.OrigIdx] = true
		}
	}
}

// ---------------------------------------------------------------- operands

func TestOperandSame(t *testing.T) {
	if !CI(5).Same(CI(5)) || CI(5).Same(CI(6)) {
		t.Error("const equality broken")
	}
	if !TempOf(3, I).Same(TempOf(3, I)) || TempOf(3, I).Same(TempOf(4, I)) {
		t.Error("temp equality broken")
	}
	if CI(1).Same(CF(1)) {
		t.Error("int and float consts must differ")
	}
}

// Property: operand keys are injective over small ints and temps.
func TestQuickOperandKeys(t *testing.T) {
	f := func(a, b int16) bool {
		oa, ob := CI(int64(a)), CI(int64(b))
		return (oa.Key() == ob.Key()) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b uint8) bool {
		ta, tb := TempOf(int(a), I), TempOf(int(b), I)
		return (ta.Key() == tb.Key()) == (a == b)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// Property: ExprKey is stable under commutative operand swap for
// commutative ops, and differs for non-commutative ones (when operands
// differ).
func TestQuickExprKeyCommutativity(t *testing.T) {
	key := func(in *Instr) ExprKey {
		k, _ := in.ExprKey()
		return k
	}
	f := func(x, y uint8) bool {
		a, b := TempOf(int(x), I), TempOf(int(y), I)
		add1 := &Instr{Kind: BinOp, Op: Add, Dst: TempOf(100, I), A: a, B: b}
		add2 := &Instr{Kind: BinOp, Op: Add, Dst: TempOf(101, I), A: b, B: a}
		if key(add1) != key(add2) {
			return false
		}
		sub1 := &Instr{Kind: BinOp, Op: Sub, Dst: TempOf(100, I), A: a, B: b}
		sub2 := &Instr{Kind: BinOp, Op: Sub, Dst: TempOf(101, I), A: b, B: a}
		if x != y && key(sub1) == key(sub2) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// constSpelling is the redundancy spelling constants had as string keys:
// integer and float constants printing alike must key alike.
func constSpelling(o Operand) string {
	if o.Kind == ConstI {
		return fmt.Sprintf("#%d", o.Int)
	}
	return fmt.Sprintf("#%g", o.Fl)
}

// Property: two constants have equal keys exactly when they print alike,
// across the integer/float boundary (5 and 5.0 both print "#5").
func TestConstKeysMatchSpelling(t *testing.T) {
	consts := []Operand{CF(math.NaN()), CF(-math.NaN()), CF(math.Inf(1)), CF(math.Inf(-1)),
		CF(0), CF(math.Copysign(0, -1)), CI(0), CI(-1), CF(-1)}
	for _, v := range []float64{5, 0.5, 1e-5, 123456, 999999, 1e6, -999999, -1e6, 1e21, 2.5e-7, 1 << 53} {
		consts = append(consts, CF(v), CF(math.Nextafter(v, 0)), CI(int64(v)))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		n := r.Int63n(4_000_000) - 2_000_000
		consts = append(consts, CI(n), CF(float64(n)), CF(float64(n)/8), CF(r.NormFloat64()*1e7))
	}
	spelled := map[string]OpdKey{}
	keyed := map[OpdKey]string{}
	for _, c := range consts {
		k, sp := c.Key(), constSpelling(c)
		if prev, ok := spelled[sp]; ok && prev != k {
			t.Fatalf("%q keys as both %v and %v", sp, prev, k)
		}
		if prev, ok := keyed[k]; ok && prev != sp {
			t.Fatalf("key %v covers both %q and %q", k, prev, sp)
		}
		spelled[sp], keyed[k] = k, sp
	}
}

func TestInstrReplaceUses(t *testing.T) {
	in := &Instr{Kind: BinOp, Op: Add, Dst: TempOf(9, I), A: TempOf(1, I), B: TempOf(1, I)}
	n := in.ReplaceUses(TempOf(1, I), TempOf(2, I))
	if n != 2 || !in.A.Same(TempOf(2, I)) || !in.B.Same(TempOf(2, I)) {
		t.Errorf("replace: n=%d %v", n, in)
	}
	// destination must not be replaced
	if !in.Dst.Same(TempOf(9, I)) {
		t.Error("dst was replaced")
	}
}

func TestInstrClone(t *testing.T) {
	in := &Instr{Kind: Call, Callee: "f", Args: []Operand{CI(1), CI(2)}, Stmt: 3}
	c := in.Clone()
	c.Args[0] = CI(99)
	if in.Args[0].Int == 99 {
		t.Error("clone shares Args slice")
	}
}

// ---------------------------------------------------------------- interp

func TestInterpArithmetic(t *testing.T) {
	prog := build(t, `
int main() {
	int a = 7;
	int b = -3;
	print(a + b, " ", a - b, " ", a * b, " ", a / b, " ", a % b, "\n");
	print(a << 2, " ", a >> 1, " ", (a | 8), " ", (a ^ 5), "\n");
	print(a < b, a > b, a == b, a != b, a <= b, a >= b, "\n");
	float x = 2.5;
	float y = 0.5;
	print(x + y, " ", x * y, " ", x / y, "\n");
	return 0;
}`)
	_, out, err := NewInterp(prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := "4 10 -21 -2 1\n28 3 15 2\n010101\n3 1.25 5\n"
	if out != want {
		t.Errorf("got %q want %q", out, want)
	}
}

func TestInterpDivByZero(t *testing.T) {
	prog := build(t, `int main() { int z = 0; return 5 / z; }`)
	_, _, err := NewInterp(prog).Run()
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("expected division-by-zero error, got %v", err)
	}
}

func TestInterpOutOfBounds(t *testing.T) {
	prog := build(t, `int main() { int a[4]; int i = 9; a[i] = 1; return 0; }`)
	_, _, err := NewInterp(prog).Run()
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("expected bounds error, got %v", err)
	}
}

func TestInterpStepLimit(t *testing.T) {
	prog := build(t, `int main() { while (1) { } return 0; }`)
	ip := NewInterp(prog)
	ip.MaxSteps = 1000
	_, _, err := ip.Run()
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("expected step limit error, got %v", err)
	}
}

func TestInterpGlobalInit(t *testing.T) {
	prog := build(t, `
int g = 41;
float h = 0.5;
int main() { print(g, " ", h * 2.0); return g; }`)
	ret, out, err := NewInterp(prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ret != 41 || out != "41 1" {
		t.Errorf("ret=%d out=%q", ret, out)
	}
}

func TestInterpInt32Wrap(t *testing.T) {
	prog := build(t, `
int main() {
	int big = 2000000000;
	int sum = big + big;   // wraps like a 32-bit machine
	print(sum);
	return 0;
}`)
	_, out, err := NewInterp(prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out != "-294967296" {
		t.Errorf("32-bit wrap: got %q", out)
	}
}
