package mach

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestOpdConstructorsAndString(t *testing.T) {
	cases := []struct {
		o    Opd
		want string
	}{
		{R_(3), "r3"},
		{FR(2), "f2"},
		{I_(-7), "-7"},
		{F_(2.5), "2.5"},
		{Opd{}, "_"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("%+v -> %q, want %q", c.o, got, c.want)
		}
	}
}

func TestInstrUsesAndDef(t *testing.T) {
	add := &Instr{Op: ADD, Dst: R_(1), A: R_(2), B: R_(3)}
	uses := add.Uses(nil)
	if len(uses) != 2 || !uses[0].Same(R_(2)) || !uses[1].Same(R_(3)) {
		t.Errorf("add uses = %v", uses)
	}
	if !add.Def().Same(R_(1)) {
		t.Errorf("add def = %v", add.Def())
	}

	sw := &Instr{Op: SW, A: R_(4), B: R_(5)}
	if d := sw.Def(); d.IsReg() {
		t.Errorf("store must not define a register, got %v", d)
	}
	uses = sw.Uses(nil)
	if len(uses) != 2 {
		t.Errorf("store uses = %v", uses)
	}

	swfp := &Instr{Op: SWFP, B: R_(6), Off: 8}
	uses = swfp.Uses(nil)
	if len(uses) != 1 || !uses[0].Same(R_(6)) {
		t.Errorf("swfp uses = %v", uses)
	}

	call := &Instr{Op: CALL, Callee: "f", Dst: R_(0), Args: []Opd{R_(1), I_(5), FR(0)}}
	uses = call.Uses(nil)
	if len(uses) != 2 { // immediates are not register uses
		t.Errorf("call uses = %v", uses)
	}

	// Marker aliases are diagnostic and must not count as uses.
	mark := &Instr{Op: MARKDEAD, MarkAlias: R_(7)}
	if len(mark.Uses(nil)) != 0 {
		t.Error("marker alias counted as a use")
	}
}

func TestInstrReplaceReg(t *testing.T) {
	in := &Instr{Op: ADD, Dst: R_(1), A: R_(1), B: R_(2)}
	n := in.ReplaceReg(R_(1), R_(9), false)
	if n != 1 || !in.A.Same(R_(9)) || !in.Dst.Same(R_(1)) {
		t.Errorf("use-only replace: n=%d %v", n, in)
	}
	n = in.ReplaceReg(R_(1), R_(9), true)
	if n != 1 || !in.Dst.Same(R_(9)) {
		t.Errorf("dst replace: n=%d %v", n, in)
	}
	// Float regs with the same number are distinct.
	fi := &Instr{Op: FADD, Dst: FR(1), A: FR(1), B: FR(2)}
	if fi.ReplaceReg(R_(1), R_(5), true) != 0 {
		t.Error("int replacement must not touch float registers")
	}
}

func TestLatencies(t *testing.T) {
	if MUL.Latency() <= ADD.Latency() {
		t.Error("mul should be slower than add")
	}
	if DIV.Latency() <= MUL.Latency() {
		t.Error("div should be slower than mul")
	}
	if MARKDEAD.Latency() != 0 || MARKAVAIL.Latency() != 0 {
		t.Error("markers must be free")
	}
	if LW.Latency() < 2 {
		t.Error("loads should have latency")
	}
}

func TestBlockEditing(t *testing.T) {
	b := &Block{}
	i1 := &Instr{Op: ADD}
	i2 := &Instr{Op: SUB}
	i3 := &Instr{Op: MUL}
	b.Instrs = []*Instr{i1, i3}
	b.InsertBefore(1, i2)
	if b.Instrs[1] != i2 || len(b.Instrs) != 3 {
		t.Errorf("insert: %v", b.Instrs)
	}
	b.RemoveAt(0)
	if b.Instrs[0] != i2 || len(b.Instrs) != 2 {
		t.Errorf("remove: %v", b.Instrs)
	}
}

func TestFuncNewVreg(t *testing.T) {
	f := &Func{NumVregs: 5}
	v := f.NewVreg(FloatClass)
	if v.R != 5 || v.Class != FloatClass || f.NumVregs != 6 {
		t.Errorf("NewVreg: %v, NumVregs=%d", v, f.NumVregs)
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   *Instr
		want string
	}{
		{&Instr{Op: ADD, Dst: R_(1), A: R_(2), B: I_(3), Stmt: -1}, "add r1, r2, 3"},
		{&Instr{Op: MOV, Dst: R_(0), A: I_(7), Stmt: -1}, "mov r0, 7"},
		{&Instr{Op: LW, Dst: R_(1), A: R_(2), Off: 8, Stmt: -1}, "lw r1, 8(r2)"},
		{&Instr{Op: SWFP, B: R_(3), Off: 4, Stmt: -1}, "sw.fp r3, 4(fp)"},
		{&Instr{Op: RET, Stmt: -1}, "ret"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("got %q want %q", got, c.want)
		}
	}
	// Statement suffix present when tagged.
	in := &Instr{Op: RET, Stmt: 4}
	if !strings.Contains(in.String(), "s4") {
		t.Errorf("missing stmt tag: %q", in.String())
	}
}

func TestCloneIndependence(t *testing.T) {
	in := &Instr{Op: CALL, Args: []Opd{R_(1)}, PrintFmt: []PrintArg{{Str: "x", IsStr: true}}}
	c := in.Clone()
	c.Args[0] = R_(9)
	c.PrintFmt[0].Str = "y"
	if in.Args[0].R == 9 || in.PrintFmt[0].Str == "y" {
		t.Error("clone shares slices")
	}
}

// TestRenderMatchesFmt pins the append renderer to the fmt verbs it
// replaced where the golden digests' corpus is thin: %g for float
// immediates and %q for print strings.
func TestRenderMatchesFmt(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 2.5, -1e21, 1e-7, 123456789, 1.0 / 3, math.Inf(1), math.Inf(-1), math.NaN()} {
		if got, want := F_(f).String(), fmt.Sprintf("%g", f); got != want {
			t.Errorf("F_(%v) renders %q, fmt %%g gives %q", f, got, want)
		}
	}
	s := "a\"b\\c\n\x00\xffé "
	in := &Instr{Op: PRINT, PrintFmt: []PrintArg{{Str: s, IsStr: true}, {Val: F_(1e100)}}, Stmt: 3}
	if got, want := in.String(), fmt.Sprintf("print %q, %g  ; s3", s, 1e100); got != want {
		t.Errorf("print renders %q, want %q", got, want)
	}
}
