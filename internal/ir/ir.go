// Package ir defines mcc's mid-level intermediate representation: a
// control-flow graph of basic blocks holding quad-style instructions over
// compiler temporaries and promoted source variables.
//
// The IR carries the debugging bookkeeping of §3 of the paper:
//
//   - every instruction records the source statement it implements (Stmt)
//     and its original emission order (OrigIdx);
//   - instructions inserted by code motion are annotated Hoisted or Sunk;
//   - expressions that replaced a fetch of a source variable record that
//     variable (ReplacedVar) for recovery;
//   - deleted assignments are replaced by marker pseudo-instructions
//     (MarkDead, MarkAvail) that optimizations ignore but the debugger
//     analyses consume.
package ir

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ast"
)

// Ty is an IR value class: integer word (also pointers) or float.
type Ty int8

// Value classes.
const (
	I Ty = iota // 32-bit integer / pointer word
	F           // floating point
)

func (t Ty) String() string {
	if t == F {
		return "f"
	}
	return "i"
}

// TyOf maps a checked AST type to its IR value class.
func TyOf(t ast.Type) Ty {
	if ast.IsFloat(t) {
		return F
	}
	return I
}

// ---------------------------------------------------------------- operands

// OpdKind discriminates Operand.
type OpdKind int8

// Operand kinds.
const (
	NoOpd  OpdKind = iota
	Temp           // compiler temporary
	Var            // promoted source variable (non-addressed local/param)
	ConstI         // integer constant
	ConstF         // float constant
)

// Operand is one instruction operand or destination.
type Operand struct {
	Kind OpdKind
	Ty   Ty
	TID  int         // temp number (Kind == Temp)
	Obj  *ast.Object // source variable (Kind == Var)
	Int  int64       // Kind == ConstI
	Fl   float64     // Kind == ConstF
}

// TempOf makes a temp operand.
func TempOf(id int, ty Ty) Operand { return Operand{Kind: Temp, Ty: ty, TID: id} }

// VarOf makes a promoted-variable operand.
func VarOf(o *ast.Object) Operand { return Operand{Kind: Var, Ty: TyOf(o.Type), Obj: o} }

// CI makes an integer constant operand.
func CI(v int64) Operand { return Operand{Kind: ConstI, Ty: I, Int: v} }

// CF makes a float constant operand.
func CF(v float64) Operand { return Operand{Kind: ConstF, Ty: F, Fl: v} }

// IsConst reports whether o is a constant.
func (o Operand) IsConst() bool { return o.Kind == ConstI || o.Kind == ConstF }

// Valid reports whether the operand is present.
func (o Operand) Valid() bool { return o.Kind != NoOpd }

// Same reports operand identity (same temp, same variable, or equal const).
func (o Operand) Same(p Operand) bool {
	if o.Kind != p.Kind {
		return false
	}
	switch o.Kind {
	case Temp:
		return o.TID == p.TID
	case Var:
		return o.Obj == p.Obj
	case ConstI:
		return o.Int == p.Int
	case ConstF:
		return o.Fl == p.Fl
	}
	return true
}

// OpdKey identifies an operand within a function for redundancy keys.
// It is comparable, so passes use it (and ExprKey) directly as a map key.
//
// Keys fall into the same classes as the operands' spellings t<id>,
// v<id>, #<int> and #<float>: a float constant spelled like an integer
// (5.0 prints as "5") keys equal to that integer constant, and every NaN
// keys alike. A Var is keyed by its object ID alone; the checker numbers a
// function's locals densely, and Var operands only name that function's
// locals, so the ID determines the object and its name.
type OpdKey struct {
	Kind OpdKind
	V    int64 // temp number, object ID, integer value or float bits
}

// nanBits is the single key payload shared by every NaN.
const nanBits = 0x7ff8000000000001

// Key returns the operand's redundancy key.
func (o Operand) Key() OpdKey {
	switch o.Kind {
	case Temp:
		return OpdKey{Temp, int64(o.TID)}
	case Var:
		return OpdKey{Var, int64(o.Obj.ID)}
	case ConstI:
		return OpdKey{ConstI, o.Int}
	case ConstF:
		f := o.Fl
		switch {
		case f != f:
			return OpdKey{ConstF, nanBits}
		case f == math.Trunc(f) && math.Abs(f) < 1e6 && !(f == 0 && math.Signbit(f)):
			// %g prints integral floats below 1e6 without exponent or
			// fraction, exactly as %d prints the integer.
			return OpdKey{ConstI, int64(f)}
		}
		return OpdKey{ConstF, int64(math.Float64bits(f))}
	}
	return OpdKey{}
}

// less is a total order on keys, used to canonicalize commutative operands.
func (k OpdKey) less(l OpdKey) bool {
	if k.Kind != l.Kind {
		return k.Kind < l.Kind
	}
	return k.V < l.V
}

func (o Operand) String() string {
	switch o.Kind {
	case Temp:
		return fmt.Sprintf("t%d", o.TID)
	case Var:
		return o.Obj.Name
	case ConstI:
		return fmt.Sprintf("%d", o.Int)
	case ConstF:
		return fmt.Sprintf("%g", o.Fl)
	}
	return "_"
}

// ---------------------------------------------------------------- ops

// Op is an arithmetic/comparison/conversion operator.
type Op int8

// Operators.
const (
	Add Op = iota
	Sub
	Mul
	Div
	Rem
	Shl
	Shr
	BOr
	BXor
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	Neg  // unary minus
	Not  // logical not (x == 0)
	CvIF // int -> float
	CvFI // float -> int (truncate)
)

var opNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	Shl: "shl", Shr: "shr", BOr: "or", BXor: "xor",
	Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
	Neg: "neg", Not: "not", CvIF: "cvif", CvFI: "cvfi",
}

func (o Op) String() string { return opNames[o] }

// IsCmp reports whether the op is a comparison (always yields int 0/1).
func (o Op) IsCmp() bool { return o >= Eq && o <= Ge }

// IsCommutative reports whether a op b == b op a.
func (o Op) IsCommutative() bool {
	switch o {
	case Add, Mul, BOr, BXor, Eq, Ne:
		return true
	}
	return false
}

// ---------------------------------------------------------------- instrs

// Kind identifies the instruction form.
type Kind int8

// Instruction kinds.
const (
	BinOp    Kind = iota // Dst = A Op B
	UnOp                 // Dst = Op A
	Copy                 // Dst = A
	Load                 // Dst = mem[A + Off]
	Store                // mem[A + Off] = B
	Addr                 // Dst = address of AddrObj (global / frame object)
	Call                 // Dst? = Callee(Args...)
	Print                // print(PrintArgs...)
	Ret                  // return A?
	Jmp                  // goto Succs[0]
	Br                   // if A != 0 goto Succs[0] else Succs[1]
	GetParam             // Dst = incoming parameter #ParamIdx

	// Debugger marker pseudo-instructions (§3 of the paper). They are
	// ignored by optimizations and carry no runtime semantics.
	MarkDead  // an assignment to MarkObj at Stmt was deleted as dead
	MarkAvail // an assignment to MarkObj at Stmt was deleted as redundant
)

// Ann holds the per-instruction debugging annotations of §3.
type Ann struct {
	// Hoisted marks code inserted by a hoisting transformation (PRE
	// insertion, loop-invariant code motion). A hoisted assignment to a
	// source variable generates hoist reach.
	Hoisted bool
	// Sunk marks code inserted by a sinking transformation (partial dead
	// code elimination).
	Sunk bool
	// InsertedBy names the optimization pass that synthesized this
	// instruction ("" for code emitted from source).
	InsertedBy string
	// ReplacedVar, when non-nil, records that this instruction's value
	// replaced a fetch of the given source variable in the original
	// program (copy/assignment propagation); the variable's value can be
	// recovered from this instruction's result (§2.5).
	ReplacedVar *ast.Object
	// Recover, when non-nil, describes a linear recovery V = (value-B)/A
	// established by induction-variable elimination; the debugger can
	// reconstruct V from the strength-reduced temporary.
	Recover *LinRecovery
}

// LinRecovery records V = (X - B) / A where X is this instruction's result.
type LinRecovery struct {
	Var  *ast.Object
	A, B int64
}

// Instr is one IR instruction. A single struct (rather than an interface
// per kind) keeps rewriting passes simple: they mutate fields in place.
type Instr struct {
	Kind Kind
	Op   Op
	Dst  Operand // destination (Temp or Var); NoOpd if none
	A, B Operand // operands
	Off  int64   // constant addressing offset for Load/Store

	AddrObj  *ast.Object // Addr: the object whose address is taken
	Callee   string      // Call
	Args     []Operand   // Call
	PrintFmt []PrintArg  // Print
	ParamIdx int         // GetParam

	MarkObj *ast.Object // MarkDead / MarkAvail

	// Source bookkeeping.
	Stmt    int // source statement ID; -1 for synthesized code
	OrigIdx int // emission sequence number, for scheduling analysis

	Ann Ann
}

// PrintArg is one element of a print instruction.
type PrintArg struct {
	Str   string
	IsStr bool
	Val   Operand
}

// IsMarker reports whether the instruction is a debugger marker.
func (i *Instr) IsMarker() bool { return i.Kind == MarkDead || i.Kind == MarkAvail }

// IsTerm reports whether the instruction ends a basic block.
func (i *Instr) IsTerm() bool { return i.Kind == Jmp || i.Kind == Br || i.Kind == Ret }

// HasDst reports whether the instruction writes a destination operand.
func (i *Instr) HasDst() bool { return i.Dst.Valid() }

// Uses appends the operands read by the instruction to buf and returns it.
func (i *Instr) Uses(buf []Operand) []Operand {
	switch i.Kind {
	case BinOp, Store:
		buf = appendUse(appendUse(buf, i.A), i.B)
	case UnOp, Copy, Load, Br, Ret:
		buf = appendUse(buf, i.A)
	case Call:
		for _, a := range i.Args {
			buf = appendUse(buf, a)
		}
	case Print:
		for _, a := range i.PrintFmt {
			if !a.IsStr {
				buf = appendUse(buf, a.Val)
			}
		}
	}
	return buf
}

// appendUse appends o to buf when it is a temp or variable.
func appendUse(buf []Operand, o Operand) []Operand {
	if o.Kind == Temp || o.Kind == Var {
		buf = append(buf, o)
	}
	return buf
}

// Reads reports whether the instruction reads the temp or variable o, as
// one of the operands Uses returns.
func (i *Instr) Reads(o Operand) bool {
	if o.Kind != Temp && o.Kind != Var {
		return false
	}
	switch i.Kind {
	case BinOp, Store:
		return i.A.Same(o) || i.B.Same(o)
	case UnOp, Copy, Load, Br, Ret:
		return i.A.Same(o)
	case Call:
		for _, a := range i.Args {
			if a.Same(o) {
				return true
			}
		}
	case Print:
		for _, a := range i.PrintFmt {
			if !a.IsStr && a.Val.Same(o) {
				return true
			}
		}
	}
	return false
}

// ReplaceUses substitutes operand old with new in all use positions,
// returning the number of replacements.
func (i *Instr) ReplaceUses(old, new Operand) int {
	n := 0
	rep := func(o *Operand) {
		if o.Same(old) {
			*o = new
			n++
		}
	}
	switch i.Kind {
	case BinOp:
		rep(&i.A)
		rep(&i.B)
	case Store:
		rep(&i.A)
		rep(&i.B)
	case UnOp, Copy, Load, Br, Ret:
		rep(&i.A)
	case Call:
		for k := range i.Args {
			rep(&i.Args[k])
		}
	case Print:
		for k := range i.PrintFmt {
			if !i.PrintFmt[k].IsStr {
				rep(&i.PrintFmt[k].Val)
			}
		}
	}
	return n
}

// ExprKey identifies the value computed by a BinOp/UnOp/Copy/Addr
// instruction, for redundancy detection. Fields an instruction form does
// not read are zero, so two instructions have equal keys exactly when they
// compute the same expression.
type ExprKey struct {
	Kind Kind
	Op   Op
	A, B OpdKey
	// Name and Global complete an Addr's object identity. Globals and a
	// function's locals are numbered separately, so a local shadowing a
	// global can share its ID and name; only the scope tells them apart.
	Name   string
	Global bool
}

// ExprKey returns the instruction's expression key; commutative operands
// are ordered canonically. ok is false for instructions whose value cannot
// be keyed (calls, and loads, which are not pure across stores).
func (i *Instr) ExprKey() (k ExprKey, ok bool) {
	switch i.Kind {
	case BinOp:
		a, b := i.A.Key(), i.B.Key()
		if i.Op.IsCommutative() && b.less(a) {
			a, b = b, a
		}
		return ExprKey{Kind: BinOp, Op: i.Op, A: a, B: b}, true
	case UnOp:
		return ExprKey{Kind: UnOp, Op: i.Op, A: i.A.Key()}, true
	case Copy:
		return ExprKey{Kind: Copy, A: i.A.Key()}, true
	case Addr:
		o := i.AddrObj
		return ExprKey{Kind: Addr, A: OpdKey{Var, int64(o.ID)}, Name: o.Name, Global: o.Kind == ast.ObjGlobal}, true
	}
	return ExprKey{}, false
}

// Clone returns a deep copy of the instruction (slices copied).
func (i *Instr) Clone() *Instr {
	c := *i
	if i.Args != nil {
		c.Args = append([]Operand(nil), i.Args...)
	}
	if i.PrintFmt != nil {
		c.PrintFmt = append([]PrintArg(nil), i.PrintFmt...)
	}
	return &c
}

func (i *Instr) String() string {
	ann := ""
	if i.Ann.Hoisted {
		ann += " !hoisted"
	}
	if i.Ann.Sunk {
		ann += " !sunk"
	}
	if i.Ann.ReplacedVar != nil {
		ann += " !replaces:" + i.Ann.ReplacedVar.Name
	}
	if i.Ann.Recover != nil {
		ann += fmt.Sprintf(" !recover:%s=(x-%d)/%d", i.Ann.Recover.Var.Name, i.Ann.Recover.B, i.Ann.Recover.A)
	}
	stmt := ""
	if i.Stmt >= 0 {
		stmt = fmt.Sprintf("  ; s%d", i.Stmt)
	}
	switch i.Kind {
	case BinOp:
		return fmt.Sprintf("%s = %s %s, %s%s%s", i.Dst, i.Op, i.A, i.B, stmt, ann)
	case UnOp:
		return fmt.Sprintf("%s = %s %s%s%s", i.Dst, i.Op, i.A, stmt, ann)
	case Copy:
		return fmt.Sprintf("%s = %s%s%s", i.Dst, i.A, stmt, ann)
	case Load:
		return fmt.Sprintf("%s = load [%s+%d]%s%s", i.Dst, i.A, i.Off, stmt, ann)
	case Store:
		return fmt.Sprintf("store [%s+%d] = %s%s%s", i.A, i.Off, i.B, stmt, ann)
	case Addr:
		return fmt.Sprintf("%s = addr %s%s%s", i.Dst, i.AddrObj.Name, stmt, ann)
	case Call:
		if i.Dst.Valid() {
			return fmt.Sprintf("%s = call %s(%s)%s%s", i.Dst, i.Callee, opdList(i.Args), stmt, ann)
		}
		return fmt.Sprintf("call %s(%s)%s%s", i.Callee, opdList(i.Args), stmt, ann)
	case Print:
		var parts []string
		for _, a := range i.PrintFmt {
			if a.IsStr {
				parts = append(parts, fmt.Sprintf("%q", a.Str))
			} else {
				parts = append(parts, a.Val.String())
			}
		}
		return fmt.Sprintf("print %s%s", strings.Join(parts, ", "), stmt)
	case Ret:
		if i.A.Valid() {
			return fmt.Sprintf("ret %s%s", i.A, stmt)
		}
		return "ret" + stmt
	case Jmp:
		return "jmp" + stmt
	case Br:
		return fmt.Sprintf("br %s%s", i.A, stmt)
	case GetParam:
		return fmt.Sprintf("%s = param %d%s", i.Dst, i.ParamIdx, stmt)
	case MarkDead:
		return fmt.Sprintf("-- marker: dead assignment to %s  ; s%d", i.MarkObj.Name, i.Stmt)
	case MarkAvail:
		return fmt.Sprintf("-- marker: redundant assignment to %s  ; s%d", i.MarkObj.Name, i.Stmt)
	}
	return "?"
}

func opdList(os []Operand) string {
	parts := make([]string, len(os))
	for i, o := range os {
		parts[i] = o.String()
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------- blocks

// Block is one basic block. The last instruction is the terminator; Succs
// mirror the terminator (Br: Succs[0]=taken, Succs[1]=fallthrough).
type Block struct {
	ID     int
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block

	// LoopDepth is filled by loop analysis for spill heuristics.
	LoopDepth int
}

// Term returns the block terminator, or nil if the block is unterminated.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.IsTerm() {
		return nil
	}
	return t
}

// Body returns the instructions excluding the terminator.
func (b *Block) Body() []*Instr {
	if b.Term() != nil {
		return b.Instrs[:len(b.Instrs)-1]
	}
	return b.Instrs
}

// InsertBefore inserts instr at position idx.
func (b *Block) InsertBefore(idx int, in *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// AppendBeforeTerm appends in just before the terminator.
func (b *Block) AppendBeforeTerm(in *Instr) {
	if b.Term() == nil {
		b.Instrs = append(b.Instrs, in)
		return
	}
	b.InsertBefore(len(b.Instrs)-1, in)
}

// RemoveAt deletes the instruction at idx.
func (b *Block) RemoveAt(idx int) {
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
}

// ReplaceSucc rewires an edge from old to new in Succs.
func (b *Block) ReplaceSucc(old, new *Block) {
	for i, s := range b.Succs {
		if s == old {
			b.Succs[i] = new
		}
	}
}

func (b *Block) String() string { return fmt.Sprintf("B%d", b.ID) }

// ---------------------------------------------------------------- funcs

// Func is one IR function.
type Func struct {
	Name   string
	Decl   *ast.FuncDecl
	Blocks []*Block // Blocks[0] is the entry
	Entry  *Block

	NumTemps int
	nextBID  int
	nextOrig int

	// FrameObjects lists memory-allocated objects in this frame (arrays
	// and addressed scalars), in allocation order.
	FrameObjects []*ast.Object
}

// NewBlock creates and registers a fresh block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBID}
	f.nextBID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewTemp allocates a fresh temporary of class ty.
func (f *Func) NewTemp(ty Ty) Operand {
	t := TempOf(f.NumTemps, ty)
	f.NumTemps++
	return t
}

// NextOrig returns the next emission sequence number.
func (f *Func) NextOrig() int {
	f.nextOrig++
	return f.nextOrig - 1
}

// RecomputePreds rebuilds all Preds lists from Succs.
func (f *Func) RecomputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

// RemoveUnreachable deletes blocks not reachable from the entry and
// migrates debugger markers from deleted blocks to their (reachable)
// successors, per the "basic block deletion" bookkeeping rule of §3.
// Unreachable code would never have executed, so markers in a block that is
// deleted because it became empty are transferred by the branch passes, not
// here; markers in truly unreachable code are dropped along with the code.
func (f *Func) RemoveUnreachable() {
	reach := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(f.Entry)
	var keep []*Block
	for _, b := range f.Blocks {
		if reach[b] {
			keep = append(keep, b)
		}
	}
	f.Blocks = keep
	f.RecomputePreds()
}

// RPO returns the blocks in reverse postorder from the entry.
func (f *Func) RPO() []*Block {
	seen := map[*Block]bool{}
	var post []*Block
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
		post = append(post, b)
	}
	walk(f.Entry)
	out := make([]*Block, len(post))
	for i, b := range post {
		out[len(post)-1-i] = b
	}
	return out
}

// String renders the function IR for dumps and golden tests.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s:\n", f.Name)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:", blk)
		if len(blk.Preds) > 0 {
			fmt.Fprintf(&b, "  ; preds=%v", blk.Preds)
		}
		b.WriteByte('\n')
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "    %s\n", in)
		}
		if t := blk.Term(); t != nil {
			switch t.Kind {
			case Jmp:
				fmt.Fprintf(&b, "    -> %s\n", blk.Succs[0])
			case Br:
				fmt.Fprintf(&b, "    -> then %s else %s\n", blk.Succs[0], blk.Succs[1])
			}
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- program

// Program is the IR for a whole translation unit.
type Program struct {
	Funcs   []*Func
	Globals []*ast.Object
	// GlobalInit holds constant initial values for scalar globals,
	// keyed by object; arrays are zero-initialized.
	GlobalInit map[*ast.Object]Operand
}

// LookupFunc finds a function by name, or nil.
func (p *Program) LookupFunc(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// String renders the whole program.
func (p *Program) String() string {
	var b strings.Builder
	for _, f := range p.Funcs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}
