// Package mach defines the instruction-level representation of mcc: a
// virtual MIPS-like load/store target. Lowering transfers the debugging
// annotations and marker pseudo-instructions from the mid-level IR onto
// machine instructions (§3 of the paper: "IR marker nodes are lowered to
// special marker instructions that convey essentially the same information").
//
// Registers are numbered virtually during lowering (one vreg per promoted
// source variable or temporary, preserving the IR's dense value space);
// register allocation later rewrites them to physical registers. Integer
// and float registers form separate classes.
package mach

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/ast"
	"repro/internal/ir"
)

// Physical register counts of the virtual target, mirroring a MIPS R3000
// with reserved registers removed (the paper notes 26 integer and 16 FP
// registers available for allocation; we reserve a few for the assembler,
// as cmcc would).
const (
	NumIntRegs   = 18
	NumFloatRegs = 12
)

// Opcode enumerates machine operations.
type Opcode int8

// Opcodes.
const (
	NOP Opcode = iota

	// Integer ALU (Dst, A, B; B may be an immediate).
	ADD
	SUB
	MUL
	DIV
	REM
	SHL
	SHR
	OR
	XOR
	SEQ
	SNE
	SLT
	SLE
	SGT
	SGE
	NEG
	NOT

	// Float ALU.
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FSEQ
	FSNE
	FSLT
	FSLE
	FSGT
	FSGE

	// Conversions.
	CVTIF // int -> float
	CVTFI // float -> int

	// Data movement.
	MOV   // Dst = A (register or immediate)
	LA    // Dst = address of Sym (global or frame object)
	LW    // Dst = int mem[A + Off]
	SW    // int mem[A + Off] = B
	FLW   // Dst = float mem[A + Off]
	FSW   // float mem[A + Off] = B
	LWFP  // Dst = int mem[fp + Off] (spill reload)
	SWFP  // int mem[fp + Off] = B (spill store)
	FLWFP // float spill reload
	FSWFP // float spill store
	GETP  // Dst = incoming parameter #ParamIdx

	// Control.
	BNEZ // branch to Succs[0] if A != 0, else Succs[1]
	J    // jump to Succs[0]
	CALL // Dst? = Callee(Args...)
	RET  // return A?

	// Pseudo.
	PRINT
	MARKDEAD  // debugger marker: dead assignment to MarkObj eliminated
	MARKAVAIL // debugger marker: redundant assignment to MarkObj eliminated
)

var opcodeNames = map[Opcode]string{
	NOP: "nop",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", REM: "rem",
	SHL: "shl", SHR: "shr", OR: "or", XOR: "xor",
	SEQ: "seq", SNE: "sne", SLT: "slt", SLE: "sle", SGT: "sgt", SGE: "sge",
	NEG: "neg", NOT: "not",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FNEG: "fneg",
	FSEQ: "fseq", FSNE: "fsne", FSLT: "fslt", FSLE: "fsle", FSGT: "fsgt", FSGE: "fsge",
	CVTIF: "cvt.if", CVTFI: "cvt.fi",
	MOV: "mov", LA: "la", LW: "lw", SW: "sw", FLW: "flw", FSW: "fsw",
	LWFP: "lw.fp", SWFP: "sw.fp", FLWFP: "flw.fp", FSWFP: "fsw.fp",
	GETP: "getp", BNEZ: "bnez", J: "j", CALL: "call", RET: "ret",
	PRINT: "print", MARKDEAD: "markdead", MARKAVAIL: "markavail",
}

func (o Opcode) String() string { return opcodeNames[o] }

// Latency returns the issue-to-result latency in cycles, used by the list
// scheduler and the simulator's cycle accounting.
func (o Opcode) Latency() int {
	switch o {
	case MUL:
		return 4
	case DIV, REM:
		return 20
	case LW, FLW, LWFP, FLWFP:
		return 2
	case FADD, FSUB, FNEG, CVTIF, CVTFI:
		return 2
	case FMUL:
		return 4
	case FDIV:
		return 12
	case FSEQ, FSNE, FSLT, FSLE, FSGT, FSGE:
		return 2
	case CALL:
		return 2
	case MARKDEAD, MARKAVAIL, NOP:
		return 0
	}
	return 1
}

// RegClass distinguishes the two register files.
type RegClass int8

// Register classes.
const (
	IntClass RegClass = iota
	FloatClass
)

// OpdKind discriminates machine operands.
type OpdKind int8

// Operand kinds.
const (
	None OpdKind = iota
	Reg          // register (virtual before allocation, physical after)
	Imm          // integer immediate
	FImm         // float immediate
)

// Opd is a machine operand.
type Opd struct {
	Kind  OpdKind
	Class RegClass
	R     int // register number
	Imm   int64
	F     float64
}

// R_ makes an integer register operand.
func R_(r int) Opd { return Opd{Kind: Reg, Class: IntClass, R: r} }

// FR makes a float register operand.
func FR(r int) Opd { return Opd{Kind: Reg, Class: FloatClass, R: r} }

// I_ makes an integer immediate.
func I_(v int64) Opd { return Opd{Kind: Imm, Imm: v} }

// F_ makes a float immediate.
func F_(v float64) Opd { return Opd{Kind: FImm, F: v} }

// IsReg reports whether o is a register operand.
func (o Opd) IsReg() bool { return o.Kind == Reg }

// Same reports operand identity.
func (o Opd) Same(p Opd) bool { return o == p }

func (o Opd) String() string { return string(o.AppendTo(nil)) }

// AppendTo appends the operand's rendering (String's text) to b.
func (o Opd) AppendTo(b []byte) []byte {
	switch o.Kind {
	case Reg:
		if o.Class == FloatClass {
			return strconv.AppendInt(append(b, 'f'), int64(o.R), 10)
		}
		return strconv.AppendInt(append(b, 'r'), int64(o.R), 10)
	case Imm:
		return strconv.AppendInt(b, o.Imm, 10)
	case FImm:
		return strconv.AppendFloat(b, o.F, 'g', -1, 64)
	}
	return append(b, '_')
}

// Instr is one machine instruction.
type Instr struct {
	Op   Opcode
	Dst  Opd
	A, B Opd
	Off  int64 // addressing offset for LW/SW/FLW/FSW

	Sym      *ast.Object // LA: global or frame object
	Callee   string
	Args     []Opd
	PrintFmt []PrintArg
	ParamIdx int

	MarkObj   *ast.Object // MARKDEAD / MARKAVAIL
	MarkAlias Opd         // optional: operand holding the eliminated value

	Stmt    int
	OrigIdx int
	Ann     ir.Ann
	// PreSched is the instruction's index within its block immediately
	// before scheduling ran (meaningful only when Func.Scheduled). The
	// pre-scheduling block order is the source-dynamic order of the
	// block's code, so comparing PreSched against a breakpoint
	// instruction's PreSched tells the debugger whether the scheduler
	// moved this instruction across the stop — OrigIdx cannot serve here
	// because passes that rebuild instructions stamp fresh emission
	// indices.
	PreSched int

	// DefObj / UseObjs tag the source variables this instruction defines
	// and reads. They are assigned at lowering time from the virtual
	// register numbering and survive register allocation (which rewrites
	// register numbers) and scheduling (which moves whole instructions),
	// so the debugger analyses can recognize source-variable accesses in
	// the final code.
	DefObj  *ast.Object
	UseObjs []*ast.Object
}

// PrintArg is one element of a PRINT.
type PrintArg struct {
	Str   string
	IsStr bool
	Val   Opd
}

// IsMarker reports whether the instruction is a debugger marker.
func (i *Instr) IsMarker() bool { return i.Op == MARKDEAD || i.Op == MARKAVAIL }

// IsTerm reports whether the instruction ends a block.
func (i *Instr) IsTerm() bool { return i.Op == BNEZ || i.Op == J || i.Op == RET }

// Uses appends the registers read by i to buf.
func (i *Instr) Uses(buf []Opd) []Opd {
	add := func(o Opd) {
		if o.IsReg() {
			buf = append(buf, o)
		}
	}
	switch i.Op {
	case SW, FSW:
		add(i.A)
		add(i.B)
	case SWFP, FSWFP:
		add(i.B)
	case CALL:
		for _, a := range i.Args {
			add(a)
		}
	case PRINT:
		for _, a := range i.PrintFmt {
			if !a.IsStr {
				add(a.Val)
			}
		}
	case MARKDEAD, MARKAVAIL:
		// MarkAlias is diagnostic only: it must not keep values alive.
	default:
		add(i.A)
		add(i.B)
	}
	return buf
}

// Def returns the register written by i, or a None operand.
func (i *Instr) Def() Opd {
	switch i.Op {
	case SW, FSW, SWFP, FSWFP, BNEZ, J, RET, PRINT, MARKDEAD, MARKAVAIL, NOP:
		return Opd{}
	case CALL:
		return i.Dst // may be None for void calls
	}
	return i.Dst
}

// ReplaceReg substitutes register old with new in all positions (including
// the destination) and reports the number of replacements.
func (i *Instr) ReplaceReg(old, new Opd, includeDst bool) int {
	n := 0
	rep := func(o *Opd) {
		if o.Same(old) {
			*o = new
			n++
		}
	}
	rep(&i.A)
	rep(&i.B)
	if includeDst {
		rep(&i.Dst)
	}
	for k := range i.Args {
		rep(&i.Args[k])
	}
	for k := range i.PrintFmt {
		if !i.PrintFmt[k].IsStr {
			rep(&i.PrintFmt[k].Val)
		}
	}
	if i.MarkAlias.Same(old) {
		i.MarkAlias = new
		n++
	}
	return n
}

// Clone returns a deep copy.
func (i *Instr) Clone() *Instr {
	c := *i
	if i.Args != nil {
		c.Args = append([]Opd(nil), i.Args...)
	}
	if i.PrintFmt != nil {
		c.PrintFmt = append([]PrintArg(nil), i.PrintFmt...)
	}
	if i.UseObjs != nil {
		c.UseObjs = append([]*ast.Object(nil), i.UseObjs...)
	}
	return &c
}

func (i *Instr) String() string { return string(i.AppendTo(nil)) }

// AppendTo appends the instruction's assembly rendering (String's text)
// to b: the single renderer behind dumps, golden digests and the
// machine-code checksums of the function cache and spill codec.
func (i *Instr) AppendTo(b []byte) []byte {
	ann := true
	switch i.Op {
	case NOP:
		return append(b, "nop"...)
	case MOV, NEG, NOT, FNEG, CVTIF, CVTFI:
		b = i.Dst.AppendTo(append(append(b, i.Op.String()...), ' '))
		b = i.A.AppendTo(append(b, ", "...))
	case LA:
		b = i.Dst.AppendTo(append(b, "la "...))
		b = append(append(b, ", "...), i.Sym.Name...)
	case LW, FLW, SW, FSW:
		v := i.Dst
		if i.Op == SW || i.Op == FSW {
			v = i.B
		}
		b = v.AppendTo(append(append(b, i.Op.String()...), ' '))
		b = strconv.AppendInt(append(b, ", "...), i.Off, 10)
		b = append(i.A.AppendTo(append(b, '(')), ')')
	case LWFP, FLWFP, SWFP, FSWFP:
		v := i.Dst
		if i.Op == SWFP || i.Op == FSWFP {
			v = i.B
		}
		b = v.AppendTo(append(append(b, i.Op.String()...), ' '))
		b = append(strconv.AppendInt(append(b, ", "...), i.Off, 10), "(fp)"...)
	case GETP:
		b = i.Dst.AppendTo(append(b, "getp "...))
		b = strconv.AppendInt(append(b, ", #"...), int64(i.ParamIdx), 10)
	case BNEZ:
		b = i.A.AppendTo(append(b, "bnez "...))
		ann = false
	case J:
		b = append(b, 'j')
		ann = false
	case RET:
		b = append(b, "ret"...)
		if i.A.Kind != None {
			b = i.A.AppendTo(append(b, ' '))
		}
		ann = false
	case CALL:
		b = append(b, "call "...)
		if i.Dst.Kind != None {
			b = append(i.Dst.AppendTo(b), ", "...)
		}
		b = append(append(b, i.Callee...), '(')
		for k, a := range i.Args {
			if k > 0 {
				b = append(b, ", "...)
			}
			b = a.AppendTo(b)
		}
		b = append(b, ')')
	case PRINT:
		b = append(b, "print "...)
		for k, a := range i.PrintFmt {
			if k > 0 {
				b = append(b, ", "...)
			}
			if a.IsStr {
				b = strconv.AppendQuote(b, a.Str)
			} else {
				b = a.Val.AppendTo(b)
			}
		}
		ann = false
	case MARKDEAD:
		b = append(append(b, "-- markdead "...), i.MarkObj.Name...)
		ann = false
	case MARKAVAIL:
		b = append(append(b, "-- markavail "...), i.MarkObj.Name...)
		ann = false
	default:
		b = i.Dst.AppendTo(append(append(b, i.Op.String()...), ' '))
		b = i.A.AppendTo(append(b, ", "...))
		b = i.B.AppendTo(append(b, ", "...))
	}
	if i.Stmt >= 0 {
		b = strconv.AppendInt(append(b, "  ; s"...), int64(i.Stmt), 10)
	}
	if !ann {
		return b
	}
	if i.Ann.Hoisted {
		b = append(b, " !hoisted"...)
	}
	if i.Ann.Sunk {
		b = append(b, " !sunk"...)
	}
	if i.Ann.ReplacedVar != nil {
		b = append(append(b, " !replaces:"...), i.Ann.ReplacedVar.Name...)
	}
	if i.Ann.Recover != nil {
		b = append(append(b, " !recover:"...), i.Ann.Recover.Var.Name...)
	}
	return b
}

// Block is one machine basic block.
type Block struct {
	ID     int
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block
	// LoopDepth is copied from the IR for spill cost heuristics.
	LoopDepth int
}

func (b *Block) String() string { return "L" + strconv.Itoa(b.ID) }

// RemoveAt deletes the instruction at idx.
func (b *Block) RemoveAt(idx int) {
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
}

// InsertBefore inserts in at position idx.
func (b *Block) InsertBefore(idx int, in *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// Term returns the terminator, or nil.
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

// Func is one machine function.
type Func struct {
	Name   string
	Decl   *ast.FuncDecl
	Blocks []*Block
	Entry  *Block

	// NumVregs counts virtual registers; vregs [0, NumVars) are the
	// promoted source variables (by Object.ID), matching the IR's value
	// space so the debugger can map variables to registers.
	NumVregs int
	NumVars  int

	// FrameObjects lists memory-allocated objects with their frame
	// offsets.
	FrameObjects []*ast.Object
	FrameOff     map[*ast.Object]int64
	FrameSize    int64

	// Allocated is set once register allocation has rewritten vregs to
	// physical registers.
	Allocated bool
	// VarLoc maps each promoted source variable to its allocated
	// location, filled by the register allocator.
	VarLoc map[*ast.Object]Loc
	// Scheduled is set once the list scheduler has run.
	Scheduled bool
}

// LocKind tells where a variable lives after allocation.
type LocKind int8

// Location kinds.
const (
	LocNone  LocKind = iota // never materialized
	LocReg                  // physical register
	LocSpill                // frame slot
)

// Loc is an allocated variable location.
type Loc struct {
	Kind  LocKind
	Class RegClass
	R     int   // physical register (LocReg)
	Off   int64 // frame offset (LocSpill)
}

func (l Loc) String() string {
	switch l.Kind {
	case LocReg:
		if l.Class == FloatClass {
			return fmt.Sprintf("f%d", l.R)
		}
		return fmt.Sprintf("r%d", l.R)
	case LocSpill:
		return fmt.Sprintf("%d(fp)", l.Off)
	}
	return "<none>"
}

// NewBlock creates and registers a fresh block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// RecomputePreds rebuilds predecessor lists.
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

// NewVreg allocates a fresh virtual register of the given class.
func (f *Func) NewVreg(class RegClass) Opd {
	r := f.NumVregs
	f.NumVregs++
	return Opd{Kind: Reg, Class: class, R: r}
}

// String renders the function for dumps and golden tests.
func (f *Func) String() string { return string(f.AppendTo(nil)) }

// AppendTo appends the function's rendering (String's text) to b.
func (f *Func) AppendTo(b []byte) []byte {
	b = append(append(b, "func "...), f.Name...)
	b = strconv.AppendInt(append(b, ":  ; frame="...), f.FrameSize, 10)
	b = append(b, " bytes\n"...)
	for _, blk := range f.Blocks {
		b = append(strconv.AppendInt(append(b, 'L'), int64(blk.ID), 10), ":\n"...)
		for _, in := range blk.Instrs {
			b = append(in.AppendTo(append(b, "    "...)), '\n')
		}
		if t := blk.Term(); t != nil {
			switch t.Op {
			case J:
				b = strconv.AppendInt(append(b, "    -> L"...), int64(blk.Succs[0].ID), 10)
				b = append(b, '\n')
			case BNEZ:
				b = strconv.AppendInt(append(b, "    -> then L"...), int64(blk.Succs[0].ID), 10)
				b = strconv.AppendInt(append(b, " else L"...), int64(blk.Succs[1].ID), 10)
				b = append(b, '\n')
			}
		}
	}
	return b
}

// Program is a lowered translation unit.
type Program struct {
	Funcs   []*Func
	Globals []*ast.Object
	// GlobalOff assigns each global an offset in the global data segment.
	GlobalOff  map[*ast.Object]int64
	GlobalSize int64
	GlobalInit map[*ast.Object]ir.Operand

	// predecoded caches the simulator's predecoded form of this program
	// (internal/vm flattens every function into a pc-indexed instruction
	// array on first execution; every VM over the program shares it). The
	// slot is opaque so mach stays free of any dependency on the
	// simulator's representation. Programs are immutable once compiled,
	// which is what makes a compute-once cache sound.
	predecodeMu sync.Mutex
	predecoded  any
}

// Predecoded returns the cached predecoded form of the program, invoking
// build exactly once (per program) to produce it. Concurrent callers
// block until the first build completes and then share its result.
func (p *Program) Predecoded(build func() any) any {
	p.predecodeMu.Lock()
	defer p.predecodeMu.Unlock()
	if p.predecoded == nil {
		p.predecoded = build()
	}
	return p.predecoded
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
func (p *Program) String() string { return string(p.AppendTo(nil)) }

// AppendTo appends the whole program's rendering (String's text) to b.
func (p *Program) AppendTo(b []byte) []byte {
	for _, f := range p.Funcs {
		b = append(f.AppendTo(b), '\n')
	}
	return b
}
