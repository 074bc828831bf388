// Package vm implements the simulator for mcc's virtual MIPS-like target.
// It executes machine code either before register allocation (virtual
// registers, one per value) or after (physical registers plus spill slots),
// counts cycles using per-opcode latencies, and exposes the debugger hooks
// the paper's model needs: run-to-breakpoint, single-step, and inspection
// of registers and memory at the stopped position.
//
// Execution has one engine. Run and RunBreaks walk the predecoded
// pc-indexed instruction array (see predecode.go) and test a breakpoint
// bitmap bit per instruction, with the step-budget and wall-clock-deadline
// checks folded into one counter examined every checkQuantum instructions;
// Step executes a single instruction on the same dispatch. The
// closure-predicate loop the engine replaced lives on in the tests as the
// differential oracle it is held byte-identical against.
package vm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/mach"
)

// ErrStepLimit is returned (wrapped) when execution exhausts MaxSteps —
// the per-session execution budget of the debug-session server.
var ErrStepLimit = errors.New("vm: step limit exceeded")

// ErrDeadline is returned (wrapped) when execution runs past the wall-clock
// deadline set by SetDeadline — the server's per-request timeout. The VM
// stays consistent at the instruction boundary where the deadline was
// noticed: cycles and position reflect exactly the instructions executed,
// so a timed-out continue still conserves the session's cycle accounting.
var ErrDeadline = errors.New("vm: deadline exceeded")

// ErrOutputLimit is returned (wrapped) when a program prints more than
// MaxOutput bytes. The VM stays consistent: everything printed before the
// limit is retained in Output, and the error is deterministic (the same
// program trips it at the same print every run).
var ErrOutputLimit = errors.New("vm: output limit exceeded")

// DefaultMaxOutput bounds Output when MaxOutput is zero. Without a bound
// a print-loop program grows the output buffer (and server memory)
// without limit.
const DefaultMaxOutput = 64 << 20

// checkQuantum is how many instructions the hot loop executes between
// slow checks (wall-clock deadline). It must be a power of two; the
// single-step path keeps the same cadence so both paths read the clock on
// the same step numbers.
const checkQuantum = 1024

// Val is one runtime value (integer word or float).
type Val struct {
	I   int64
	F   float64
	IsF bool
}

// slot is one 4-byte memory word; the simulator stores either view.
type slot struct {
	i int64
	f float64
}

// Frame is one activation record.
type Frame struct {
	Fn   *mach.Func
	IReg []int64
	FReg []float64
	Base int64 // byte address of this frame's memory area
	Args []Val

	// readyI/readyFv model result latency: the cycle at which each
	// register's value becomes available. An instruction stalls until its
	// operands are ready, so instruction scheduling measurably reduces
	// cycle counts.
	readyI  []int64
	readyFv []int64

	// code/pc drive execution: pc indexes the function's predecoded flat
	// instruction array. The debugger-visible (block, idx) position is
	// derived from pc through the predecode tables.
	code *funcCode
	pc   int32
	// where the caller wants the return value
	retDst mach.Opd
}

// Pos identifies an execution position (the debugger's program counter).
type Pos struct {
	Fn    *mach.Func
	Block *mach.Block
	Idx   int
}

// VM is the simulator.
type VM struct {
	Prog *mach.Program

	pcode *progCode
	empty *BreakSet // lazily built all-clear set backing Run

	mem   []slot // globals at [0, globalSlots), frames stacked above
	sp    int64  // next free byte address for frames
	out   strings.Builder
	stack []*Frame
	// pool holds one frame per stack depth reached so far; push reuses
	// pool[len(stack)] (see push for why that is sound).
	pool []*Frame

	Cycles int64
	Steps  int64
	// MaxSteps bounds execution (0 = default limit).
	MaxSteps int64
	// MaxOutput bounds the program-output buffer in bytes: printing past
	// it returns an error wrapping ErrOutputLimit. 0 means
	// DefaultMaxOutput; negative means unlimited.
	MaxOutput int64
	// deadline, when nonzero, is a wall-clock bound (UnixNano) checked
	// every checkQuantum steps; past it execution returns ErrDeadline.
	deadline int64

	halted bool
	retVal Val
}

// New prepares a VM for prog with main as the entry point.
func New(prog *mach.Program) (*VM, error) {
	main := prog.LookupFunc("main")
	if main == nil {
		return nil, fmt.Errorf("vm: program has no main")
	}
	vm := &VM{Prog: prog, pcode: predecode(prog), MaxSteps: 200_000_000}
	globalBytes := prog.GlobalSize
	vm.mem = make([]slot, (globalBytes/4)+4)
	vm.sp = (globalBytes + 7) &^ 3
	for obj, init := range prog.GlobalInit {
		off := prog.GlobalOff[obj] / 4
		if init.Kind == 0 {
			continue
		}
		vm.mem[off] = slot{i: init.Int, f: init.Fl}
	}
	vm.push(vm.pcode.funcs[main], 0, mach.Opd{})
	return vm, nil
}

// push activates fc on top of the stack. Frames are reused by stack
// depth: pool[d] is the frame last used at depth d, re-sliced to the
// callee's register counts and cleared, so a fresh activation reads as
// all-zero registers exactly as a newly allocated frame would. The reuse
// is sound because the stack is strictly LIFO and no *Frame outlives the
// command that reads it: callers inspect Top() only between runs, within
// one command, and never keep the pointer across a later run (a popped
// frame's contents are overwritten by the next call at its depth).
//
// Callers fill the new frame's Args (see argsAt) before pushing; New
// pushes main with no arguments.
func (vm *VM) push(fc *funcCode, nargs int, retDst mach.Opd) {
	fn := fc.fn
	nInt, nFloat := fn.NumVregs, fn.NumVregs
	if fn.Allocated {
		nInt, nFloat = mach.NumIntRegs, mach.NumFloatRegs
	}
	fr := vm.frameAt(len(vm.stack))
	fr.Fn = fn
	fr.IReg = regs(fr.IReg, nInt+1)
	fr.FReg = regs(fr.FReg, nFloat+1)
	fr.readyI = regs(fr.readyI, nInt+1)
	fr.readyFv = regs(fr.readyFv, nFloat+1)
	fr.Base = vm.sp
	fr.Args = fr.Args[:nargs]
	fr.code = fc
	fr.pc = fc.entry
	fr.retDst = retDst
	need := (fn.FrameSize + 7) &^ 3
	vm.sp += need
	for int64(len(vm.mem))*4 < vm.sp {
		vm.mem = append(vm.mem, slot{})
	}
	vm.stack = append(vm.stack, fr)
}

// frameAt returns the pooled frame for stack depth d, allocating it the
// first time execution reaches that depth.
func (vm *VM) frameAt(d int) *Frame {
	if d == len(vm.pool) {
		vm.pool = append(vm.pool, &Frame{})
	}
	return vm.pool[d]
}

// argsAt returns the argument buffer of the frame the next call will
// push, sized n: CALL evaluates its arguments straight into it.
func (vm *VM) argsAt(n int) []Val {
	fr := vm.frameAt(len(vm.stack))
	if cap(fr.Args) < n {
		fr.Args = make([]Val, n)
	}
	return fr.Args[:n]
}

// regs returns s resized to n and zeroed, reusing its backing array when
// it is large enough.
func regs[T int64 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetDeadline bounds subsequent execution by wall-clock time: once t has
// passed, execution returns an error wrapping ErrDeadline. The zero time
// clears the deadline. The check is amortized — the clock is read once
// every checkQuantum steps — so steady-state execution pays no per-step
// time syscall.
func (vm *VM) SetDeadline(t time.Time) {
	if t.IsZero() {
		vm.deadline = 0
		return
	}
	vm.deadline = t.UnixNano()
}

// checkDeadline reports ErrDeadline when the wall-clock deadline has
// already passed. RunBreaks calls it before executing anything: the in-loop checks fire only at
// checkQuantum-aligned step counts, so without the entry check a program
// shorter than checkQuantum steps — or a request admitted after its
// deadline under queueing delay — would run to completion against an
// expired deadline instead of failing fast. The clock is read only when
// a deadline is armed, so deadline-free execution still pays nothing.
func (vm *VM) checkDeadline() error {
	if vm.deadline != 0 && time.Now().UnixNano() > vm.deadline {
		name := "main"
		if fr := vm.Top(); fr != nil {
			name = fr.Fn.Name
		}
		return fmt.Errorf("%w in %s", ErrDeadline, name)
	}
	return nil
}

// Halted reports whether the program has finished.
func (vm *VM) Halted() bool { return vm.halted }

// ExitValue returns main's return value once halted.
func (vm *VM) ExitValue() int64 { return vm.retVal.I }

// Output returns everything printed so far.
func (vm *VM) Output() string { return vm.out.String() }

// Top returns the current (innermost) frame, or nil when halted.
func (vm *VM) Top() *Frame {
	if len(vm.stack) == 0 {
		return nil
	}
	return vm.stack[len(vm.stack)-1]
}

// Position returns the current execution position.
func (vm *VM) Position() Pos {
	fr := vm.Top()
	if fr == nil {
		return Pos{}
	}
	fc := fr.code
	return Pos{Fn: fr.Fn, Block: fc.blocks[fr.pc], Idx: int(fc.idxs[fr.pc])}
}

// CurrentInstr returns the instruction about to execute, or nil.
func (vm *VM) CurrentInstr() *mach.Instr {
	fr := vm.Top()
	if fr == nil {
		return nil
	}
	return fr.code.code[fr.pc].in
}

// Run executes until the program halts, on the predecoded engine.
func (vm *VM) Run() error {
	if vm.empty == nil {
		vm.empty = vm.NewBreakSet()
	}
	return vm.RunBreaks(vm.empty, false)
}

// RunBreaks executes until the current position's bit in bs is set
// (checked before each instruction), the program halts, or the step
// budget, deadline, or an execution fault cuts it off. It is the
// predecoded engine behind run-to-breakpoint and source-level step:
// dispatch walks the flat instruction array and the stop check is one
// bitmap bit test, with the budget and deadline checks folded into a
// single fused counter examined every checkQuantum instructions (and at
// every call/return, which re-establishes the per-function bitmap).
//
// When skipCurrent is set the first instruction executes unconditionally
// before stopping is considered: resuming from a breakpoint must not
// immediately re-trigger it.
func (vm *VM) RunBreaks(bs *BreakSet, skipCurrent bool) error {
	runs.Add(1)
	if bs == nil || bs.pc != vm.pcode {
		return errors.New("vm: BreakSet was compiled for a different program")
	}
	if err := vm.checkDeadline(); err != nil {
		return err
	}
	if skipCurrent && !vm.halted {
		if err := vm.Step(); err != nil {
			return err
		}
	}
	for !vm.halted {
		fr := vm.stack[len(vm.stack)-1]
		mask := bs.maskOf(fr.Fn)
		// The fused counter: instructions until the next slow check — the
		// deadline checkpoint (aligned to checkQuantum multiples of Steps,
		// the same cadence the single-step path keeps) or the step budget,
		// whichever comes first.
		n := checkQuantum - vm.Steps&(checkQuantum-1)
		if rem := vm.MaxSteps - vm.Steps; rem < n {
			n = rem
		}
		if n <= 0 {
			// Budget exhausted: a stop at the current position still wins
			// (the stop check precedes the step attempt).
			pc := fr.pc
			if mask != nil && mask[pc>>6]&(1<<(uint(pc)&63)) != 0 {
				return nil
			}
			vm.Steps++
			return fmt.Errorf("%w in %s", ErrStepLimit, fr.Fn.Name)
		}
		var steps int64
		for {
			pc := fr.pc
			if mask != nil && mask[pc>>6]&(1<<(uint(pc)&63)) != 0 {
				vm.Steps += steps
				return nil
			}
			if steps == n {
				break
			}
			steps++
			changed, err := vm.exec1(fr)
			if err != nil {
				vm.Steps += steps
				return err
			}
			if changed {
				break
			}
		}
		vm.Steps += steps
		if vm.halted {
			break
		}
		if vm.deadline != 0 && vm.Steps&(checkQuantum-1) == 0 &&
			time.Now().UnixNano() > vm.deadline {
			return fmt.Errorf("%w in %s", ErrDeadline, vm.Top().Fn.Name)
		}
	}
	return nil
}

// regVal reads an operand in frame fr.
func (vm *VM) regVal(fr *Frame, o mach.Opd) Val {
	switch o.Kind {
	case mach.Imm:
		return Val{I: o.Imm}
	case mach.FImm:
		return Val{F: o.F, IsF: true}
	case mach.Reg:
		if o.Class == mach.FloatClass {
			return Val{F: fr.FReg[o.R], IsF: true}
		}
		return Val{I: fr.IReg[o.R]}
	}
	return Val{}
}

func (vm *VM) setReg(fr *Frame, o mach.Opd, v Val) {
	if o.Kind != mach.Reg {
		return
	}
	if o.Class == mach.FloatClass {
		x := v.F
		if !v.IsF {
			x = float64(v.I)
		}
		fr.FReg[o.R] = x
		return
	}
	x := v.I
	if v.IsF {
		x = int64(v.F)
	}
	fr.IReg[o.R] = int64(int32(x))
}

// ReadMemInt reads the int word at byte address addr.
func (vm *VM) ReadMemInt(addr int64) (int64, error) {
	if addr < 0 || addr/4 >= int64(len(vm.mem)) {
		return 0, fmt.Errorf("vm: read out of bounds at %d", addr)
	}
	return vm.mem[addr/4].i, nil
}

// ReadMemFloat reads the float word at byte address addr.
func (vm *VM) ReadMemFloat(addr int64) (float64, error) {
	if addr < 0 || addr/4 >= int64(len(vm.mem)) {
		return 0, fmt.Errorf("vm: read out of bounds at %d", addr)
	}
	return vm.mem[addr/4].f, nil
}

// AddrOf returns the runtime byte address of obj in frame fr (or the global
// segment).
func (vm *VM) AddrOf(fr *Frame, obj *ast.Object) (int64, bool) {
	if off, ok := fr.Fn.FrameOff[obj]; ok {
		return fr.Base + off, true
	}
	if off, ok := vm.Prog.GlobalOff[obj]; ok {
		return off, true
	}
	return 0, false
}

// Step executes one instruction.
func (vm *VM) Step() error {
	fr := vm.Top()
	if fr == nil {
		vm.halted = true
		return nil
	}
	vm.Steps++
	if vm.Steps > vm.MaxSteps {
		return fmt.Errorf("%w in %s", ErrStepLimit, fr.Fn.Name)
	}
	if vm.deadline != 0 && vm.Steps&(checkQuantum-1) == 0 && time.Now().UnixNano() > vm.deadline {
		return fmt.Errorf("%w in %s", ErrDeadline, fr.Fn.Name)
	}
	_, err := vm.exec1(fr)
	return err
}

// exec1 executes the instruction at fr.pc, advancing pc. It reports
// whether the top frame changed (call, return, or halt), in which case
// the caller must reload its frame-derived state.
func (vm *VM) exec1(fr *Frame) (frameChanged bool, err error) {
	fc := fr.code
	d := &fc.code[fr.pc]
	in := d.in
	if in == nil {
		// Fell off an unterminated block: treat as void return.
		return true, vm.doReturn(Val{})
	}

	// Cycle accounting: one issue slot per instruction plus stalls until
	// register operands are ready; the destination becomes ready after the
	// opcode's latency. The use/def register lists were precomputed at
	// predecode time.
	if d.acct {
		issue := vm.Cycles
		for _, u := range fc.uses[d.useOff : d.useOff+d.useN] {
			var r int64
			if u.fl {
				r = fr.readyFv[u.r]
			} else {
				r = fr.readyI[u.r]
			}
			if r > issue {
				issue = r
			}
		}
		vm.Cycles = issue + 1
		if d.defsReg {
			done := issue + int64(d.lat)
			if d.defFl {
				fr.readyFv[d.defR] = done
			} else {
				fr.readyI[d.defR] = done
			}
		}
	}
	fr.pc++

	switch d.op {
	case mach.NOP, mach.MARKDEAD, mach.MARKAVAIL:
		// no effect

	case mach.MOV:
		vm.setReg(fr, in.Dst, vm.regVal(fr, in.A))

	case mach.GETP:
		if in.ParamIdx < len(fr.Args) {
			vm.setReg(fr, in.Dst, fr.Args[in.ParamIdx])
		}

	case mach.LA:
		addr, ok := vm.AddrOf(fr, in.Sym)
		if !ok {
			return false, fmt.Errorf("vm: la of unknown symbol %s", in.Sym.Name)
		}
		vm.setReg(fr, in.Dst, Val{I: addr})

	case mach.LW, mach.FLW:
		base := vm.regVal(fr, in.A).I
		addr := base + in.Off
		if addr < 0 || addr/4 >= int64(len(vm.mem)) {
			return false, fmt.Errorf("vm: %s out of bounds at %d (stmt %d in %s)", in.Op, addr, in.Stmt, fr.Fn.Name)
		}
		if in.Op == mach.FLW {
			vm.setReg(fr, in.Dst, Val{F: vm.mem[addr/4].f, IsF: true})
		} else {
			vm.setReg(fr, in.Dst, Val{I: vm.mem[addr/4].i})
		}

	case mach.SW, mach.FSW:
		base := vm.regVal(fr, in.A).I
		addr := base + in.Off
		if addr < 0 || addr/4 >= int64(len(vm.mem)) {
			return false, fmt.Errorf("vm: %s out of bounds at %d (stmt %d in %s)", in.Op, addr, in.Stmt, fr.Fn.Name)
		}
		v := vm.regVal(fr, in.B)
		if in.Op == mach.FSW {
			x := v.F
			if !v.IsF {
				x = float64(v.I)
			}
			vm.mem[addr/4] = slot{f: x}
		} else {
			vm.mem[addr/4] = slot{i: int64(int32(v.I))}
		}

	case mach.LWFP:
		vm.setReg(fr, in.Dst, Val{I: vm.mem[(fr.Base+in.Off)/4].i})
	case mach.FLWFP:
		vm.setReg(fr, in.Dst, Val{F: vm.mem[(fr.Base+in.Off)/4].f, IsF: true})
	case mach.SWFP:
		vm.mem[(fr.Base+in.Off)/4] = slot{i: vm.regVal(fr, in.B).I}
	case mach.FSWFP:
		x := vm.regVal(fr, in.B)
		f := x.F
		if !x.IsF {
			f = float64(x.I)
		}
		vm.mem[(fr.Base+in.Off)/4] = slot{f: f}

	case mach.CALL:
		callee := d.callee
		if callee == nil {
			return false, fmt.Errorf("vm: call of unknown function %q", in.Callee)
		}
		args := vm.argsAt(len(in.Args))
		for i, a := range in.Args {
			args[i] = vm.regVal(fr, a)
		}
		vm.push(callee, len(args), in.Dst)
		return true, nil

	case mach.RET:
		var v Val
		if in.A.Kind != mach.None {
			v = vm.regVal(fr, in.A)
		}
		return true, vm.doReturn(v)

	case mach.J:
		fr.pc = d.t0

	case mach.BNEZ:
		c := vm.regVal(fr, in.A)
		if c.I != 0 || (c.IsF && c.F != 0) {
			fr.pc = d.t0
		} else {
			fr.pc = d.t1
		}

	case mach.PRINT:
		if err := vm.doPrint(fr, in); err != nil {
			return false, err
		}

	default:
		v, err := vm.alu(fr, in)
		if err != nil {
			return false, fmt.Errorf("vm: %w (stmt %d in %s)", err, in.Stmt, fr.Fn.Name)
		}
		vm.setReg(fr, in.Dst, v)
	}
	return false, nil
}

// doPrint renders one PRINT into the output buffer, enforcing MaxOutput.
// Numbers format exactly as fmt's %d and %g would (strconv with the 'g'
// shortest form is the same rendering, without fmt's interface and state
// allocations). The limit is checked piece by piece, so output up to the
// limit is retained and the trip point is deterministic.
func (vm *VM) doPrint(fr *Frame, in *mach.Instr) error {
	limit := vm.MaxOutput
	if limit == 0 {
		limit = DefaultMaxOutput
	}
	var scratch [32]byte
	for _, a := range in.PrintFmt {
		num := scratch[:0]
		n := len(a.Str)
		if !a.IsStr {
			v := vm.regVal(fr, a.Val)
			if v.IsF {
				num = strconv.AppendFloat(num, v.F, 'g', -1, 64)
			} else {
				num = strconv.AppendInt(num, v.I, 10)
			}
			n = len(num)
		}
		if limit > 0 && int64(vm.out.Len())+int64(n) > limit {
			return fmt.Errorf("%w (%d bytes, stmt %d in %s)", ErrOutputLimit, limit, in.Stmt, fr.Fn.Name)
		}
		if a.IsStr {
			vm.out.WriteString(a.Str)
		} else {
			vm.out.Write(num)
		}
	}
	return nil
}

func (vm *VM) doReturn(v Val) error {
	fr := vm.stack[len(vm.stack)-1]
	vm.sp = fr.Base
	vm.stack = vm.stack[:len(vm.stack)-1]
	if len(vm.stack) == 0 {
		vm.halted = true
		vm.retVal = v
		return nil
	}
	caller := vm.Top()
	if fr.retDst.Kind == mach.Reg {
		vm.setReg(caller, fr.retDst, v)
	}
	return nil
}

func (vm *VM) alu(fr *Frame, in *mach.Instr) (Val, error) {
	a := vm.regVal(fr, in.A)
	b := vm.regVal(fr, in.B)
	ai, bi := a.I, b.I
	af, bf := a.F, b.F
	if !a.IsF {
		af = float64(a.I)
	}
	if !b.IsF {
		bf = float64(b.I)
	}
	w := func(x int64) Val { return Val{I: int64(int32(x))} }
	bl := func(c bool) Val {
		if c {
			return Val{I: 1}
		}
		return Val{I: 0}
	}
	switch in.Op {
	case mach.ADD:
		return w(ai + bi), nil
	case mach.SUB:
		return w(ai - bi), nil
	case mach.MUL:
		return w(ai * bi), nil
	case mach.DIV:
		if bi == 0 {
			return Val{}, fmt.Errorf("integer division by zero")
		}
		return w(ai / bi), nil
	case mach.REM:
		if bi == 0 {
			return Val{}, fmt.Errorf("integer remainder by zero")
		}
		return w(ai % bi), nil
	case mach.SHL:
		return w(ai << (uint(bi) & 31)), nil
	case mach.SHR:
		return w(ai >> (uint(bi) & 31)), nil
	case mach.OR:
		return w(ai | bi), nil
	case mach.XOR:
		return w(ai ^ bi), nil
	case mach.SEQ:
		return bl(ai == bi), nil
	case mach.SNE:
		return bl(ai != bi), nil
	case mach.SLT:
		return bl(ai < bi), nil
	case mach.SLE:
		return bl(ai <= bi), nil
	case mach.SGT:
		return bl(ai > bi), nil
	case mach.SGE:
		return bl(ai >= bi), nil
	case mach.NEG:
		return w(-ai), nil
	case mach.NOT:
		return bl(ai == 0 && !a.IsF), nil
	case mach.FADD:
		return Val{F: af + bf, IsF: true}, nil
	case mach.FSUB:
		return Val{F: af - bf, IsF: true}, nil
	case mach.FMUL:
		return Val{F: af * bf, IsF: true}, nil
	case mach.FDIV:
		if bf == 0 {
			return Val{}, fmt.Errorf("float division by zero")
		}
		return Val{F: af / bf, IsF: true}, nil
	case mach.FNEG:
		return Val{F: -af, IsF: true}, nil
	case mach.FSEQ:
		return bl(af == bf), nil
	case mach.FSNE:
		return bl(af != bf), nil
	case mach.FSLT:
		return bl(af < bf), nil
	case mach.FSLE:
		return bl(af <= bf), nil
	case mach.FSGT:
		return bl(af > bf), nil
	case mach.FSGE:
		return bl(af >= bf), nil
	case mach.CVTIF:
		return Val{F: float64(ai), IsF: true}, nil
	case mach.CVTFI:
		return w(int64(af)), nil
	}
	return Val{}, fmt.Errorf("unimplemented opcode %s", in.Op)
}
