// Predecoded dispatch: every mach.Func is flattened once into a dense,
// pc-indexed instruction array so the execution hot loop is an array walk
// instead of block-pointer/index chasing. The flattening also precomputes
// everything the per-instruction work used to rediscover on every step:
// the register uses/def for cycle accounting (mach.Instr.Uses allocates a
// buffer walk per instruction), the resolved callee of every CALL
// (LookupFunc is a linear scan), and branch targets as pc values.
//
// The predecoded form is computed once per mach.Program — cached on the
// program itself via Program.Predecoded — and shared by every VM that
// executes it, so a server holding one artifact open across thousands of
// sessions pays the flattening once.
package vm

import (
	"sync/atomic"

	"repro/internal/mach"
)

// dinstr is one predecoded instruction slot.
type dinstr struct {
	// in is the original machine instruction, nil for the implicit-return
	// sentinel appended after a block that falls off its end without a
	// terminator (the VM treats that as a void return).
	in *mach.Instr
	op mach.Opcode

	// t0/t1 are branch-target pcs: J goes to t0, BNEZ to t0 when taken and
	// t1 when not.
	t0, t1 int32

	// callee is the predecoded target of a CALL, nil when the callee does
	// not exist (the error is reported at execution time, like before).
	callee *funcCode

	// Cycle accounting, precomputed from Uses/Def/Latency. acct is false
	// for NOP and the marker pseudo-instructions (they cost nothing).
	acct    bool
	lat     int32
	useOff  int32
	useN    int32
	defsReg bool
	defFl   bool
	defR    int32
}

// useRef is one register read for cycle accounting.
type useRef struct {
	fl bool
	r  int32
}

// funcCode is the predecoded form of one function.
type funcCode struct {
	fn    *mach.Func
	code  []dinstr
	uses  []useRef // shared backing for dinstr.useOff/useN
	entry int32

	// blocks/idxs map a pc back to the debugger-visible position (the
	// block and index within it). The sentinel pc of a fall-off block maps
	// to idx == len(block.Instrs), exactly where the legacy interpreter's
	// cursor sat when it noticed the fall-off.
	blocks []*mach.Block
	idxs   []int32

	// startOf maps each block to the pc of its first slot, so a
	// debuginfo.Loc{Block, Idx} becomes pc = startOf[Block] + Idx.
	startOf map[*mach.Block]int32

	// stmtMask has one bit per pc, set where the instruction carries a
	// source-statement tag (Stmt >= 0): the stopping points of
	// source-level single-stepping.
	stmtMask []uint64
}

// progCode is the predecoded form of one program.
type progCode struct {
	prog  *mach.Program
	funcs map[*mach.Func]*funcCode
}

// predecode builds (or fetches) the shared predecoded form of prog.
func predecode(prog *mach.Program) *progCode {
	return prog.Predecoded(func() any {
		pc := &progCode{prog: prog, funcs: make(map[*mach.Func]*funcCode, len(prog.Funcs))}
		for _, f := range prog.Funcs {
			pc.funcs[f] = flatten(f)
		}
		// Resolve CALL targets in a second pass so mutual recursion works.
		for _, fc := range pc.funcs {
			for i := range fc.code {
				d := &fc.code[i]
				if d.in != nil && d.op == mach.CALL {
					if callee := prog.LookupFunc(d.in.Callee); callee != nil {
						d.callee = pc.funcs[callee]
					}
				}
			}
		}
		return pc
	}).(*progCode)
}

// flatten lays f's blocks out in order, appending an implicit-return
// sentinel after every block that does not end in a terminator.
func flatten(f *mach.Func) *funcCode {
	fc := &funcCode{fn: f, startOf: make(map[*mach.Block]int32, len(f.Blocks))}
	for _, b := range f.Blocks {
		fc.startOf[b] = int32(len(fc.code))
		for idx, in := range b.Instrs {
			d := decodeOne(fc, in)
			fc.code = append(fc.code, d)
			fc.blocks = append(fc.blocks, b)
			fc.idxs = append(fc.idxs, int32(idx))
		}
		if b.Term() == nil {
			// Fall-off: executing this slot performs a void return.
			fc.code = append(fc.code, dinstr{op: mach.RET})
			fc.blocks = append(fc.blocks, b)
			fc.idxs = append(fc.idxs, int32(len(b.Instrs)))
		}
	}
	// Branch targets need every block's start pc, so resolve them after
	// the layout pass.
	for i := range fc.code {
		d := &fc.code[i]
		if d.in == nil {
			continue
		}
		switch d.op {
		case mach.J:
			d.t0 = fc.startOf[fc.blocks[i].Succs[0]]
		case mach.BNEZ:
			d.t0 = fc.startOf[fc.blocks[i].Succs[0]]
			d.t1 = fc.startOf[fc.blocks[i].Succs[1]]
		}
	}
	fc.stmtMask = make([]uint64, (len(fc.code)+63)/64)
	for i, d := range fc.code {
		if d.in != nil && d.in.Stmt >= 0 {
			fc.stmtMask[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	fc.entry = fc.startOf[f.Entry]
	return fc
}

// decodeOne precomputes the per-instruction cycle-accounting inputs.
func decodeOne(fc *funcCode, in *mach.Instr) dinstr {
	d := dinstr{in: in, op: in.Op}
	if in.Op == mach.NOP || in.IsMarker() {
		return d
	}
	d.acct = true
	d.lat = int32(in.Op.Latency())
	var buf [8]mach.Opd
	d.useOff = int32(len(fc.uses))
	for _, u := range in.Uses(buf[:0]) {
		fc.uses = append(fc.uses, useRef{fl: u.Class == mach.FloatClass, r: int32(u.R)})
	}
	d.useN = int32(len(fc.uses)) - d.useOff
	if def := in.Def(); def.IsReg() {
		d.defsReg = true
		d.defFl = def.Class == mach.FloatClass
		d.defR = int32(def.R)
	}
	return d
}

// pcOf maps a (block, idx) position to its pc. idx may equal
// len(block.Instrs) only for fall-off blocks (the sentinel slot).
func (fc *funcCode) pcOf(b *mach.Block, idx int) (int32, bool) {
	start, ok := fc.startOf[b]
	if !ok {
		return 0, false
	}
	pc := start + int32(idx)
	if pc < 0 || int(pc) >= len(fc.code) || fc.blocks[pc] != b {
		return 0, false
	}
	return pc, true
}

// BreakSet is a compiled set of stop positions over one program: one bit
// per predecoded pc. The run loop tests a single bit before
// each instruction instead of building a Pos and calling a predicate
// closure. A BreakSet is only valid for VMs over the program it was
// compiled for.
type BreakSet struct {
	pc    *progCode
	masks map[*mach.Func][]uint64

	// stepMode: functions without an explicit mask stop at every
	// statement-boundary instruction (the source-level step rule) instead
	// of never stopping.
	stepMode bool
}

// NewBreakSet returns an empty stop set for the VM's program. Add stop
// positions with Add; pass the set to RunBreaks.
func (vm *VM) NewBreakSet() *BreakSet {
	return &BreakSet{pc: vm.pcode, masks: map[*mach.Func][]uint64{}}
}

// Add arms a stop at instruction idx of block b in fn. It reports whether
// the position exists in the predecoded layout.
func (bs *BreakSet) Add(fn *mach.Func, b *mach.Block, idx int) bool {
	fc, ok := bs.pc.funcs[fn]
	if !ok {
		return false
	}
	pc, ok := fc.pcOf(b, idx)
	if !ok {
		return false
	}
	m := bs.masks[fn]
	if m == nil {
		m = make([]uint64, len(fc.stmtMask))
		bs.masks[fn] = m
	}
	m[pc>>6] |= 1 << (uint(pc) & 63)
	return true
}

// maskOf returns fn's stop bitmap, or nil when execution never stops in
// fn.
func (bs *BreakSet) maskOf(fn *mach.Func) []uint64 {
	if m, ok := bs.masks[fn]; ok {
		return m
	}
	if bs.stepMode {
		if fc, ok := bs.pc.funcs[fn]; ok {
			return fc.stmtMask
		}
	}
	return nil
}

// StepBreakSet compiles the source-level single-step stop rule into a
// BreakSet: execution stops at any statement-tagged instruction of a
// function other than fn, and at any statement-tagged instruction of fn
// whose statement differs from stmt.
func (vm *VM) StepBreakSet(fn *mach.Func, stmt int) *BreakSet {
	bs := &BreakSet{pc: vm.pcode, masks: map[*mach.Func][]uint64{}, stepMode: true}
	fc, ok := vm.pcode.funcs[fn]
	if !ok {
		return bs
	}
	m := make([]uint64, len(fc.stmtMask))
	copy(m, fc.stmtMask)
	for i, d := range fc.code {
		if d.in != nil && d.in.Stmt >= 0 && d.in.Stmt == stmt {
			m[i>>6] &^= 1 << (uint(i) & 63)
		}
	}
	bs.masks[fn] = m
	return bs
}

// runs counts RunBreaks invocations (Run included), process-wide.
var runs atomic.Int64

// Runs reports how many run-to-stop invocations (RunBreaks, Run) the
// process has made since it started.
func Runs() int64 { return runs.Load() }
