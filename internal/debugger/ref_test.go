package debugger

import "repro/internal/vm"

// The reference debugger engine: Continue and Step as they ran before
// the predecoded bitmap engine, evaluating a closure predicate over a
// vm.Pos before every instruction. The equivalence tests and benchmarks
// hold Continue and Step byte-identical to them.

// runUntil single-steps v until stop(pos) returns true or the program
// halts: the vm package's reference loop (RunUntilFunc in its tests),
// without the entry deadline check, since no caller here arms a deadline.
func runUntil(v *vm.VM, stop func(vm.Pos) bool) error {
	for !v.Halted() {
		if stop(v.Position()) {
			return nil
		}
		if err := v.Step(); err != nil {
			return err
		}
	}
	return nil
}

// ContinueRef is Continue over the predicate loop: it builds a Pos and
// evaluates every armed breakpoint before each instruction.
func (d *Debugger) ContinueRef() (*Breakpoint, error) {
	first := true
	err := runUntil(d.VM, func(p vm.Pos) bool {
		if first {
			// Don't immediately re-trigger the breakpoint we stopped at.
			first = false
			if d.stopped != nil && d.matches(p) != nil {
				return false
			}
		}
		return d.matches(p) != nil
	})
	if err != nil {
		return nil, err
	}
	return d.afterRun()
}

// StepRef is Step over the predicate loop: it stops at the first
// statement-tagged instruction of another statement or function.
func (d *Debugger) StepRef() (*Breakpoint, error) {
	if d.VM.Halted() {
		return nil, nil
	}
	startFn := d.VM.Position().Fn
	startStmt := d.currentStmt()
	if err := d.VM.Step(); err != nil {
		return nil, err
	}
	err := runUntil(d.VM, func(p vm.Pos) bool {
		in := d.VM.CurrentInstr()
		if in == nil || in.Stmt < 0 {
			return false
		}
		return p.Fn != startFn || in.Stmt != startStmt
	})
	if err != nil {
		return nil, err
	}
	return d.afterStep()
}
