package vm

// RunUntilFunc is the reference run loop: it builds a Pos and calls stop
// before every instruction, single-stepping through Step, until stop
// returns true or the program halts. It was the engine behind
// run-to-breakpoint before the predecoded bitmap loop; it stays here as
// the differential oracle RunBreaks is held byte-identical against (same
// stops, Steps, Cycles, output and errors). Exported so the external
// benchmarks can time it as the baseline.
func (vm *VM) RunUntilFunc(stop func(Pos) bool) error {
	if err := vm.checkDeadline(); err != nil {
		return err
	}
	for !vm.halted {
		if stop(vm.Position()) {
			return nil
		}
		if err := vm.Step(); err != nil {
			return err
		}
	}
	return nil
}
