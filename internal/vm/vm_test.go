package vm

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/opt"
	"repro/internal/sem"
)

// compile builds mach code at the given optimization level.
func compile(t *testing.T, src string, o opt.Options) (*ir.Program, *VM) {
	t.Helper()
	p, err := sem.CheckSource("test.mc", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	prog := ir.Build(p)
	opt.Run(prog, o)
	mp := lower.Lower(prog)
	vm, err := New(mp)
	if err != nil {
		t.Fatal(err)
	}
	return prog, vm
}

// differential checks IR interpretation and VM execution agree.
func differential(t *testing.T, src string, o opt.Options) *VM {
	t.Helper()
	prog, vm := compile(t, src, o)
	wantRet, wantOut, err := ir.NewInterp(prog).Run()
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if err := vm.Run(); err != nil {
		t.Fatalf("vm: %v", err)
	}
	if vm.ExitValue() != wantRet {
		t.Errorf("exit: vm=%d interp=%d", vm.ExitValue(), wantRet)
	}
	if vm.Output() != wantOut {
		t.Errorf("output: vm=%q interp=%q", vm.Output(), wantOut)
	}
	return vm
}

const progAll = `
int g = 7;
float fg = 1.5;
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
int sumArr(int a[], int n) {
	int s = 0;
	int i;
	for (i = 0; i < n; i++) { s += a[i]; }
	return s;
}
void fill(int *p, int n, int base) {
	int i;
	for (i = 0; i < n; i++) { p[i] = base + i * i; }
}
float mean(float a[], int n) {
	float s = 0.0;
	int i;
	for (i = 0; i < n; i++) { s = s + a[i]; }
	return s / float(n);
}
int main() {
	int buf[10];
	fill(buf, 10, g);
	int s = sumArr(buf, 10);
	float fa[4];
	int i;
	for (i = 0; i < 4; i++) { fa[i] = fg * float(i); }
	float m = mean(fa, 4);
	print("fib=", fib(10), " s=", s, " m=", m, "\n");
	int x = 3;
	int *p = &x;
	*p = *p * 2;
	do { x--; } while (x > 4);
	print("x=", x, "\n");
	return s;
}
`

func TestVMDifferentialO0(t *testing.T) { differential(t, progAll, opt.O0()) }
func TestVMDifferentialO1(t *testing.T) { differential(t, progAll, opt.O1()) }
func TestVMDifferentialO2(t *testing.T) { differential(t, progAll, opt.O2()) }

func TestVMCycles(t *testing.T) {
	vm0 := differential(t, progAll, opt.O0())
	vm2 := differential(t, progAll, opt.O2())
	if vm0.Cycles == 0 || vm2.Cycles == 0 {
		t.Fatal("cycle counting inactive")
	}
	if vm2.Cycles >= vm0.Cycles {
		t.Errorf("O2 (%d cycles) should beat O0 (%d cycles)", vm2.Cycles, vm0.Cycles)
	}
}

func TestVMStepAndPosition(t *testing.T) {
	_, vm := compile(t, `int main() { int x = 1; int y = x + 2; print(y); return y; }`, opt.O0())
	steps := 0
	for !vm.Halted() {
		if vm.CurrentInstr() == nil && vm.Top() != nil {
			// fell off block end: Step handles it
		}
		if err := vm.Step(); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 1000 {
			t.Fatal("runaway")
		}
	}
	if vm.ExitValue() != 3 {
		t.Errorf("exit = %d, want 3", vm.ExitValue())
	}
	if vm.Output() != "3" {
		t.Errorf("output = %q", vm.Output())
	}
}

func TestVMRunUntil(t *testing.T) {
	_, vm := compile(t, `
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 5; i++) { s += i; }
	print(s);
	return s;
}`, opt.O0())
	// Stop at the first print instruction.
	err := vm.RunUntilFunc(func(p Pos) bool {
		in := vm.CurrentInstr()
		return in != nil && in.Op.String() == "print"
	})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Halted() {
		t.Fatal("should have stopped at print")
	}
	if vm.Output() != "" {
		t.Errorf("print already executed")
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.Output() != "10" {
		t.Errorf("output = %q", vm.Output())
	}
}

func TestVMGlobals(t *testing.T) {
	differential(t, `
int counter = 100;
float ratio = 0.25;
int bump() { counter = counter + 1; return counter; }
int main() {
	bump(); bump();
	print(counter, " ", ratio * 4.0, "\n");
	return counter;
}`, opt.O2())
}
