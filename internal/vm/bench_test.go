package vm_test

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/vm"
)

// BenchmarkRunToCompletion measures straight-line execution (Run to
// halt, no breakpoints) on the predecoded engine and on the reference
// closure-predicate loop: the pure dispatch-overhead comparison, with no
// stop positions armed.
func BenchmarkRunToCompletion(b *testing.B) {
	src := `int main() {
	int i;
	int s = 0;
	for (i = 0; i < 300000; i = i + 1) {
		s = s + i;
	}
	return s;
}
`
	res, err := compile.Compile("run.mc", src, compile.O2())
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, ref bool) {
		b.ReportAllocs()
		var instr int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := vm.New(res.Mach)
			if err != nil {
				b.Fatal(err)
			}
			if ref {
				err = v.RunUntilFunc(func(vm.Pos) bool { return false })
			} else {
				err = v.Run()
			}
			if err != nil {
				b.Fatal(err)
			}
			instr += v.Steps
		}
		b.StopTimer()
		b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "MInstr/s")
	}
	b.Run("predicate", func(b *testing.B) { run(b, true) })
	b.Run("bitmap", func(b *testing.B) { run(b, false) })
}
