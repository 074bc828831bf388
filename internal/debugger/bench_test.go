package debugger

import (
	"strings"
	"testing"

	"repro/internal/compile"
)

// Continue-to-breakpoint throughput on the predecoded bitmap engine
// (Continue) and on the reference closure-predicate engine (ContinueRef).

const hotLoopSrc = `int main() {
	int i;
	int s = 0;
	for (i = 0; i < 100000000; i = i + 1) {
		s = s + i;
		if (s > 1000000000) {
			s = s - 1000000000;
		}
	}
	print(s);
	return s;
}
`

// hotLoopLine returns the 1-based source line of the loop-body
// statement, so the benchmarks break where every iteration stops.
func hotLoopLine(b *testing.B) int {
	b.Helper()
	for i, l := range strings.Split(hotLoopSrc, "\n") {
		if strings.Contains(l, "s = s + i") {
			return i + 1
		}
	}
	b.Fatal("loop body line not found")
	return 0
}

// BenchmarkContinueToBreakpoint measures resuming to a breakpoint in a
// hot loop body: one stop per loop iteration, so the per-instruction
// stop check dominates. MInstr/s is machine instructions executed per
// second of benchmark time.
func BenchmarkContinueToBreakpoint(b *testing.B) {
	res, err := compile.Compile("hot.mc", hotLoopSrc, compile.O2())
	if err != nil {
		b.Fatal(err)
	}
	line := hotLoopLine(b)

	run := func(b *testing.B, ref bool) {
		b.ReportAllocs()
		newSession := func() *Debugger {
			d, err := New(res)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.BreakAtLine(line); err != nil {
				b.Fatal(err)
			}
			// Long -benchtime runs push one session far past the default
			// step budget; the budget itself is benchmarked elsewhere.
			d.VM.MaxSteps = 1 << 62
			return d
		}
		d := newSession()
		var instr, prev int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var bp *Breakpoint
			var err error
			if ref {
				bp, err = d.ContinueRef()
			} else {
				bp, err = d.Continue()
			}
			if err != nil {
				b.Fatal(err)
			}
			instr += d.VM.Steps - prev
			prev = d.VM.Steps
			if bp == nil {
				d = newSession()
				prev = 0
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "MInstr/s")
	}

	b.Run("predicate", func(b *testing.B) { run(b, true) })
	b.Run("bitmap", func(b *testing.B) { run(b, false) })
}
