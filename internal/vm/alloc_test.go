package vm

import (
	"testing"

	"repro/internal/mach"
	"repro/internal/opt"
)

// TestRunBreaksNoAllocsPerCall pins frame reuse: once a VM has reached a
// call depth, resuming to a breakpoint across guest calls allocates
// nothing. push reuses the pooled frame at that depth and CALL writes its
// arguments straight into it.
func TestRunBreaksNoAllocsPerCall(t *testing.T) {
	src := `
int helper(int v, int w) {
	return v * 2 + w;
}
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 100000; i++) {
		s = (s + helper(i, s)) % 65521;
	}
	return s;
}`
	for name, o := range map[string]opt.Options{"O0": opt.O0(), "O2": opt.O2()} {
		_, v := compile(t, src, o)
		main := v.Prog.LookupFunc("main")
		bs := v.NewBreakSet()
		armed := false
		for _, b := range main.Blocks {
			for idx, in := range b.Instrs {
				if in.Op == mach.CALL && !armed {
					armed = bs.Add(main, b, idx)
				}
			}
		}
		if !armed {
			t.Fatalf("%s: no call in main", name)
		}
		// Warm up: reach the call, then run one call so every depth the
		// loop uses has its pooled frame.
		for i := 0; i < 2; i++ {
			if err := v.RunBreaks(bs, i > 0); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := v.RunBreaks(bs, true); err != nil {
				t.Fatal(err)
			}
		})
		if v.Halted() {
			t.Fatalf("%s: program halted before the measurement ended", name)
		}
		if allocs != 0 {
			t.Errorf("%s: RunBreaks across a guest call allocates %.1f times per run, want 0", name, allocs)
		}
	}
}
