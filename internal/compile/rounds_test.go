package compile_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/opt"
)

// TestOptRoundMetrics checks the optimizer round counters: every compiled
// function accounts for exactly opt.MaxRounds rounds (run or skipped), a
// warm recompile stitches every function and counts none, and O0 enables
// no round pass. Over the bench corpus at O2, 53 of the 285 rounds follow
// a round that changed nothing and are skipped.
func TestOptRoundMetrics(t *testing.T) {
	pipe := compile.NewPipeline(compile.PipelineConfig{
		Workers: 2,
		Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{}),
	})
	var run, skipped, funcs int
	for _, name := range bench.Names {
		src := bench.MustSource(name)
		_, m, err := pipe.Compile(name, src, compile.O2())
		if err != nil {
			t.Fatal(err)
		}
		if m.OptRounds+m.OptRoundsSkipped != opt.MaxRounds*m.FuncsCompiled {
			t.Errorf("%s: %d rounds run + %d skipped, want %d×%d", name,
				m.OptRounds, m.OptRoundsSkipped, opt.MaxRounds, m.FuncsCompiled)
		}
		run += m.OptRounds
		skipped += m.OptRoundsSkipped
		funcs += m.FuncsCompiled

		_, warm, err := pipe.Compile(name, src, compile.O2())
		if err != nil {
			t.Fatal(err)
		}
		if warm.FuncsCompiled != 0 || warm.OptRounds != 0 || warm.OptRoundsSkipped != 0 {
			t.Errorf("%s: warm recompile metrics %+v, want every function reused and no rounds", name, warm)
		}

		_, o0, err := compile.NewPipeline(compile.PipelineConfig{Workers: 1}).Compile(name, src, compile.O0())
		if err != nil {
			t.Fatal(err)
		}
		if o0.OptRounds != 0 || o0.OptRoundsSkipped != 0 {
			t.Errorf("%s: O0 ran %d rounds (skipped %d), want none", name, o0.OptRounds, o0.OptRoundsSkipped)
		}
	}
	t.Logf("O2 bench corpus: %d functions, %d rounds run, %d skipped", funcs, run, skipped)
	if funcs != 95 || skipped != 53 {
		t.Errorf("bench corpus: %d functions with %d rounds skipped, want 95 and 53", funcs, skipped)
	}
}
