package opt

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ir"
	"repro/internal/randprog"
	"repro/internal/sem"
)

// program is one corpus entry.
type program struct{ name, src string }

// corpus returns the bench workloads and randprog seeds 0..199, the
// corpora the fixpoint and key-equivalence tests sweep.
func corpus(t *testing.T) []program {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "bench", "testdata", "*.mc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("bench workloads: %v (%d files)", err, len(files))
	}
	var progs []program
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{filepath.Base(path), string(data)})
	}
	for seed := 0; seed < 200; seed++ {
		progs = append(progs, program{fmt.Sprintf("seed%d.mc", seed), randprog.Gen(int64(seed))})
	}
	return progs
}

// freshFuncs builds unoptimized IR for one corpus program.
func freshFuncs(t *testing.T, p program) []*ir.Func {
	t.Helper()
	sp, err := sem.CheckSource(p.name, p.src)
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	return ir.Build(sp).Funcs
}

// snapshot captures everything a round can change that later passes read.
type snapshot struct {
	text     string
	numTemps int
}

func snap(f *ir.Func) snapshot { return snapshot{f.String(), f.NumTemps} }

// checkedRound runs one round like runPasses, additionally failing the
// test when a pass reports no change but changed the function.
func checkedRound(t *testing.T, where string, f *ir.Func, o Options) bool {
	t.Helper()
	changed := false
	for _, p := range roundPasses {
		if !p.enabled(o) {
			continue
		}
		before := snap(f)
		if p.run(f) {
			changed = true
		} else if after := snap(f); after != before {
			t.Errorf("%s/%s: %s reported no change but changed the function:\nbefore:\n%s\nafter:\n%s",
				where, f.Name, p.name, before.text, after.text)
		}
	}
	return changed
}

// TestRoundFixpoint checks that the round loop's early stop is sound by
// construction: no pass reports "no change" after changing the function,
// so a round in which every pass reports no change left the function
// untouched, and one more round changes nothing either. The check runs
// every function of the corpora through the same prologue and rounds
// RunFunc uses, at O2.
func TestRoundFixpoint(t *testing.T) {
	progs := corpus(t)
	for _, cfg := range []struct {
		name string
		o    Options
	}{{"O2", O2()}} {
		fixed, still := 0, 0
		for _, p := range progs {
			where := cfg.name + " " + p.name
			for _, f := range freshFuncs(t, p) {
				prologue(f, cfg.o)
				converged := false
				for round := 1; round <= MaxRounds && !converged; round++ {
					converged = !checkedRound(t, where, f, cfg.o)
				}
				if !converged {
					still++
					continue
				}
				fixed++
				before := snap(f)
				runPasses(f, cfg.o, roundPasses)
				if again := snap(f); again != before {
					t.Errorf("%s/%s: the round after the fixpoint changed the function:\nbefore:\n%s\nafter:\n%s",
						where, f.Name, before.text, again.text)
				}
			}
		}
		t.Logf("%s: %d functions reach a fixpoint within %d rounds, %d still change in the last", cfg.name, fixed, MaxRounds, still)
	}
}
