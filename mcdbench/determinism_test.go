package main

import (
	"io"
	"testing"

	"repro/pkg/minic"
)

// TestDeterministicCounts is the benchmark's self-check: the counts a
// claim may rest on must repeat exactly across two runs of one seed,
// whatever the timing.
func TestDeterministicCounts(t *testing.T) {
	e2e := []string{"guest_cycles_per_session", "displayable_ratio"}
	layers := []string{"opt.ir_instrs", "mach.instrs", "compile.funcs_reused_ratio", "artstore.hit_ratio"}
	for _, w := range workloads {
		var got [2]map[string]float64
		for i := range got {
			res, err := run(options{workload: w, seed: 7, seconds: 0.3, trace: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if !res.Correct {
				t.Fatalf("%s: %d of %d operations failed", w, res.Failed, res.Attempted)
			}
			got[i] = map[string]float64{}
			for _, k := range e2e {
				got[i][k] = res.e2e[k].Value
			}
			for _, k := range layers {
				got[i][k] = res.Metrics[k].Value
			}
		}
		for k, v := range got[0] {
			if got[1][k] != v {
				t.Errorf("%s: %s = %v, then %v", w, k, v, got[1][k])
			}
		}
	}
}

// TestDisplayableCountsRecovered checks the displayable rule: a current
// value or a recovered one, whatever the variable's state, counts; an
// unavailable or merely noncurrent value does not.
func TestDisplayableCountsRecovered(t *testing.T) {
	vars := []minic.RemoteVar{
		{Name: "a", State: "current", Display: "a = 3"},
		{Name: "b", State: "noncurrent", Display: "b = 5 (recovered; value of x)"},
		{Name: "c", State: "nonresident", Display: "c = 7 (recovered; constant)"},
		{Name: "d", State: "current", Display: "d = <unavailable>"},
		{Name: "e", State: "noncurrent", Display: "e = 1 (WARNING: noncurrent due to hoisting — moved; see line 4)"},
		{Name: "f", State: "nonresident", Display: "f = <unavailable> (nonresident: dead)"},
		{Name: "s", State: "noncurrent", Fields: []minic.RemoteVar{
			{Name: "s.x", State: "current", Display: "s.x = 2"},
			{Name: "s.y", State: "suspect", Display: "s.y = 4 (WARNING: suspect due to ...)"},
		}},
	}
	if n, d := countVars(vars); n != 8 || d != 4 {
		t.Errorf("countVars = %d of %d displayable, want 4 of 8", d, n)
	}
}

// TestDisplayableRuleAgrees runs real stops until it meets a recovered
// variable whose state is not current, and checks that the wire rule
// counts it and agrees with the debugger's own reports at every stop.
func TestDisplayableRuleAgrees(t *testing.T) {
	tab, err := loadTable()
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for i := range tab.Programs {
		p := &tab.Programs[i]
		art, err := minic.Compile(p.fileName(), p.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range p.Breaks {
			sess, err := minic.NewSession(art)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.BreakAtStmt(b.Func, b.Stmt); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < ColdStops; j++ {
				if bp, err := sess.Continue(); err != nil || bp == nil {
					t.Fatalf("%s %s:%d: stop %d: %v", p.Name, b.Func, b.Stmt, j, err)
				}
				reps, err := sess.Info()
				if err != nil {
					t.Fatal(err)
				}
				vars := make([]minic.RemoteVar, len(reps))
				for k, r := range reps {
					vars[k] = varOf(r)
					if r.HasRecovered && r.Class.State.String() != "current" {
						if _, d := countVars(vars[k : k+1]); d != 1 {
							t.Errorf("%s: recovered %s variable not counted: %s", p.Name, vars[k].State, vars[k].Display)
						}
						seen = true
					}
				}
				wn, wd := countVars(vars)
				rn, rd := countReports(reps)
				if wn != rn || wd != rd {
					t.Errorf("%s %s:%d: wire rule %d of %d, reports %d of %d", p.Name, b.Func, b.Stmt, wd, wn, rd, rn)
				}
			}
		}
	}
	if !seen {
		t.Error("no recovered variable with a state other than current")
	}
}
