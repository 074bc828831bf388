package debugger

import (
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/debuginfo"
	"repro/internal/mach"
	"repro/internal/randprog"
	"repro/internal/vm"
)

// The predecoded bitmap execution path (Continue/Step over RunBreaks)
// must be observationally identical to the closure-predicate reference
// path (ContinueRef/StepRef over RunUntilFunc): same stop sequence, same
// instruction and cycle counts at every stop, same program output and
// exit value. These tests drive both paths over a corpus of generated
// programs under every optimization configuration.

type stopTrace struct {
	stops  []string // "fn:stmt:line" per stop, or "exit"
	steps  []int64
	cycles []int64
	output string
	exit   int64
}

func (tr *stopTrace) record(bp *Breakpoint, v *vm.VM) {
	if bp == nil {
		tr.stops = append(tr.stops, "exit")
	} else {
		tr.stops = append(tr.stops, fmt.Sprintf("%s:%d:%d", bp.Fn.Name, bp.Stmt, bp.Line))
	}
	tr.steps = append(tr.steps, v.Steps)
	tr.cycles = append(tr.cycles, v.Cycles)
}

// traceRun drives one debugger to completion, recording every stop.
// mode selects the engine: "fast" uses the bitmap path, "ref" the
// closure-predicate path. Breakpoints are set at the given (func, stmt)
// pairs; every 3rd resume is a single step instead of a continue so the
// step rule is exercised mid-run too.
func traceRun(t *testing.T, d *Debugger, mode string, brk [][2]any, maxStops int) *stopTrace {
	t.Helper()
	for _, b := range brk {
		// Breakpoints that don't resolve (e.g. a function optimized into
		// nothing) must fail identically on both paths; BreakAtStmt is
		// shared, so an error here is fine as long as both runs see it.
		d.BreakAtStmt(b[0].(string), b[1].(int))
	}
	tr := &stopTrace{}
	for i := 0; i < maxStops; i++ {
		var bp *Breakpoint
		var err error
		useStep := i%3 == 2 && d.Stopped() != nil
		switch {
		case useStep && mode == "fast":
			bp, err = d.Step()
		case useStep:
			bp, err = d.StepRef()
		case mode == "fast":
			bp, err = d.Continue()
		default:
			bp, err = d.ContinueRef()
		}
		if err != nil {
			tr.stops = append(tr.stops, "err:"+err.Error())
			break
		}
		tr.record(bp, d.VM)
		if bp == nil {
			break
		}
	}
	tr.output = d.VM.Output()
	if d.VM.Halted() {
		tr.exit = d.VM.ExitValue()
	}
	return tr
}

func equivConfigs() map[string]compile.Config {
	return map[string]compile.Config{
		"O0":        compile.O0(),
		"O2-noregs": compile.O2NoRegAlloc(),
		"O2-full":   compile.O2(),
	}
}

// TestFastPathEquivRandprog runs 50 generated programs under all three
// configurations, comparing the fast and reference engines stop for
// stop.
func TestFastPathEquivRandprog(t *testing.T) {
	const seeds = 50
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Gen(seed)
		for name, cfg := range equivConfigs() {
			res, err := compile.Compile(fmt.Sprintf("rand%d.mc", seed), src, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: compile: %v", seed, name, err)
			}
			// Break in main and at a spread of statements: some resolve,
			// some don't, and resolution must agree between runs anyway
			// since BreakAtStmt is shared.
			brk := [][2]any{{"main", 0}, {"main", 3}, {"f0", 1}, {"f1", 2}}

			dFast, err := New(res)
			if err != nil {
				t.Fatalf("seed %d %s: New: %v", seed, name, err)
			}
			resRef, err := compile.Compile(fmt.Sprintf("rand%d.mc", seed), src, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: compile(ref): %v", seed, name, err)
			}
			dRef, err := New(resRef)
			if err != nil {
				t.Fatalf("seed %d %s: New(ref): %v", seed, name, err)
			}

			fast := traceRun(t, dFast, "fast", brk, 200)
			ref := traceRun(t, dRef, "ref", brk, 200)

			if len(fast.stops) != len(ref.stops) {
				t.Fatalf("seed %d %s: stop count %d vs %d\nfast: %v\nref:  %v",
					seed, name, len(fast.stops), len(ref.stops), fast.stops, ref.stops)
			}
			for i := range fast.stops {
				if fast.stops[i] != ref.stops[i] {
					t.Fatalf("seed %d %s: stop %d: fast %q vs ref %q",
						seed, name, i, fast.stops[i], ref.stops[i])
				}
				if fast.steps[i] != ref.steps[i] {
					t.Errorf("seed %d %s: stop %d (%s): Steps %d vs %d",
						seed, name, i, fast.stops[i], fast.steps[i], ref.steps[i])
				}
				if fast.cycles[i] != ref.cycles[i] {
					t.Errorf("seed %d %s: stop %d (%s): Cycles %d vs %d",
						seed, name, i, fast.stops[i], fast.cycles[i], ref.cycles[i])
				}
			}
			if fast.output != ref.output {
				t.Errorf("seed %d %s: output differs\nfast: %q\nref:  %q",
					seed, name, fast.output, ref.output)
			}
			if fast.exit != ref.exit {
				t.Errorf("seed %d %s: exit %d vs %d", seed, name, fast.exit, ref.exit)
			}
		}
	}
}

// stopRec is one stop of a continue-only run: which breakpoint fired,
// whether it resolved to the statement's own code (no fallback), and the
// per-field reports of every struct aggregate in scope.
type stopRec struct {
	key   string // "fn:stmt" of the breakpoint that fired
	exact bool   // breakpoint location is the statement's own code
	snap  map[string]*VarReport
}

// continueTrace drives a debugger with plain Continues (no stepping, so
// the stop schedule is comparable across *configurations*, not just
// engines), recording every stop.
func continueTrace(t *testing.T, d *Debugger, brk [][2]any, maxStops int) []stopRec {
	t.Helper()
	for _, b := range brk {
		d.BreakAtStmt(b[0].(string), b[1].(int))
	}
	var out []stopRec
	for i := 0; i < maxStops; i++ {
		bp, err := d.Continue()
		if err != nil || bp == nil {
			return out
		}
		r := stopRec{
			key:   fmt.Sprintf("%s:%d", bp.Fn.Name, bp.Stmt),
			exact: debuginfo.StmtOfLoc(bp.Loc) == bp.Stmt,
			snap:  map[string]*VarReport{},
		}
		if reports, err := d.Info(); err == nil {
			for _, rep := range reports {
				for _, fr := range rep.Fields {
					r.snap[fr.Name] = fr
				}
			}
		}
		out = append(out, r)
	}
	return out
}

// TestSROAPerFieldCurrentVsO0 is the end-to-end honesty check for
// per-field classification: over a ≥50-seed corpus of struct-bearing
// generated programs, every struct field the optimized-build debugger
// reports as *current* (and every recovered value it reconstructs) must
// equal the value the unoptimized build shows at the same dynamic point.
//
// Alignment: both builds run the same breakpoint schedule under plain
// Continue, and values are compared at the *first* arrival at each
// breakpoint. Execution is deterministic and stops don't perturb it, so
// the first time control reaches a statement's own code is the same
// source-level event in both builds — even when unrolling or loop
// inversion changes how often the breakpoint fires afterwards (clones
// get fresh emission indices, so the breakpoint location stays on the
// original copy, which executes first). Breakpoints that resolved by
// falling back to a later statement are skipped: the two builds may
// then be stopped at genuinely different source points.
func TestSROAPerFieldCurrentVsO0(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 10
	}
	// Break where struct aggregates are in scope: helpers take struct
	// params (in scope from entry) and main declares its struct locals a
	// few statements in. Unresolvable breakpoints (a seed without h2, a
	// main shorter than 20 statements) simply don't arm — in both builds.
	brk := [][2]any{
		{"main", 8}, {"main", 10}, {"main", 12}, {"main", 14}, {"main", 16},
		{"main", 18}, {"main", 20}, {"main", 24}, {"main", 28},
		{"h0", 2}, {"h0", 5}, {"h0", 8}, {"h1", 2}, {"h1", 5}, {"h2", 2},
	}
	optCfgs := map[string]compile.Config{
		"O2-noregs": compile.O2NoRegAlloc(),
		"O2-full":   compile.O2(),
	}
	checkedCurrent, checkedRecovered := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Gen(seed)
		resO0, err := compile.Compile(fmt.Sprintf("rand%d.mc", seed), src, compile.O0())
		if err != nil {
			t.Fatalf("seed %d O0: compile: %v", seed, err)
		}
		dO0, err := New(resO0)
		if err != nil {
			t.Fatalf("seed %d O0: New: %v", seed, err)
		}
		o0trace := continueTrace(t, dO0, brk, 120)
		firstO0 := map[string]int{}
		for i, r := range o0trace {
			if _, ok := firstO0[r.key]; !ok {
				firstO0[r.key] = i
			}
		}

		for name, cfg := range optCfgs {
			res, err := compile.Compile(fmt.Sprintf("rand%d.mc", seed), src, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: compile: %v", seed, name, err)
			}
			d, err := New(res)
			if err != nil {
				t.Fatalf("seed %d %s: New: %v", seed, name, err)
			}
			seen := map[string]bool{}
			for _, rec := range continueTrace(t, d, brk, 120) {
				if seen[rec.key] {
					continue // later arrivals are not dynamically aligned
				}
				seen[rec.key] = true
				j, ok := firstO0[rec.key]
				if !ok || !rec.exact || !o0trace[j].exact {
					continue
				}
				for fname, fr := range rec.snap {
					o0 := o0trace[j].snap[fname]
					if o0 == nil || !o0.HasVal {
						continue
					}
					if fr.Class.State == core.Current && fr.HasVal {
						if fr.Val != o0.Val {
							t.Errorf("seed %d %s stop %s: field %s current with %v but O0 shows %v",
								seed, name, rec.key, fname, fr.Val, o0.Val)
						}
						checkedCurrent++
					}
					if fr.HasRecovered {
						if fr.RecoveredVal != o0.Val {
							t.Errorf("seed %d %s stop %s: field %s recovered as %v but O0 shows %v",
								seed, name, rec.key, fname, fr.RecoveredVal, o0.Val)
						}
						checkedRecovered++
					}
				}
			}
		}
	}
	// The corpus must actually exercise the property: a generator change
	// that stops emitting structs would otherwise pass vacuously.
	floor := 200
	if testing.Short() {
		floor = 20
	}
	if checkedCurrent < floor {
		t.Fatalf("cross-checked only %d current per-field verdicts (want >= %d): corpus too thin",
			checkedCurrent, floor)
	}
	t.Logf("cross-checked %d current and %d recovered per-field values", checkedCurrent, checkedRecovered)
}

// loopCallSrc is a small program with a loop, a call and a global.
const loopCallSrc = `
int g;

int twice(int v) {
	return v + v;
}

int main() {
	int i;
	int s = 0;
	for (i = 0; i < 6; i = i + 1) {
		s = s + twice(i);
		if (s > 12) {
			g = g + 1;
		}
	}
	print(s);
	return s;
}
`

// TestFastPathStepEquiv single-steps a small program from entry to exit
// on both engines and requires identical stop sequences — the pure
// step-rule path, no breakpoints at all.
func TestFastPathStepEquiv(t *testing.T) {
	for name, cfg := range equivConfigs() {
		dFast := session(t, loopCallSrc, cfg)
		dRef := session(t, loopCallSrc, cfg)
		var fast, ref stopTrace
		for i := 0; i < 400; i++ {
			bp, err := dFast.Step()
			if err != nil {
				t.Fatalf("%s: fast Step: %v", name, err)
			}
			fast.record(bp, dFast.VM)
			if bp == nil {
				break
			}
		}
		for i := 0; i < 400; i++ {
			bp, err := dRef.StepRef()
			if err != nil {
				t.Fatalf("%s: ref StepRef: %v", name, err)
			}
			ref.record(bp, dRef.VM)
			if bp == nil {
				break
			}
		}
		if fmt.Sprint(fast.stops) != fmt.Sprint(ref.stops) {
			t.Fatalf("%s: step sequences differ\nfast: %v\nref:  %v", name, fast.stops, ref.stops)
		}
		for i := range fast.steps {
			if fast.steps[i] != ref.steps[i] || fast.cycles[i] != ref.cycles[i] {
				t.Fatalf("%s: counters diverge at stop %d: steps %d/%d cycles %d/%d",
					name, i, fast.steps[i], ref.steps[i], fast.cycles[i], ref.cycles[i])
			}
		}
		if dFast.VM.Output() != dRef.VM.Output() {
			t.Fatalf("%s: output %q vs %q", name, dFast.VM.Output(), dRef.VM.Output())
		}
	}
}

// TestContinueSkipsUnmappableLocations arms breakpoint locations that are
// absent from the VM's predecoded layout: a block outside the function,
// an index past the end of a block, and a negative index, alone and next
// to real locations. The bitmap cannot hold them, and the VM never stands
// at them, so Continue (which skips them) must run to exactly the stops,
// counters, output and exit of the reference ContinueRef (which tests
// them before every instruction).
func TestContinueSkipsUnmappableLocations(t *testing.T) {
	unmappable := func(t *testing.T, d *Debugger) []*Breakpoint {
		t.Helper()
		main := d.Res.Mach.LookupFunc("main")
		twice := d.Res.Mach.LookupFunc("twice")
		entry := main.Blocks[0]
		locs := []debuginfo.Loc{
			{Block: &mach.Block{ID: 1 << 20}, Idx: 0},
			{Block: entry, Idx: len(entry.Instrs) + 3},
			{Block: entry, Idx: -1},
		}
		bs := d.VM.NewBreakSet()
		for _, l := range locs {
			if bs.Add(main, l.Block, l.Idx) || bs.Add(twice, l.Block, l.Idx) {
				t.Fatalf("location %+v maps into the layout", l)
			}
		}
		real, ok := d.analysisOf(twice).Table.LocOf(0)
		if !ok {
			t.Fatal("twice has no location for its first statement")
		}
		return []*Breakpoint{
			{Fn: main, Stmt: 0, Loc: locs[0]},
			{Fn: main, Stmt: 1, Loc: locs[1], Locs: locs},
			{Fn: twice, Stmt: 0, Loc: real, Locs: []debuginfo.Loc{locs[2], real}},
		}
	}
	for name, cfg := range equivConfigs() {
		for _, withReal := range []bool{false, true} {
			var traces [2]*stopTrace
			for i, mode := range []string{"fast", "ref"} {
				d := session(t, loopCallSrc, cfg)
				bps := unmappable(t, d)
				if !withReal {
					bps = bps[:2]
				}
				d.breaks = append(d.breaks, bps...)
				var brk [][2]any
				if withReal {
					brk = [][2]any{{"main", 3}}
				}
				traces[i] = traceRun(t, d, mode, brk, 200)
			}
			fast, ref := traces[0], traces[1]
			if got, want := fmt.Sprintf("%+v", *fast), fmt.Sprintf("%+v", *ref); got != want {
				t.Fatalf("%s withReal=%v: Continue diverges from ContinueRef\nfast: %s\nref:  %s",
					name, withReal, got, want)
			}
			if withReal && len(fast.stops) < 3 {
				t.Fatalf("%s: real breakpoints fired only %d times: %v", name, len(fast.stops), fast.stops)
			}
			if !withReal && (len(fast.stops) != 1 || fast.stops[0] != "exit") {
				t.Fatalf("%s: unmappable-only run stopped: %v", name, fast.stops)
			}
		}
	}
}
