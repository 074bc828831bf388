package opt

import (
	"repro/internal/ir"
)

// Options selects which optimizations run; the zero value disables all.
// Level O2 matches the paper's "global optimizations" configuration.
type Options struct {
	// SROA splits non-address-taken struct aggregates into per-field
	// scalar variables before the scalar pipeline runs (see sroa.go).
	SROA       bool
	ConstFold  bool
	ConstProp  bool
	CopyProp   bool
	AssignProp bool
	PRE        bool
	LICM       bool
	PDCE       bool
	DCE        bool
	Strength   bool
	Unroll     bool
	Peel       bool
	LoopInvert bool
	BranchOpt  bool
	// NoMarkers suppresses the §3 marker bookkeeping (ablation: shows what
	// the debugger loses without compiler support). Markers are emitted by
	// DCE/PRE; with NoMarkers they are stripped after the pipeline.
	NoMarkers bool
}

// O0 returns options with every optimization disabled.
func O0() Options { return Options{} }

// O1 returns local optimizations only (folding, propagation, DCE).
func O1() Options {
	return Options{ConstFold: true, ConstProp: true, CopyProp: true, DCE: true, BranchOpt: true}
}

// O2 returns the full global pipeline of Table 1 (minus machine-level
// passes, which run after lowering).
func O2() Options {
	return Options{
		SROA:      true,
		ConstFold: true, ConstProp: true, CopyProp: true, AssignProp: true,
		PRE: true, LICM: true, PDCE: true, DCE: true, Strength: true,
		Unroll: true, LoopInvert: true, BranchOpt: true,
	}
}

// Run applies the optimization pipeline to every function.
func Run(p *ir.Program, o Options) {
	for _, f := range p.Funcs {
		RunFunc(f, o)
	}
}

// pass is one entry of an ordered pass list: a name for diagnostics, the
// option predicate that enables it, and the pass itself, which reports
// whether it changed the function.
type pass struct {
	name    string
	enabled func(Options) bool
	run     func(*ir.Func) bool
}

// cleanupPasses run after each loop restructuring and once after the
// rounds.
var cleanupPasses = []pass{
	{"constfold", func(o Options) bool { return o.ConstFold }, ConstFold},
	{"constprop", func(o Options) bool { return o.ConstProp }, ConstProp},
	{"branchopt", func(o Options) bool { return o.BranchOpt }, BranchOpt},
}

// restructurePasses reshape loops ahead of the rounds, each followed by a
// cleanup.
var restructurePasses = []pass{
	{"loopinvert", func(o Options) bool { return o.LoopInvert }, LoopInvert},
	{"unroll", func(o Options) bool { return o.Unroll }, Unroll},
	{"peel", func(o Options) bool { return o.Peel }, Peel},
}

// roundPasses is one optimizer round. The order mirrors cmcc's pipeline as
// reconstructed from the paper: propagation feeds PRE, PRE's hoisted
// assignments can be sunk again by PDCE, and DCE performs the cleanup
// (including induction variables orphaned by LFTR).
var roundPasses = []pass{
	{"assignprop", func(o Options) bool { return o.AssignProp }, AssignProp},
	{"copyprop", func(o Options) bool { return o.CopyProp }, CopyProp},
	{"constprop", func(o Options) bool { return o.ConstProp }, ConstProp},
	{"constfold", func(o Options) bool { return o.ConstFold }, ConstFold},
	{"pre", func(o Options) bool { return o.PRE }, PRE},
	{"copyprop", func(o Options) bool { return o.CopyProp }, CopyProp},
	{"licm", func(o Options) bool { return o.LICM }, LICM},
	{"strength", func(o Options) bool { return o.Strength }, StrengthReduce},
	{"copyprop", func(o Options) bool { return o.Strength && o.CopyProp }, CopyProp},
	{"pdce", func(o Options) bool { return o.PDCE }, PDCE},
	{"dce", func(o Options) bool { return o.DCE }, DCE},
	{"faintdce", func(o Options) bool { return o.DCE }, FaintDCE},
	{"branchopt", func(o Options) bool { return o.BranchOpt }, BranchOpt},
}

// MaxRounds caps the optimizer rounds per function. A few functions are
// still changing in the last round; the cap keeps their code as it was
// when every function ran exactly MaxRounds rounds.
const MaxRounds = 3

// Rounds reports how many optimizer rounds ran on a function (Run) and
// how many of the MaxRounds were skipped because a round changed nothing
// (Skipped). Both are zero when no round pass is enabled.
type Rounds struct{ Run, Skipped int }

// runPasses runs every enabled pass of the list in order and reports
// whether any of them changed f.
func runPasses(f *ir.Func, o Options, passes []pass) bool {
	changed := false
	for _, p := range passes {
		if p.enabled(o) && p.run(f) {
			changed = true
		}
	}
	return changed
}

// anyEnabled reports whether o enables some pass of the list.
func anyEnabled(o Options, passes []pass) bool {
	for _, p := range passes {
		if p.enabled(o) {
			return true
		}
	}
	return false
}

// RunFunc runs the pipeline on one function: SROA, loop restructuring,
// then up to MaxRounds rounds of roundPasses, stopping after the first
// round in which no pass reports a change (the next round would start
// from the same function and change nothing either), then a final
// cleanup.
//
// RunFunc touches only f (and reads the shared, immutable global objects its
// operands reference), so distinct functions may be optimized concurrently.
func RunFunc(f *ir.Func, o Options) Rounds {
	prologue(f, o)
	var r Rounds
	if anyEnabled(o, roundPasses) {
		for r.Run < MaxRounds {
			r.Run++
			if !runPasses(f, o, roundPasses) {
				break
			}
		}
		r.Skipped = MaxRounds - r.Run
	}
	epilogue(f, o)
	return r
}

// prologue runs the passes ahead of the rounds.
func prologue(f *ir.Func, o Options) {
	// SROA must run first: it rewrites aggregate memory traffic into the
	// member-variable assignments every scalar pass below understands.
	if o.SROA {
		SROA(f)
	}
	runPasses(f, o, cleanupPasses)
	for _, p := range restructurePasses {
		if p.enabled(o) {
			p.run(f)
			runPasses(f, o, cleanupPasses)
		}
	}
}

// epilogue runs the passes after the rounds.
func epilogue(f *ir.Func, o Options) {
	runPasses(f, o, cleanupPasses)
	if o.DCE {
		DCE(f)
		FaintDCE(f)
	}
	// Recovery aliases recorded by earlier DCE rounds may point at values
	// whose computation a later round deleted; drop those aliases.
	ValidateMarkers(f)

	if o.NoMarkers {
		stripMarkers(f)
	}
}

// stripMarkers removes all debugger markers (ablation mode).
func stripMarkers(f *ir.Func) {
	for _, b := range f.Blocks {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			if b.Instrs[i].IsMarker() {
				b.RemoveAt(i)
			}
		}
	}
}
