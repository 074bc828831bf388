// Package minic is the public API of the MiniC optimizing compiler and
// the paper's source-level debugger for optimized code (Adl-Tabatabai &
// Gross, PLDI 1996). It wraps the internal pipeline behind a small,
// stable surface:
//
//	art, err := minic.Compile("prog.mc", src)          // full -O2 pipeline
//	sess, err := minic.NewSession(art)                 // a debug session
//	bp, err := sess.BreakAtLine(12)
//	sess.Continue()
//	r, err := sess.Print("x")                          // value + classification
//	fmt.Println(r.Display())                           // warning-annotated
//
// Compilation is configured with functional options (OptLevel, RegAlloc,
// Sched, Markers, Passes) instead of a bare config struct, and repeated
// compiles can share a concurrency-safe artifact Store. An Artifact and
// its analyses are immutable, so any number of Sessions — including
// concurrent ones — may share one Artifact.
//
// # Per-function pipeline
//
// Compilation is per-function behind this API: after the whole-program
// front end, each function runs optimization → code selection → register
// allocation → scheduling independently, fanned out across a bounded
// worker pool (WithCompileWorkers) and reassembled deterministically —
// the machine code is byte-identical to a serial compile. Each compiled
// function is also cached by a content hash of its checked IR plus the
// configuration, so Artifact.Recompile recompiles only the functions an
// edit actually changed and stitches the rest from cache.
// CompileStats reports what happened.
//
// # Configuration deprecation path
//
// Functional options are the supported way to configure compilation;
// constructing internal/compile.Config values directly is a legacy surface
// kept for compatibility and slated for removal from driver code. In-repo
// harnesses that genuinely need the internal config (benchmarks, the
// ablation driver) should derive it from options via ResolveConfig rather
// than building the struct by hand.
package minic

import (
	"fmt"
	"time"

	"repro/internal/artstore"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/debugger"
	"repro/internal/mach"
	"repro/internal/opt"
	"repro/internal/vm"
)

// Option configures Compile.
type Option func(*settings)

type settings struct {
	cfg        compile.Config
	store      *Store
	precompute int // -1: off, 0: GOMAXPROCS, >0: bounded pool
	workers    int // per-function compile workers; 0 = GOMAXPROCS
}

// WithOptLevel selects the optimization level: 0 (none — this also turns
// off register allocation and scheduling, like the command-line -O0), 1
// (local optimizations) or 2 (the paper's full global pipeline, the
// default).
func WithOptLevel(n int) Option {
	return func(s *settings) {
		switch {
		case n <= 0:
			s.cfg.Opt = opt.O0()
			s.cfg.RegAlloc = false
			s.cfg.Sched = false
		case n == 1:
			s.cfg.Opt = opt.O1()
		default:
			s.cfg.Opt = opt.O2()
		}
	}
}

// WithRegAlloc turns graph-coloring register allocation on or off
// (Figure 5(b) vs 5(a) of the paper).
func WithRegAlloc(on bool) Option { return func(s *settings) { s.cfg.RegAlloc = on } }

// WithSched turns instruction scheduling on or off.
func WithSched(on bool) Option { return func(s *settings) { s.cfg.Sched = on } }

// WithMarkers controls the §3 marker bookkeeping the classifier consumes;
// passing false reproduces the paper's "no compiler support" ablation.
func WithMarkers(on bool) Option { return func(s *settings) { s.cfg.Opt.NoMarkers = !on } }

// WithPasses runs exactly the given optimization passes and switches
// register allocation and scheduling off, which is the shape the paper's
// figure walkthroughs use (e.g. PRE alone); re-enable them with
// WithRegAlloc/WithSched after this option.
func WithPasses(o opt.Options) Option {
	return func(s *settings) {
		s.cfg.Opt = o
		s.cfg.RegAlloc = false
		s.cfg.Sched = false
	}
}

// WithPrecomputedAnalyses builds the debugger's per-function data-flow
// analyses eagerly with a bounded worker pool (workers <= 0 selects
// GOMAXPROCS) instead of lazily at the first breakpoint.
func WithPrecomputedAnalyses(workers int) Option {
	return func(s *settings) {
		if workers <= 0 {
			workers = 0
		}
		s.precompute = workers
	}
}

// WithCompileWorkers bounds the per-function back-end worker pool: the
// functions of a program are optimized, lowered, allocated and scheduled
// concurrently, at most n at a time, and reassembled in declaration order
// (byte-identical to a serial compile). n <= 0 selects GOMAXPROCS. When
// compiling through a Store the store's own pipeline applies instead —
// set its bound with WithStoreCompileWorkers.
func WithCompileWorkers(n int) Option {
	return func(s *settings) {
		if n < 0 {
			n = 0
		}
		s.workers = n
	}
}

// ResolveConfig resolves compilation options to the internal pipeline
// configuration. It exists for in-repo harnesses (benchmarks, ablation
// drivers) that must hand a raw config to internal packages; application
// code should pass the options to Compile directly.
func ResolveConfig(opts ...Option) compile.Config {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	return s.cfg
}

// Store is the unified artifact store: a sharded, memory-accounted cache
// that retains compiled artifacts together with their lazily built
// analyses under one byte budget, over an optional disk tier that
// survives restarts. Use NewStore + WithStore to compile through one.
type Store = artstore.Store

// StoreOption configures NewStore.
type StoreOption func(*artstore.Config)

// WithShards sets the store's shard count (rounded up to a power of two);
// more shards reduce lock contention under concurrent compile traffic.
func WithShards(n int) StoreOption {
	return func(c *artstore.Config) { c.Shards = n }
}

// WithMaxArtifacts bounds the number of resident artifacts (<= 0 means
// unbounded).
func WithMaxArtifacts(n int) StoreOption {
	return func(c *artstore.Config) { c.MaxArtifacts = n }
}

// WithMemoryBudget bounds the accounted bytes of resident artifacts plus
// their built analyses; least-recently-used artifacts are evicted (and
// spilled, if a spill dir is set) to stay within it. <= 0 means
// unbounded.
func WithMemoryBudget(bytes int64) StoreOption {
	return func(c *artstore.Config) { c.MemoryBudget = bytes }
}

// WithSpillDir enables the disk tier: evicted artifacts are serialized to
// dir and reloaded on miss, so a new process with the same dir keeps the
// warm set.
func WithSpillDir(dir string) StoreOption {
	return func(c *artstore.Config) { c.SpillDir = dir }
}

// WithStoreCompileWorkers bounds the store's per-function compile worker
// pool. The bound is shared across concurrent compiles through the store,
// so a burst of requests still runs at most n function back ends at once;
// n <= 0 selects GOMAXPROCS.
func WithStoreCompileWorkers(n int) StoreOption {
	return func(c *artstore.Config) { c.CompileWorkers = n }
}

// WithFuncCacheBudget bounds the accounted bytes of the store's
// per-function incremental tier (encoded machine code keyed by content
// hash of each function's checked IR + configuration). 0 keeps the
// default (a quarter of the store's memory budget, or unbounded);
// negative disables incremental reuse.
func WithFuncCacheBudget(bytes int64) StoreOption {
	return func(c *artstore.Config) { c.FuncCacheBudget = bytes }
}

// NewStore creates an artifact store for use with WithStore.
func NewStore(opts ...StoreOption) *Store {
	var cfg artstore.Config
	for _, o := range opts {
		o(&cfg)
	}
	return artstore.New(cfg)
}

// WithStore compiles through st: identical requests are served from the
// store (memory or disk tier), concurrent requests coalesce into one
// pipeline run, and the resulting Artifact shares the store's analysis
// set, so analyses are charged against — and evicted with — the artifact.
func WithStore(st *Store) Option { return func(s *settings) { s.store = st } }

// Artifact is one compiled program: every representation level produced
// by the pipeline plus the (lazily built, concurrency-safe) per-function
// debugger analyses. Artifacts are immutable and may back any number of
// concurrent Sessions.
type Artifact struct {
	res      *compile.Result
	analyses *core.AnalysisSet

	name    string
	metrics compile.Metrics
	// recompile compiles new source under this artifact's name and
	// options, reusing this artifact's per-function cache (default and
	// store paths) so unchanged functions are stitched, not recompiled.
	recompile func(src string) (*Artifact, error)
}

// CompileStats describes the compile that produced an Artifact: how many
// functions the program has, how many per-function back ends actually ran,
// how many functions were stitched unchanged from the incremental cache,
// and the pipeline wall time. For an artifact served whole from a Store
// the stats are those of the compile that originally produced it (zero if
// it was rehydrated from a disk tier).
type CompileStats struct {
	Funcs         int
	FuncsCompiled int
	FuncsReused   int
	Duration      time.Duration
}

// CompileStats reports what the compile producing this artifact did.
func (a *Artifact) CompileStats() CompileStats {
	return CompileStats{
		Funcs:         a.metrics.Funcs,
		FuncsCompiled: a.metrics.FuncsCompiled,
		FuncsReused:   a.metrics.FuncsReused,
		Duration:      a.metrics.Duration,
	}
}

// Recompile compiles new source for the same program name under the same
// options, reusing every function the edit did not change: each function
// is keyed by a content hash of its checked IR plus the configuration, so
// a one-function edit runs exactly one back end and stitches the rest
// from cache. The receiver is unchanged; the new Artifact shares the same
// incremental cache, so a chain of Recompiles keeps reusing.
func (a *Artifact) Recompile(src string) (*Artifact, error) { return a.recompile(src) }

func defaultSettings() settings {
	return settings{cfg: compile.Config{Opt: opt.O2(), RegAlloc: true, Sched: true}, precompute: -1}
}

// Compile runs the pipeline over MiniC source text. With no options it
// compiles like the production compiler: -O2 with register allocation
// and scheduling, functions fanned out across GOMAXPROCS workers.
func Compile(name, src string, opts ...Option) (*Artifact, error) {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	a, err := s.compile(name, src)
	if err != nil {
		return nil, err
	}
	if s.precompute >= 0 {
		a.analyses.Precompute(a.res.Mach, s.precompute)
	}
	return a, nil
}

// compile runs one compilation under the resolved settings and arms the
// artifact's Recompile path.
func (s *settings) compile(name, src string) (*Artifact, error) {
	return s.compileVia(nil, name, src)
}

// compileVia compiles through the settings' store or — by default — a
// per-lineage pipeline with an attached per-function cache. pipe is
// the lineage pipeline to reuse (nil on the first compile).
func (s *settings) compileVia(pipe *compile.Pipeline, name, src string) (*Artifact, error) {
	var a *Artifact
	switch {
	case s.store != nil:
		sa, _, err := s.store.Get(name, src, s.cfg)
		if err != nil {
			return nil, err
		}
		// Share the store's analysis set so the artifact and its
		// analyses are accounted and evicted as one unit.
		a = &Artifact{res: sa.Res, analyses: sa.Analyses, metrics: sa.Metrics}
	default:
		if pipe == nil {
			pipe = compile.NewPipeline(compile.PipelineConfig{
				Workers: s.workers,
				Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{}),
			})
		}
		res, m, err := pipe.Compile(name, src, s.cfg)
		if err != nil {
			return nil, err
		}
		a = &Artifact{res: res, analyses: core.NewAnalysisSet(), metrics: m}
	}
	a.name = name
	a.recompile = func(src string) (*Artifact, error) {
		na, err := s.compileVia(pipe, name, src)
		if err != nil {
			return nil, err
		}
		if s.precompute >= 0 {
			na.analyses.Precompute(na.res.Mach, s.precompute)
		}
		return na, nil
	}
	return a, nil
}

// Result exposes the program at every level (source file, checked
// program, optimized IR, machine code).
func (a *Artifact) Result() *compile.Result { return a.res }

// Funcs lists the compiled machine functions.
func (a *Artifact) Funcs() []*mach.Func { return a.res.Mach.Funcs }

// Func looks up one machine function by source name, or nil.
func (a *Artifact) Func(name string) *mach.Func { return a.res.Mach.LookupFunc(name) }

// Analysis returns the debugger's classification analysis for f, building
// it on first use. The result is immutable and shared.
func (a *Artifact) Analysis(f *mach.Func) *core.Analysis { return a.analyses.Of(f) }

// StmtClassifications is the classification of every in-scope variable
// at one breakpoint (statement).
type StmtClassifications struct {
	Stmt    int
	Classes []Classification
}

// ClassifyFunc classifies every in-scope variable at every breakpoint of
// the named function in one sweep — the workload of coverage-metric
// harnesses that interrogate a whole binary. The analysis is solved once
// and each statement's classifications come from its precomputed
// per-breakpoint tables, so repeated sweeps cost only the reported
// classifications.
func (a *Artifact) ClassifyFunc(name string) ([]StmtClassifications, error) {
	f := a.res.Mach.LookupFunc(name)
	if f == nil {
		return nil, fmt.Errorf("minic: %w: %q", ErrNoSuchFunc, name)
	}
	an := a.analyses.Of(f)
	out := make([]StmtClassifications, 0, f.Decl.NumStmts)
	for s := 0; s < f.Decl.NumStmts; s++ {
		cs, ok := an.ClassifyAllAt(s)
		if !ok {
			continue
		}
		out = append(out, StmtClassifications{Stmt: s, Classes: cs})
	}
	return out, nil
}

// Coverage computes the artifact's debug-info coverage report: every
// statement×variable(×field) pair bucketed as current / recovered /
// noncurrent by the classifier (see internal/coverage). The server's
// coverage protocol command routes through the same sweep, so a live
// daemon and this in-process call agree byte for byte on the same
// artifact.
func (a *Artifact) Coverage() *coverage.Report {
	return coverage.Sweep(a.res, a.analyses)
}

// Run executes the program on a fresh simulator to completion and
// returns the machine for inspection (output, exit value, cycle count).
func (a *Artifact) Run() (*vm.VM, error) {
	m, err := vm.New(a.res.Mach)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	return m, nil
}

// Session is one source-level debug session on an Artifact: a private
// simulator plus the shared classification analyses. A Session is not
// itself safe for concurrent use, but distinct Sessions over one
// Artifact are.
type Session struct {
	art *Artifact
	dbg *debugger.Debugger
}

// NewSession starts a debug session at the entry of the program.
func NewSession(a *Artifact) (*Session, error) {
	dbg, err := debugger.NewShared(a.res, a.analyses)
	if err != nil {
		return nil, err
	}
	return &Session{art: a, dbg: dbg}, nil
}

// Artifact returns the compiled program this session runs.
func (s *Session) Artifact() *Artifact { return s.art }

// Debugger exposes the underlying session driver for advanced use.
func (s *Session) Debugger() *debugger.Debugger { return s.dbg }

// BreakAtLine sets a breakpoint at the first statement on a source line.
func (s *Session) BreakAtLine(line int) (*Breakpoint, error) { return s.dbg.BreakAtLine(line) }

// BreakAtStmt sets a breakpoint at statement stmt of the named function.
func (s *Session) BreakAtStmt(fn string, stmt int) (*Breakpoint, error) {
	return s.dbg.BreakAtStmt(fn, stmt)
}

// Continue resumes until a breakpoint (returned) or exit (nil).
func (s *Session) Continue() (*Breakpoint, error) { return s.dbg.Continue() }

// Step advances to the next source statement.
func (s *Session) Step() (*Breakpoint, error) { return s.dbg.Step() }

// Print reports one variable at the current stop with its classification.
func (s *Session) Print(name string) (*VarReport, error) { return s.dbg.Print(name) }

// Info reports every variable in scope at the current stop.
func (s *Session) Info() ([]*VarReport, error) { return s.dbg.Info() }

// Stopped returns the current stop, or nil.
func (s *Session) Stopped() *Breakpoint { return s.dbg.Stopped() }

// Halted reports whether the program has exited.
func (s *Session) Halted() bool { return s.dbg.Halted() }

// Output returns everything the program printed so far.
func (s *Session) Output() string { return s.dbg.Output() }

// Re-exported stable types: the classification model of the paper and
// the debugger's report/breakpoint shapes.
type (
	// Classification is the debugger's verdict on one variable at one
	// breakpoint: its State, the responsible optimization, the
	// human-readable reason, and an optional Recovery.
	Classification = core.Classification
	// State is one of Current, Uninitialized, Nonresident, Noncurrent,
	// Suspect (Figure 1 of the paper).
	State = core.State
	// Cause names the optimization responsible for an endangerment.
	Cause = core.Cause
	// Recovery describes how an eliminated value can be reconstructed.
	Recovery = core.Recovery
	// VarReport is a classified variable with its runtime (and possibly
	// recovered) value; Display renders it with the paper's warnings.
	VarReport = debugger.VarReport
	// Breakpoint is an armed or hit source breakpoint.
	Breakpoint = debugger.Breakpoint
)

// Classification states (Figure 1 of the paper).
const (
	Current       = core.Current
	Uninitialized = core.Uninitialized
	Nonresident   = core.Nonresident
	Noncurrent    = core.Noncurrent
	Suspect       = core.Suspect
)

// Endangerment causes.
const (
	NoCause        = core.NoCause
	ByHoisting     = core.ByHoisting
	ByDeadCodeElim = core.ByDeadCodeElim
	ByScheduling   = core.ByScheduling
)

// Typed session errors, for errors.Is.
var (
	ErrNoSuchLine = debugger.ErrNoSuchLine
	ErrNoSuchFunc = debugger.ErrNoSuchFunc
	ErrNoStmtLoc  = debugger.ErrNoStmtLoc
	ErrNotStopped = debugger.ErrNotStopped
	ErrNoSuchVar  = debugger.ErrNoSuchVar
)
