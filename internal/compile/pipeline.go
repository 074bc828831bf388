package compile

// Per-function pipeline driver: the scalable counterpart to Compile.
//
// The front end (parse + check + IR build) is whole-program and runs
// serially; everything after it — opt.RunFunc → lower.LowerFunc →
// regalloc.AllocateFunc → sched.ScheduleFunc — consumes and produces one
// function at a time with no shared mutable state, so Pipeline fans
// functions out across a bounded worker pool and reassembles the machine
// program in IR order. Reassembly is deterministic: the canonical rendering
// of the result is byte-identical to what the serial Compile produces,
// whatever the worker interleaving, because each function's machine code
// depends only on its own IR and the immutable global environment, and the
// program is stitched in function-declaration order.
//
// With a FuncCache attached the same driver is incremental: each function's
// back end is keyed by FuncKeyOf (a content hash of the function's checked,
// freshly built IR plus the global environment and Config), compiled on a
// miss and stitched from the cache on a hit — so a one-function edit to an
// N-function program runs the back end exactly once.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mach"
	"repro/internal/opt"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/sem"
)

// funcEntryOverhead is the accounted per-entry bookkeeping cost beyond the
// encoded bytes (key, store entry, list element).
const funcEntryOverhead = 128

// CompileFunc runs the per-function back end on one freshly built IR
// function: optimization, code selection, then (per cfg) register
// allocation and scheduling. It mutates f in place (optimization rewrites
// the IR) and touches no other function, so distinct functions may be
// compiled concurrently. It also reports the optimizer rounds f took.
func CompileFunc(f *ir.Func, cfg Config) (*mach.Func, opt.Rounds, error) {
	rounds := opt.RunFunc(f, cfg.Opt)
	mf := lower.LowerFunc(f)
	if cfg.RegAlloc {
		if err := regalloc.AllocateFunc(mf); err != nil {
			return nil, rounds, err
		}
	}
	if cfg.Sched {
		sched.ScheduleFunc(mf)
	}
	return mf, rounds, nil
}

// PipelineConfig tunes a Pipeline.
type PipelineConfig struct {
	// Workers bounds back-end concurrency; <= 0 means runtime.GOMAXPROCS(0).
	// The bound is shared across concurrent Compile calls on one Pipeline,
	// so a server compiling many programs at once still runs at most Workers
	// function back ends simultaneously.
	Workers int
	// Funcs, when non-nil, enables incremental recompilation through the
	// given per-function cache. A cache may be shared across Pipelines.
	Funcs *FuncCache
}

// Metrics describes one Compile call.
type Metrics struct {
	Funcs         int           // functions in the program
	FuncsCompiled int           // back ends actually run
	FuncsReused   int           // functions stitched from the cache
	Duration      time.Duration // wall time of the whole Compile

	// OptRounds and OptRoundsSkipped sum opt.Rounds over the compiled
	// functions: optimizer rounds run, and rounds of the opt.MaxRounds
	// cap skipped because a round reached a fixpoint.
	OptRounds        int
	OptRoundsSkipped int
}

// Pipeline compiles programs function-by-function over a bounded worker
// pool, optionally reusing per-function artifacts from a FuncCache. It is
// safe for concurrent use.
type Pipeline struct {
	workers int
	slots   chan struct{}
	funcs   *FuncCache

	compiles      atomic.Int64
	funcsCompiled atomic.Int64
	funcsReused   atomic.Int64
	compileNanos  atomic.Int64
}

// NewPipeline creates a pipeline.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Pipeline{workers: w, slots: make(chan struct{}, w), funcs: cfg.Funcs}
}

// Workers returns the pool bound.
func (p *Pipeline) Workers() int { return p.workers }

// FuncCache returns the attached per-function cache, or nil.
func (p *Pipeline) FuncCache() *FuncCache { return p.funcs }

// PipelineStats are cumulative over the pipeline's lifetime.
type PipelineStats struct {
	Compiles      int64
	FuncsCompiled int64
	FuncsReused   int64
	CompileNanos  int64
}

// Stats returns the lifetime counters.
func (p *Pipeline) Stats() PipelineStats {
	return PipelineStats{
		Compiles:      p.compiles.Load(),
		FuncsCompiled: p.funcsCompiled.Load(),
		FuncsReused:   p.funcsReused.Load(),
		CompileNanos:  p.compileNanos.Load(),
	}
}

// Compile runs the full pipeline over MiniC source text. The Result's
// canonical machine-code rendering is byte-identical to Compile's for the
// same input. Result.IR is populated only when every function's back end
// actually ran (FuncsReused == 0); a stitched program carries no optimized
// IR, matching DecodeSpill.
func (p *Pipeline) Compile(name, src string, cfg Config) (*Result, Metrics, error) {
	start := time.Now()
	sp, err := sem.CheckSource(name, src)
	if err != nil {
		return nil, Metrics{}, err
	}
	prog := ir.Build(sp)
	n := len(prog.Funcs)
	m := Metrics{Funcs: n}

	var sig GlobalsSig
	if p.funcs != nil {
		sig = GlobalsSigOf(prog, cfg)
	}

	out := make([]funcResult, n)
	if p.workers == 1 || n <= 1 {
		for i, f := range prog.Funcs {
			out[i] = p.compileOneSafe(sp, f, sig, cfg)
		}
	} else {
		var wg sync.WaitGroup
		for i, f := range prog.Funcs {
			wg.Add(1)
			go func(i int, f *ir.Func) {
				defer wg.Done()
				p.slots <- struct{}{}
				defer func() { <-p.slots }()
				out[i] = p.compileOneSafe(sp, f, sig, cfg)
			}(i, f)
		}
		wg.Wait()
	}

	// First error in function order, matching the serial driver.
	for _, r := range out {
		if r.err != nil {
			return nil, m, r.err
		}
	}

	mp := lower.NewProgram(prog)
	mp.Funcs = make([]*mach.Func, n)
	for i, r := range out {
		mp.Funcs[i] = r.mf
		if r.reused {
			m.FuncsReused++
		} else {
			m.FuncsCompiled++
			m.OptRounds += r.rounds.Run
			m.OptRoundsSkipped += r.rounds.Skipped
		}
	}
	m.Duration = time.Since(start)
	p.compiles.Add(1)
	p.funcsCompiled.Add(int64(m.FuncsCompiled))
	p.funcsReused.Add(int64(m.FuncsReused))
	p.compileNanos.Add(int64(m.Duration))

	res := &Result{File: sp.File.Source, Sem: sp, Mach: mp}
	if m.FuncsReused == 0 {
		res.IR = prog
	}
	return res, m, nil
}

// funcResult is one function's back-end outcome.
type funcResult struct {
	mf     *mach.Func
	rounds opt.Rounds // zero when reused
	reused bool
	err    error
}

// compileOneSafe runs compileOne with panic containment: a panic in one
// function's back end — a compiler bug, or the "compile.func" fault
// point's injected panic — surfaces as that function's compile error
// instead of killing the worker goroutine (and with it the whole
// process). The pipeline then fails the one Compile call; the service
// maps it to a compile-error response and stays up.
func (p *Pipeline) compileOneSafe(sp *sem.Program, f *ir.Func, sig GlobalsSig, cfg Config) (r funcResult) {
	defer func() {
		if v := recover(); v != nil {
			r = funcResult{err: fmt.Errorf("compile: panic compiling %s: %v", f.Name, v)}
		}
	}()
	if err := fault.Check("compile.func"); err != nil {
		return funcResult{err: fmt.Errorf("compile: %s: %w", f.Name, err)}
	}
	return p.compileOne(sp, f, sig, cfg)
}

// compileOne compiles or reuses one function. f must be freshly built
// (pre-optimization) IR: the cache key is computed before the back end
// mutates it, and on a cache hit f is left untouched.
func (p *Pipeline) compileOne(sp *sem.Program, f *ir.Func, sig GlobalsSig, cfg Config) funcResult {
	if p.funcs == nil {
		mf, rounds, err := CompileFunc(f, cfg)
		return funcResult{mf: mf, rounds: rounds, err: err}
	}
	key := FuncKeyOf(f, sig)
	// On a miss the computing caller keeps the live *mach.Func it just
	// built (side channel), skipping an encode→decode round trip; only
	// other compilations pay the decode.
	var fresh funcResult
	data, hit, err := p.funcs.get(key, func() ([]byte, int64, error) {
		mf, rounds, err := CompileFunc(f, cfg)
		if err != nil {
			return nil, 0, err
		}
		enc, err := encodeFuncEntry(mf)
		if err != nil {
			return nil, 0, err
		}
		fresh = funcResult{mf: mf, rounds: rounds}
		return enc, int64(len(enc)) + funcEntryOverhead, nil
	})
	if err != nil {
		return funcResult{err: err}
	}
	if !hit {
		return fresh
	}
	mf, err := decodeFuncEntry(data, sp)
	if err != nil {
		// A cache entry that fails to decode or verify against this front
		// end is unusable here; compile instead. f is still pristine.
		mf, rounds, err := CompileFunc(f, cfg)
		return funcResult{mf: mf, rounds: rounds, err: err}
	}
	return funcResult{mf: mf, reused: true}
}
