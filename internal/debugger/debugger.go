// Package debugger implements the source-level debugger of the paper's
// model: non-invasive (it debugs exactly the code the optimizing compiler
// produced, with no extra instructions), running the program on the
// simulator, mapping source statements to breakpoint locations through the
// debug tables, and classifying every queried variable with the core
// analyses before displaying it — so the user is never misled: an
// endangered value is always accompanied by a warning.
package debugger

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/debuginfo"
	"repro/internal/mach"
	"repro/internal/vm"
)

// Breakpoint is one armed source breakpoint. A statement may have several
// code instances (loop unrolling and peeling clone its code into new
// blocks); the breakpoint is armed at all of them, because the source-
// level contract is "stop whenever this statement is about to execute".
type Breakpoint struct {
	Fn   *mach.Func
	Stmt int
	Line int
	// Loc is the canonical instance while the breakpoint is merely armed.
	// On the *hit* breakpoint returned by Continue/Step (and held by
	// Stopped), Loc is the instance actually reached — classification and
	// value reads are taken there, where the machine state lives.
	Loc debuginfo.Loc
	// Locs is every armed instance (it always contains Loc). Empty means
	// single-instance (hand-built breakpoints); only Loc is armed then.
	Locs []debuginfo.Loc
}

// Debugger drives one debug session. Multiple sessions may share one
// compile.Result (and one core.AnalysisSet, via NewShared): the compiled
// program and its analyses are immutable, while all mutable run state
// lives in the per-session VM.
type Debugger struct {
	Res *compile.Result
	VM  *vm.VM

	analyses *core.AnalysisSet
	breaks   []*Breakpoint
	stopped  *Breakpoint

	// bset is the breakpoint bitmap compiled from breaks, consumed by the
	// VM's predecoded engine; it is invalidated whenever breaks change
	// and rebuilt on the next Continue.
	bset *vm.BreakSet
}

// New prepares a session for a compiled program with its own analysis set.
func New(res *compile.Result) (*Debugger, error) {
	return NewShared(res, core.NewAnalysisSet())
}

// NewShared prepares a session that draws per-function analyses from set,
// so concurrent sessions over the same compiled program solve each
// function's data-flow problems once.
func NewShared(res *compile.Result, set *core.AnalysisSet) (*Debugger, error) {
	m, err := vm.New(res.Mach)
	if err != nil {
		return nil, err
	}
	return &Debugger{
		Res:      res,
		VM:       m,
		analyses: set,
	}, nil
}

// analysisOf returns the core analyses for one function, building them on
// first use.
func (d *Debugger) analysisOf(f *mach.Func) *core.Analysis {
	return d.analyses.Of(f)
}

// stmtLine returns the source line of statement s in fn.
func (d *Debugger) stmtLine(fn *mach.Func, s int) int {
	stmts := ast.StmtsByID(fn.Decl)
	if s < 0 || s >= len(stmts) || stmts[s] == nil {
		return 0
	}
	return d.Res.File.Position(stmts[s].Span().Start).Line
}

// BreakAtLine sets a breakpoint at the first statement on the given source
// line.
func (d *Debugger) BreakAtLine(line int) (*Breakpoint, error) {
	for _, f := range d.Res.Mach.Funcs {
		stmts := ast.StmtsByID(f.Decl)
		for s, st := range stmts {
			if st == nil {
				continue
			}
			if d.Res.File.Position(st.Span().Start).Line == line {
				return d.BreakAtStmt(f.Name, s)
			}
		}
	}
	return nil, fmt.Errorf("debugger: %w %d", ErrNoSuchLine, line)
}

// BreakAtStmt sets a breakpoint at statement stmt of the named function.
func (d *Debugger) BreakAtStmt(funcName string, stmt int) (*Breakpoint, error) {
	f := d.Res.Mach.LookupFunc(funcName)
	if f == nil {
		return nil, fmt.Errorf("debugger: %w: %q", ErrNoSuchFunc, funcName)
	}
	a := d.analysisOf(f)
	loc, ok := a.Table.LocOf(stmt)
	if !ok {
		return nil, fmt.Errorf("debugger: %w: statement %d of %s", ErrNoStmtLoc, stmt, funcName)
	}
	locs, _ := a.Table.LocsOf(stmt)
	bp := &Breakpoint{Fn: f, Stmt: stmt, Line: d.stmtLine(f, stmt), Loc: loc, Locs: locs}
	d.breaks = append(d.breaks, bp)
	d.bset = nil // recompile the bitmap on the next Continue
	return bp, nil
}

// compileBreaks builds the breakpoint bitmap from the armed breakpoints.
// A location missing from the predecoded layout is skipped: the VM only
// ever stands at layout positions, so no run could stop there anyway.
func (d *Debugger) compileBreaks() {
	bs := d.VM.NewBreakSet()
	for _, bp := range d.breaks {
		locs := bp.Locs
		if len(locs) == 0 {
			locs = []debuginfo.Loc{bp.Loc}
		}
		for _, l := range locs {
			bs.Add(bp.Fn, l.Block, l.Idx)
		}
	}
	d.bset = bs
}

// Continue resumes execution until a breakpoint or program exit. It
// returns the breakpoint hit, or nil when the program halted. Execution
// runs on the VM's predecoded engine, stopping on the breakpoint bitmap.
func (d *Debugger) Continue() (*Breakpoint, error) {
	if d.bset == nil {
		d.compileBreaks()
	}
	// Don't immediately re-trigger the breakpoint we stopped at: resuming
	// from a breakpoint executes its first instruction unconditionally.
	skip := d.stopped != nil && d.matches(d.VM.Position()) != nil
	if err := d.VM.RunBreaks(d.bset, skip); err != nil {
		return nil, err
	}
	return d.afterRun()
}

// afterRun records the stop (or exit) after a run-to-breakpoint. The
// recorded stop is a copy of the armed breakpoint with Loc set to the
// instance actually reached, so reporting classifies and reads values at
// the true machine position rather than the canonical table location.
func (d *Debugger) afterRun() (*Breakpoint, error) {
	if d.VM.Halted() {
		d.stopped = nil
		return nil, nil
	}
	pos := d.VM.Position()
	if bp := d.matches(pos); bp != nil {
		hit := *bp
		hit.Loc = debuginfo.Loc{Block: pos.Block, Idx: pos.Idx}
		d.stopped = &hit
	} else {
		d.stopped = nil
	}
	return d.stopped, nil
}

func (d *Debugger) matches(p vm.Pos) *Breakpoint {
	for _, bp := range d.breaks {
		if p.Fn != bp.Fn {
			continue
		}
		if len(bp.Locs) == 0 {
			if p.Block == bp.Loc.Block && p.Idx == bp.Loc.Idx {
				return bp
			}
			continue
		}
		for _, l := range bp.Locs {
			if p.Block == l.Block && p.Idx == l.Idx {
				return bp
			}
		}
	}
	return nil
}

// Stopped returns the breakpoint the session is currently stopped at.
func (d *Debugger) Stopped() *Breakpoint { return d.stopped }

// Step advances execution to the beginning of the next source statement
// (stepping into calls), returning a synthetic breakpoint describing where
// execution stopped, or nil when the program halted. The paper's debugger
// model treats any statement boundary as a potential stopping point, so
// the variable classifications at a step stop are computed exactly like
// breakpoint classifications. The statement-boundary stop rule is
// compiled into a bitmap (vm.StepBreakSet) and run on the predecoded
// engine.
func (d *Debugger) Step() (*Breakpoint, error) {
	if d.VM.Halted() {
		return nil, nil
	}
	startFn := d.VM.Position().Fn
	startStmt := d.currentStmt()
	// Execute at least one instruction, then run until we sit at the
	// first instruction of a different statement (or another function).
	if err := d.VM.Step(); err != nil {
		return nil, err
	}
	if err := d.VM.RunBreaks(d.VM.StepBreakSet(startFn, startStmt), false); err != nil {
		return nil, err
	}
	return d.afterStep()
}

// afterStep records the synthetic statement-boundary stop (or exit).
func (d *Debugger) afterStep() (*Breakpoint, error) {
	if d.VM.Halted() {
		d.stopped = nil
		return nil, nil
	}
	pos := d.VM.Position()
	stmt := d.currentStmt()
	bp := &Breakpoint{
		Fn:   pos.Fn,
		Stmt: stmt,
		Line: d.stmtLine(pos.Fn, stmt),
		Loc:  debuginfo.Loc{Block: pos.Block, Idx: pos.Idx},
	}
	d.stopped = bp
	return bp, nil
}

// currentStmt returns the statement of the instruction about to execute.
func (d *Debugger) currentStmt() int {
	in := d.VM.CurrentInstr()
	if in == nil {
		return -1
	}
	if in.Stmt >= 0 {
		return in.Stmt
	}
	pos := d.VM.Position()
	return debuginfo.StmtOfLoc(debuginfo.Loc{Block: pos.Block, Idx: pos.Idx})
}

// VarReport is the debugger's answer to "print v".
type VarReport struct {
	Name   string
	Class  core.Classification
	HasVal bool
	Val    vm.Val
	// RecoveredVal is filled when the expected value was reconstructed
	// from a recovery source.
	HasRecovered bool
	RecoveredVal vm.Val
	// SrcLines are the source lines of the assignments responsible for
	// the endangerment (resolved from Class.SrcStmts).
	SrcLines []int
	// Fields holds per-field sub-reports when the variable is a struct
	// aggregate (one per field, in declaration order). The aggregate's
	// own Class summarizes the fields.
	Fields []*VarReport
}

// Display renders the report the way the paper's debugger model prescribes:
// the value (or recovered value), always accompanied by a warning when the
// variable is endangered.
func (r *VarReport) Display() string {
	return fmt.Sprintf("%s = %s", r.Name, r.valueText())
}

// valueText renders the value part of the report (everything after
// "name = "), including any endangerment warning.
func (r *VarReport) valueText() string {
	if len(r.Fields) > 0 {
		// Aggregate: render each field's own report inside braces, with the
		// short field name; the per-field warnings carry the detail, so the
		// aggregate-level text only flags the summary state.
		var b strings.Builder
		b.WriteString("{")
		for i, fr := range r.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			name := fr.Name
			if dot := strings.LastIndex(name, "."); dot >= 0 {
				name = name[dot+1:]
			}
			fmt.Fprintf(&b, "%s = %s", name, fr.valueText())
		}
		b.WriteString("}")
		if r.Class.State != core.Current {
			fmt.Fprintf(&b, " (WARNING: %s — %s)", r.Class.State, r.Class.Why)
		}
		return b.String()
	}
	var b strings.Builder
	switch {
	case r.HasRecovered:
		b.WriteString(fmtVal(r.RecoveredVal))
		fmt.Fprintf(&b, " (recovered; %s)", r.Class.Why)
	case r.Class.State == core.Uninitialized:
		b.WriteString("<uninitialized>")
	case r.Class.State == core.Nonresident:
		b.WriteString("<unavailable>")
		fmt.Fprintf(&b, " (nonresident: %s)", r.Class.Why)
	case !r.HasVal:
		b.WriteString("<unavailable>")
	default:
		b.WriteString(fmtVal(r.Val))
		switch r.Class.State {
		case core.Noncurrent:
			fmt.Fprintf(&b, " (WARNING: noncurrent due to %s — %s%s)",
				r.Class.Cause, r.Class.Why, lineList(r.SrcLines))
		case core.Suspect:
			fmt.Fprintf(&b, " (WARNING: suspect due to %s — %s%s)",
				r.Class.Cause, r.Class.Why, lineList(r.SrcLines))
		}
	}
	return b.String()
}

func lineList(lines []int) string {
	if len(lines) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("; see line")
	if len(lines) > 1 {
		b.WriteString("s")
	}
	for i, l := range lines {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " %d", l)
	}
	return b.String()
}

func fmtVal(v vm.Val) string {
	if v.IsF {
		return fmt.Sprintf("%g", v.F)
	}
	return fmt.Sprintf("%d", v.I)
}

// Print reports on one variable at the current stop.
func (d *Debugger) Print(name string) (*VarReport, error) {
	if d.stopped == nil {
		return nil, fmt.Errorf("debugger: %w", ErrNotStopped)
	}
	bp := d.stopped
	a := d.analysisOf(bp.Fn)
	var obj *ast.Object
	for _, v := range a.Table.VarsInScope(bp.Stmt) {
		if v.Name == name {
			obj = v
			break
		}
	}
	if obj == nil {
		// Globals live in memory, untouched by the scalar optimizer: they
		// are always current (the paper's measurements found endangered
		// globals negligible and reported locals only).
		for _, g := range d.Res.Mach.Globals {
			if g.Name == name {
				return d.reportGlobal(g)
			}
		}
		// Global struct fields have no member objects; "g.f" is resolved
		// against the global's layout and read straight from the data
		// segment.
		if base, field, ok := strings.Cut(name, "."); ok {
			for _, g := range d.Res.Mach.Globals {
				if g.Name != base {
					continue
				}
				st, isSt := g.Type.(*ast.StructType)
				if !isSt {
					break
				}
				idx := st.FieldIndex(field)
				if idx < 0 {
					return nil, fmt.Errorf("debugger: %w: %q has no field %q", ErrNoSuchVar, base, field)
				}
				return d.reportGlobalField(g, st, idx)
			}
		}
		return nil, fmt.Errorf("debugger: %w: %q at this breakpoint", ErrNoSuchVar, name)
	}
	return d.report(bp, obj)
}

// reportGlobalField reads one field of a global struct from the data
// segment. Global aggregates are never split (they are address-taken by
// construction), so their fields are always memory-resident and current.
func (d *Debugger) reportGlobalField(g *ast.Object, st *ast.StructType, idx int) (*VarReport, error) {
	name := g.Name + "." + st.Fields[idx].Name
	r := &VarReport{Name: name, Class: core.Classification{Var: g, State: core.Current}}
	off, ok := d.Res.Mach.GlobalOff[g]
	if !ok {
		return r, nil
	}
	addr := off + int64(st.FieldOffset(idx))
	if ast.IsFloat(st.Fields[idx].Type) {
		x, err := d.VM.ReadMemFloat(addr)
		if err != nil {
			return nil, err
		}
		r.HasVal = true
		r.Val = vm.Val{F: x, IsF: true}
		return r, nil
	}
	x, err := d.VM.ReadMemInt(addr)
	if err != nil {
		return nil, err
	}
	r.HasVal = true
	r.Val = vm.Val{I: x}
	return r, nil
}

// reportGlobal reads a global scalar from the data segment.
func (d *Debugger) reportGlobal(g *ast.Object) (*VarReport, error) {
	r := &VarReport{Name: g.Name, Class: core.Classification{Var: g, State: core.Current}}
	if st, ok := g.Type.(*ast.StructType); ok {
		for i := range st.Fields {
			fr, err := d.reportGlobalField(g, st, i)
			if err != nil {
				return nil, err
			}
			r.Fields = append(r.Fields, fr)
		}
		return r, nil
	}
	off, ok := d.Res.Mach.GlobalOff[g]
	if !ok {
		return r, nil
	}
	if ast.IsFloat(g.Type) {
		x, err := d.VM.ReadMemFloat(off)
		if err != nil {
			return nil, err
		}
		r.HasVal = true
		r.Val = vm.Val{F: x, IsF: true}
		return r, nil
	}
	x, err := d.VM.ReadMemInt(off)
	if err != nil {
		return nil, err
	}
	r.HasVal = true
	r.Val = vm.Val{I: x}
	return r, nil
}

// Info reports on every variable in scope at the current stop.
func (d *Debugger) Info() ([]*VarReport, error) {
	if d.stopped == nil {
		return nil, fmt.Errorf("debugger: %w", ErrNotStopped)
	}
	bp := d.stopped
	a := d.analysisOf(bp.Fn)
	var out []*VarReport
	for _, v := range a.Table.VarsInScope(bp.Stmt) {
		// Struct members are grouped under their base aggregate's report
		// (as Fields) rather than listed as free-standing locals.
		if v.Base != nil {
			continue
		}
		r, err := d.report(bp, v)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// classifyStop classifies obj at the stop described by bp. The stop's Loc
// is the instruction actually about to execute (a breakpoint may be armed
// at several instances of its statement, and a step stop can sit at any
// statement boundary), and the machine state the user inspects is the
// state at that instruction — so the dataflow must be read there too, not
// at the statement's canonical table location.
func (d *Debugger) classifyStop(bp *Breakpoint, obj *ast.Object) (core.Classification, bool) {
	a := d.analysisOf(bp.Fn)
	if bp.Loc.Block != nil {
		return a.ClassifyLoc(bp.Loc, obj), true
	}
	return a.ClassifyAt(bp.Stmt, obj)
}

func (d *Debugger) report(bp *Breakpoint, obj *ast.Object) (*VarReport, error) {
	cls, ok := d.classifyStop(bp, obj)
	if !ok {
		return nil, fmt.Errorf("debugger: %w: statement %d", ErrNoStmtLoc, bp.Stmt)
	}
	r := &VarReport{Name: obj.Name, Class: cls}
	for _, s := range cls.SrcStmts {
		if l := d.stmtLine(bp.Fn, s); l > 0 {
			r.SrcLines = append(r.SrcLines, l)
		}
	}
	fr := d.VM.Top()

	// Struct aggregate: report field by field. Each member carries its own
	// classification (from cls.Fields when split, Current-in-memory when
	// the aggregate kept its frame slot), its own value, and its own
	// recovery.
	if len(obj.Members) > 0 {
		for i, m := range obj.Members {
			var sub *VarReport
			if i < len(cls.Fields) {
				sub = &VarReport{Name: m.Name, Class: cls.Fields[i]}
			} else {
				mc, ok := d.classifyStop(bp, m)
				if !ok {
					mc = core.Classification{Var: m, State: core.Current}
				}
				sub = &VarReport{Name: m.Name, Class: mc}
			}
			for _, s := range sub.Class.SrcStmts {
				if l := d.stmtLine(bp.Fn, s); l > 0 {
					sub.SrcLines = append(sub.SrcLines, l)
				}
			}
			if fr != nil && fr.Fn == bp.Fn {
				d.fillVals(fr, m, sub)
			}
			r.Fields = append(r.Fields, sub)
		}
		return r, nil
	}

	if fr == nil || fr.Fn != bp.Fn {
		return r, nil
	}
	d.fillVals(fr, obj, r)
	return r, nil
}

// fillVals populates the report's value channels. A Current verdict with
// a recovery attached is current *through the recovery source* (§2.5):
// the variable's own location is stale (its assignment was replaced by
// an inlined expression), so the recovered value IS the value — exposing
// the stale home location as a trustworthy current value would mislead
// any consumer of the structured report. When such a recovery cannot be
// read, no value is reported at all rather than the stale one.
func (d *Debugger) fillVals(fr *vm.Frame, obj *ast.Object, r *VarReport) {
	if v, ok := d.readActual(fr, obj); ok {
		r.HasVal = true
		r.Val = v
	}
	if r.Class.Recovered == nil {
		return
	}
	if v, ok := d.readRecovered(fr, r.Class.Recovered); ok {
		r.HasRecovered = true
		r.RecoveredVal = v
		if r.Class.State == core.Current {
			r.Val, r.HasVal = v, true
		}
	} else if r.Class.State == core.Current {
		r.HasVal = false
	}
}

// readActual reads the runtime value in the variable's location.
func (d *Debugger) readActual(fr *vm.Frame, obj *ast.Object) (vm.Val, bool) {
	f := fr.Fn
	isFloat := ast.IsFloat(obj.Type)
	// A struct member whose base aggregate still owns its frame slot has no
	// location of its own: the field lives in the aggregate's memory at a
	// constant offset. (After SROA the base is gone from the frame and the
	// member reads like any scalar below.)
	if obj.Base != nil {
		if _, inFrame := f.FrameOff[obj.Base]; inFrame {
			addr, ok := d.VM.AddrOf(fr, obj.Base)
			if !ok {
				return vm.Val{}, false
			}
			addr += 4 * int64(obj.FieldIdx)
			if isFloat {
				x, err := d.VM.ReadMemFloat(addr)
				if err != nil {
					return vm.Val{}, false
				}
				return vm.Val{F: x, IsF: true}, true
			}
			x, err := d.VM.ReadMemInt(addr)
			if err != nil {
				return vm.Val{}, false
			}
			return vm.Val{I: x}, true
		}
	}
	if obj.Addressed {
		addr, ok := d.VM.AddrOf(fr, obj)
		if !ok {
			return vm.Val{}, false
		}
		if _, isArr := obj.Type.(*ast.ArrayType); isArr {
			// Arrays display their first element.
			_ = isArr
		}
		if isFloat {
			x, err := d.VM.ReadMemFloat(addr)
			if err != nil {
				return vm.Val{}, false
			}
			return vm.Val{F: x, IsF: true}, true
		}
		x, err := d.VM.ReadMemInt(addr)
		if err != nil {
			return vm.Val{}, false
		}
		return vm.Val{I: x}, true
	}
	if !f.Allocated {
		// Virtual registers: the variable's vreg is its Object ID.
		if isFloat {
			return vm.Val{F: fr.FReg[obj.ID], IsF: true}, true
		}
		return vm.Val{I: fr.IReg[obj.ID]}, true
	}
	loc, ok := f.VarLoc[obj]
	if !ok {
		return vm.Val{}, false
	}
	switch loc.Kind {
	case mach.LocReg:
		if loc.Class == mach.FloatClass {
			return vm.Val{F: fr.FReg[loc.R], IsF: true}, true
		}
		return vm.Val{I: fr.IReg[loc.R]}, true
	case mach.LocSpill:
		if isFloat {
			x, err := d.VM.ReadMemFloat(fr.Base + loc.Off)
			if err != nil {
				return vm.Val{}, false
			}
			return vm.Val{F: x, IsF: true}, true
		}
		x, err := d.VM.ReadMemInt(fr.Base + loc.Off)
		if err != nil {
			return vm.Val{}, false
		}
		return vm.Val{I: x}, true
	}
	return vm.Val{}, false
}

// readRecovered reconstructs the expected value from a recovery source.
func (d *Debugger) readRecovered(fr *vm.Frame, rec *core.Recovery) (vm.Val, bool) {
	switch rec.Kind {
	case core.RecoverConst:
		if rec.IsF {
			return vm.Val{F: rec.CF, IsF: true}, true
		}
		return vm.Val{I: rec.C}, true
	case core.RecoverAlias:
		if !rec.Reg.IsReg() {
			return vm.Val{}, false
		}
		if rec.Reg.Class == mach.FloatClass {
			return vm.Val{F: fr.FReg[rec.Reg.R], IsF: true}, true
		}
		return vm.Val{I: fr.IReg[rec.Reg.R]}, true
	case core.RecoverLinear:
		if !rec.Reg.IsReg() || rec.A == 0 {
			return vm.Val{}, false
		}
		x := fr.IReg[rec.Reg.R]
		return vm.Val{I: (x - rec.B) / rec.A}, true
	}
	return vm.Val{}, false
}

// Halted reports whether the program has exited.
func (d *Debugger) Halted() bool { return d.VM.Halted() }

// Output returns the program's output so far.
func (d *Debugger) Output() string { return d.VM.Output() }
