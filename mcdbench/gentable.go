package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/debugger"
	"repro/internal/vm"
)

// genTable builds table.json: it is run by hand (go run . -gen-table >
// table.json) whenever the corpus or the compiler's statement numbering
// changes, never during a benchmark run.
func genTable(w io.Writer, names []string) error {
	t := Table{CycleBound: 250_000}
	for _, name := range names {
		p, err := genProgram(name, t.CycleBound)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		t.Programs = append(t.Programs, *p)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// hitStats is what one scan learns about a statement.
type hitStats struct {
	hits                int
	first, cold, inspct int64
}

func genProgram(name string, bound int64) (*Program, error) {
	src, err := bench.Source(name)
	if err != nil {
		return nil, err
	}
	p := &Program{Name: name, src: src}
	o0, err := compile.Compile(p.fileName(), src, compile.O0())
	if err != nil {
		return nil, err
	}
	if p.O0Output, err = runToExit(o0); err != nil {
		return nil, err
	}
	res, err := compile.Compile(p.fileName(), src, compile.O2())
	if err != nil {
		return nil, err
	}

	// One scan with every statement armed: the stop sequence is the
	// program's statement trace, so each statement's hit count and the
	// cycle count at its n-th hit fall out of a single run.
	d, err := debugger.New(res)
	if err != nil {
		return nil, err
	}
	for _, f := range res.Mach.Funcs {
		for s := 0; s < f.Decl.NumStmts; s++ {
			_, _ = d.BreakAtStmt(f.Name, s) // statements without code have no location
		}
	}
	type key struct {
		fn   string
		stmt int
	}
	stats := map[key]*hitStats{}
	for d.VM.Cycles <= 4*bound {
		bp, err := d.Continue()
		if err != nil {
			return nil, err
		}
		if bp == nil {
			break
		}
		k := key{bp.Fn.Name, bp.Stmt}
		st := stats[k]
		if st == nil {
			st = &hitStats{}
			stats[k] = st
		}
		if st.hits < hitCap {
			st.hits++
		}
		switch st.hits {
		case 1:
			st.first = d.VM.Cycles
		case ColdStops:
			st.cold = d.VM.Cycles
		case InspectStops:
			st.inspct = d.VM.Cycles
		}
	}

	// Candidates: statements lexically inside a loop that are hit at least
	// InspectStops times with the run-up to that hit within the bound.
	// Every one goes into the table; sessions draw from them by seed.
	set := core.NewAnalysisSet()
	for _, f := range res.Mach.Funcs {
		loops := loopLines(f.Decl, res)
		stmts := ast.StmtsByID(f.Decl)
		for s, st := range stmts {
			hs := stats[key{f.Name, s}]
			if st == nil || loops[s] == 0 || hs == nil || hs.hits < InspectStops || hs.inspct > bound {
				continue
			}
			line := res.File.Position(st.Span().Start).Line
			vars := 0
			for _, o := range set.Of(f).Table.VarsInScope(s) {
				if o.Base == nil {
					vars++
				}
			}
			p.Breaks = append(p.Breaks, Break{
				Func: f.Name, Stmt: s, Line: line, Hits: hs.hits,
				RunupCycles: hs.first, ColdRunupCycles: hs.cold, InspectRunupCycles: hs.inspct,
				Reason: fmt.Sprintf("body of the loop at line %d of %s; hit %d+ times; run-up %d cycles to hit 1, %d to hit %d (bound %d); %d variables in scope",
					loops[s], f.Name, hs.hits, hs.first, hs.inspct, InspectStops, bound, vars),
			})
		}
	}
	if len(p.Breaks) == 0 {
		return nil, fmt.Errorf("no loop-body statement within %d cycles", bound)
	}

	base := compile.NewPipeline(compile.PipelineConfig{Workers: 1, Funcs: compile.NewFuncCache(compile.FuncCacheConfig{})})
	if _, _, err := base.Compile(p.fileName(), src, compile.O2()); err != nil {
		return nil, err
	}
	// The cold variant must miss every function and change nothing a
	// session observes.
	if err := checkVariant(p, base, p.coldSource(12345), 0, ""); err != nil {
		return nil, fmt.Errorf("cold variant: %w", err)
	}
	p.ColdVariant = fmt.Sprintf("a global prepended on line 1: O2 output equals the O0 output, 0 of %d functions reused from the function cache, breakpoint lines unchanged",
		len(res.Mach.Funcs))
	for _, f := range res.Mach.Funcs {
		off := int(f.Decl.Body.Span().Start) + 1
		if off <= 0 || src[off-1] != '{' {
			continue
		}
		e := Edit{Func: f.Name, Offset: off, Line: res.File.Position(f.Decl.Body.Span().Start).Line}
		n := len(res.Mach.Funcs)
		if err := checkVariant(p, base, p.editSource(e, 12345), n-1, f.Name); err != nil {
			return nil, fmt.Errorf("edit of %s: %w", f.Name, err)
		}
		e.Reason = fmt.Sprintf("dead branch at the top of %s: O2 output equals the O0 output, %d of %d functions reused from the function cache, breakpoint lines unchanged",
			f.Name, n-1, n)
		p.Edits = append(p.Edits, e)
	}
	for _, b := range p.Breaks {
		ok := false
		for _, e := range p.Edits {
			ok = ok || e.Func != b.Func
		}
		if !ok {
			return nil, fmt.Errorf("no edit site outside %s", b.Func)
		}
	}
	return p, nil
}

// checkVariant compiles a variant through a pipeline whose function cache
// holds the base program and checks that wantReused functions were
// stitched from it, that its whole O2 output equals the base program's O0
// output, and that every breakpoint outside the edited function keeps its
// line.
func checkVariant(p *Program, base *compile.Pipeline, src string, wantReused int, edited string) error {
	res, m, err := base.Compile(p.fileName(), src, compile.O2())
	if err != nil {
		return err
	}
	if m.FuncsReused != wantReused {
		return fmt.Errorf("%d functions reused, want %d", m.FuncsReused, wantReused)
	}
	out, err := runToExit(res)
	if err != nil {
		return err
	}
	if out != p.O0Output {
		return fmt.Errorf("output differs from O0")
	}
	d, err := debugger.New(res)
	if err != nil {
		return err
	}
	for _, b := range p.Breaks {
		if b.Func == edited {
			continue
		}
		bp, err := d.BreakAtStmt(b.Func, b.Stmt)
		if err != nil {
			return err
		}
		if bp.Line != b.Line {
			return fmt.Errorf("breakpoint %s:%d moved to line %d", b.Func, b.Stmt, bp.Line)
		}
	}
	return nil
}

func runToExit(res *compile.Result) (string, error) {
	m, err := vm.New(res.Mach)
	if err != nil {
		return "", err
	}
	if err := m.Run(); err != nil {
		return "", err
	}
	return m.Output(), nil
}

// loopLines maps each statement ID of f to the line of its innermost
// enclosing loop, or 0 outside loops.
func loopLines(f *ast.FuncDecl, res *compile.Result) []int {
	out := make([]int, f.NumStmts)
	var walk func(s ast.Stmt, loop int)
	walkBlock := func(b *ast.Block, loop int) {
		for _, s := range b.Stmts {
			walk(s, loop)
		}
	}
	walk = func(s ast.Stmt, loop int) {
		if b, ok := s.(*ast.Block); ok {
			walkBlock(b, loop)
			return
		}
		if id := s.ID(); id >= 0 && id < len(out) {
			out[id] = loop
		}
		line := res.File.Position(s.Span().Start).Line
		switch s := s.(type) {
		case *ast.IfStmt:
			walkBlock(s.Then, loop)
			if s.Else != nil {
				walk(s.Else, loop)
			}
		case *ast.WhileStmt:
			walkBlock(s.Body, line)
		case *ast.DoWhileStmt:
			walkBlock(s.Body, line)
		case *ast.ForStmt:
			if s.Init != nil {
				walk(s.Init, loop)
			}
			walkBlock(s.Body, line)
			if s.Post != nil {
				walk(s.Post, line)
			}
		}
	}
	walkBlock(f.Body, 0)
	return out
}
