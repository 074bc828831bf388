package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/loadgen"
	"repro/pkg/minic"
)

// sessionResult is what one wire session observed.
type sessionResult struct {
	spec *sessionSpec

	// transcript digests the canonical (loadgen.CanonStop/CanonVar) form
	// of every reply, compared against an in-process run.
	transcript transcript
	output     string // program output at close

	end                       time.Time
	total, firstStop, compile time.Duration
	commands                  []float64 // break/continue/step/print/info round trips, microseconds
	ops, failed               int
	vars, displayable         int
	err                       error
}

// runWire drives one scripted session over c. The script is the same as
// runReference's; a failed command ends the session. With a tracer, each
// command is recorded as a span under parent.
func runWire(c *minic.Client, sp *sessionSpec, tr *tracer, parent int) *sessionResult {
	r := &sessionResult{spec: sp}
	begin := time.Now()
	defer func() {
		r.end = time.Now()
		r.total = r.end.Sub(begin)
	}()
	// timed runs one command, recording its round trip and failure.
	timed := func(cmd string, interactive bool, f func() error) bool {
		r.ops++
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		if tr != nil {
			tr.add("wire."+cmd, parent, sp.index, t0, t1)
		}
		if interactive {
			r.commands = append(r.commands, float64(t1.Sub(t0).Nanoseconds())/1e3)
		}
		if err != nil {
			r.failed++
			r.err = fmt.Errorf("session %d %s: %w", sp.index, cmd, err)
			return false
		}
		return true
	}

	var art *minic.RemoteArtifact
	if !timed("compile", false, func() (err error) {
		art, err = c.Compile(sp.prog.fileName(), sp.src)
		return err
	}) {
		return r
	}
	r.compile = time.Since(begin)
	r.transcript.add(fmt.Sprintf("compile artifact=%s funcs=%d", art.ID, art.Funcs))

	var sess *minic.RemoteSession
	if !timed("open-session", false, func() (err error) {
		sess, err = c.Open(art.ID)
		return err
	}) {
		return r
	}
	defer func() {
		timed("close", false, func() error {
			out, err := sess.Close()
			r.output = out
			r.transcript.add(fmt.Sprintf("close output=%q", out))
			return err
		})
	}()

	var stop *minic.RemoteStop
	if !timed("break", true, func() (err error) {
		stop, err = sess.BreakAtStmt(sp.brk.Func, sp.brk.Stmt)
		return err
	}) {
		return r
	}
	r.transcript.add("break " + loadgen.CanonStop(stop, false, ""))

	for j, o := range sp.ops {
		cmd := "continue"
		if o.step {
			cmd = "step"
		}
		var out string
		if !timed(cmd, true, func() (err error) {
			if o.step {
				stop, out, err = sess.Step()
			} else {
				stop, out, err = sess.Continue()
			}
			return err
		}) {
			return r
		}
		if j == 0 {
			r.firstStop = time.Since(begin)
		}
		r.transcript.add(cmd + " " + loadgen.CanonStop(stop, stop == nil, out))
		if stop == nil {
			return r
		}
		var vars []minic.RemoteVar
		if !timed("info", true, func() (err error) {
			vars, err = sess.Info()
			return err
		}) {
			return r
		}
		r.transcript.add("info " + canonVars(vars))
		r.count(vars)
		if !o.print || len(vars) == 0 {
			continue
		}
		name := vars[o.pick%len(vars)].Name
		var v minic.RemoteVar
		if !timed("print", true, func() (err error) {
			v, err = sess.Print(name)
			return err
		}) {
			return r
		}
		r.transcript.add("print " + loadgen.CanonVar(v))
		r.count([]minic.RemoteVar{v})
	}
	return r
}

func (r *sessionResult) count(vars []minic.RemoteVar) {
	n, d := countVars(vars)
	r.vars += n
	r.displayable += d
}

// countVars counts variable reports and the displayable ones among them,
// as the user sees them on the wire: a report is displayable when it
// shows a current value, or a recovered one, which the display marks
// "(recovered; …)" whatever the variable's state. An aggregate counts
// field by field.
func countVars(vars []minic.RemoteVar) (n, displayable int) {
	for _, v := range vars {
		if len(v.Fields) > 0 {
			fn, fd := countVars(v.Fields)
			n, displayable = n+fn, displayable+fd
			continue
		}
		n++
		value := strings.TrimPrefix(v.Display, v.Name+" = ")
		if strings.Contains(value, " (recovered; ") || (v.State == "current" && !strings.HasPrefix(value, "<")) {
			displayable++
		}
	}
	return n, displayable
}

// countReports counts the same as countVars, from the debugger's own
// reports rather than their displays.
func countReports(reps []*minic.VarReport) (n, displayable int) {
	for _, r := range reps {
		if len(r.Fields) > 0 {
			fn, fd := countReports(r.Fields)
			n, displayable = n+fn, displayable+fd
			continue
		}
		n++
		if r.HasRecovered || (r.Class.State.String() == "current" && r.HasVal) {
			displayable++
		}
	}
	return n, displayable
}

func canonVars(vars []minic.RemoteVar) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = loadgen.CanonVar(v)
	}
	return strings.Join(parts, "; ")
}

// transcript digests canonical lines, so a run keeps 32 bytes per session
// rather than every reply.
type transcript struct{ h hash.Hash }

func (t *transcript) add(line string) {
	if t.h == nil {
		t.h = sha256.New()
	}
	io.WriteString(t.h, line)
	t.h.Write([]byte{'\n'})
}

func (t *transcript) sum() string {
	if t.h == nil {
		return ""
	}
	return string(t.h.Sum(nil))
}

// reference is the in-process run of one session script.
type reference struct {
	lines      []string // the canonical transcript, for mismatch reports
	transcript transcript
	cycles     int64 // guest cycles the session executed
	// vars and displayable are countReports over every info and print.
	vars, displayable int
}

// runReference runs sp's script in process through pkg/minic, compiling
// through st, and renders the same canonical transcript runWire does.
func runReference(st *minic.Store, sp *sessionSpec) (*reference, error) {
	name := sp.prog.fileName()
	art, err := minic.Compile(name, sp.src, minic.WithStore(st))
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	id := compile.KeyOf(name, sp.src, minic.ResolveConfig()).ID()
	ref.add(fmt.Sprintf("compile artifact=%s funcs=%d", id, len(art.Funcs())))
	sess, err := minic.NewSession(art)
	if err != nil {
		return nil, err
	}
	bp, err := sess.BreakAtStmt(sp.brk.Func, sp.brk.Stmt)
	if err != nil {
		return nil, err
	}
	ref.add("break " + loadgen.CanonStop(stopOf(bp), false, ""))
	for _, o := range sp.ops {
		cmd := "continue"
		run := sess.Continue
		if o.step {
			cmd, run = "step", sess.Step
		}
		bp, err := run()
		if err != nil {
			return nil, err
		}
		var out string
		if bp == nil {
			out = sess.Output()
		}
		ref.add(cmd + " " + loadgen.CanonStop(stopOf(bp), bp == nil, out))
		if bp == nil {
			break
		}
		reps, err := sess.Info()
		if err != nil {
			return nil, err
		}
		vars := make([]minic.RemoteVar, len(reps))
		for i, rep := range reps {
			vars[i] = varOf(rep)
		}
		ref.add("info " + canonVars(vars))
		ref.count(reps)
		if !o.print || len(vars) == 0 {
			continue
		}
		rep, err := sess.Print(vars[o.pick%len(vars)].Name)
		if err != nil {
			return nil, err
		}
		ref.add("print " + loadgen.CanonVar(varOf(rep)))
		ref.count([]*minic.VarReport{rep})
	}
	ref.add(fmt.Sprintf("close output=%q", sess.Output()))
	ref.cycles = sess.Debugger().VM.Cycles
	return ref, nil
}

func (r *reference) count(reps []*minic.VarReport) {
	n, d := countReports(reps)
	r.vars += n
	r.displayable += d
}

func (r *reference) add(line string) {
	r.lines = append(r.lines, line)
	r.transcript.add(line)
}

func stopOf(bp *minic.Breakpoint) *minic.RemoteStop {
	if bp == nil {
		return nil
	}
	return &minic.RemoteStop{Func: bp.Fn.Name, Stmt: bp.Stmt, Line: bp.Line}
}

// varOf renders a report as the server does.
func varOf(r *minic.VarReport) minic.RemoteVar {
	v := minic.RemoteVar{Name: r.Name, State: r.Class.State.String(), Display: r.Display()}
	for _, f := range r.Fields {
		v.Fields = append(v.Fields, varOf(f))
	}
	return v
}
