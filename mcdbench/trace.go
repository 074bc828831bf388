package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/debugger"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mach"
	"repro/internal/opt"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/sem"
	"repro/internal/server"
	"repro/pkg/minic"
)

// The traced run. Spans are recorded from the benchmark's own files,
// around calls into each module's public functions; the program itself
// is not instrumented. The wire phase records client round trips and the
// raw request/response lines; the replay phase then re-runs the first
// block of recorded sessions layer by layer in one goroutine, with the
// daemon idle, so per-layer times do not contend with the load.

// span is one traced interval; Parent indexes the enclosing span (-1 for
// a root) and Session is the plan index of the session it belongs to.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so replay's priming can share the traced code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, parent, sess int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds(), parent, sess})
	return len(t.spans) - 1
}

// open starts a span that close ends; children may be added in between.
func (t *tracer) open(name string, parent, sess int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.add(name, parent, sess, now, now)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, sess int, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	if t != nil {
		t.add(name, parent, sess, t0, t1)
	}
	return t1.Sub(t0)
}

// agg summarizes the spans of one name. Self time is a span's duration
// minus the part its child spans cover.
type agg struct {
	total, self time.Duration
	durs        []float64 // microseconds, one per span
}

func (t *tracer) aggregate() map[string]*agg {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*agg{}
	for i, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &agg{}
			out[s.Name] = a
		}
		d := s.End - s.Start
		a.total += time.Duration(d)
		a.self += time.Duration(max(d-child[i], 0))
		a.durs = append(a.durs, float64(d)/1e3)
	}
	return out
}

// write saves the spans as JSON lines in dir.
func (t *tracer) write(dir, tag string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "mcdbench-spans-"+tag+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recListener hands connections accepted while record is set to the
// benchmark as recConns, which keep every byte read and written.
type recListener struct {
	net.Listener
	record   atomic.Bool
	accepted chan *recConn
}

func (l *recListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.record.Load() {
		return c, err
	}
	rc := &recConn{Conn: c}
	l.accepted <- rc
	return rc, nil
}

type recConn struct {
	net.Conn
	mu      sync.Mutex
	in, out []byte
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in = append(c.in, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// sessions splits the recorded request and response lines into one
// group per session; a session starts at its compile request.
func (c *recConn) sessions() (reqs, resps [][][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := bytes.Split(bytes.TrimSuffix(c.in, []byte("\n")), []byte("\n"))
	out := bytes.Split(bytes.TrimSuffix(c.out, []byte("\n")), []byte("\n"))
	for i, line := range in {
		if bytes.Contains(line, []byte(`"cmd":"compile"`)) {
			reqs = append(reqs, nil)
			resps = append(resps, nil)
		}
		if len(reqs) == 0 || i >= len(out) {
			continue
		}
		reqs[len(reqs)-1] = append(reqs[len(reqs)-1], line)
		resps[len(resps)-1] = append(resps[len(resps)-1], out[i])
	}
	return reqs, resps
}

type memStats struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{m.Mallocs, m.TotalAlloc, m.NumGC}
}

func (a memStats) sub(b memStats) memStats {
	return memStats{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcs - b.gcs}
}

// instrCounts is one function's (or program's) size after the back end.
type instrCounts struct{ ir, mach int64 }

// compiled is a replayed compile: the program the debugger replay runs.
type compiled struct {
	res    *compile.Result
	set    *core.AnalysisSet
	counts instrCounts
}

type replayResult struct {
	sessions, attempted, failed int
	cached, funcs, reused       int
	counts                      instrCounts
	mallocs                     uint64
	commands                    int
	continues                   int
	contCycles                  int64
	contTime                    time.Duration
	// decode and handle times of interactive commands, microseconds
	decode, handle []float64
}

var interactive = map[string]bool{"break": true, "continue": true, "step": true, "print": true, "info": true}

// replayer holds the in-process copies of the daemon's state: a server
// for Handle, a pipeline with a function cache, and the function keys the
// daemon's cache holds, all primed with the base programs as the daemon
// was at set-up.
type replayer struct {
	cfg   compile.Config
	srv   *server.Server
	pipe  *compile.Pipeline
	known map[compile.FuncKey]instrCounts
	progs map[string]*compiled // by source
	tr    *tracer
}

func replay(t *Table, pl *planner, ph *phaseRun, tr *tracer) (*replayResult, error) {
	// Group the recorded lines by session index.
	type lines struct{ reqs, resps [][]byte }
	bySession := map[int]lines{}
	for k, rc := range ph.conns {
		reqs, resps := rc.sessions()
		if len(reqs) != len(ph.order[k]) {
			return nil, fmt.Errorf("client %d: recorded %d sessions, ran %d", k, len(reqs), len(ph.order[k]))
		}
		for j, i := range ph.order[k] {
			bySession[i] = lines{reqs[j], resps[j]}
		}
	}

	rp := &replayer{
		cfg:   minic.ResolveConfig(),
		srv:   server.New(server.Options{MemoryBudget: memoryBudget}),
		pipe:  compile.NewPipeline(compile.PipelineConfig{Funcs: compile.NewFuncCache(compile.FuncCacheConfig{})}),
		known: map[compile.FuncKey]instrCounts{},
		progs: map[string]*compiled{},
	}
	defer rp.srv.Close()
	for i := range t.Programs {
		p := &t.Programs[i]
		if resp := rp.srv.Handle(&server.Request{Cmd: "compile", Name: p.fileName(), Src: p.src}); !resp.OK {
			return nil, fmt.Errorf("replay priming %s: %s", p.Name, resp.Error.Message)
		}
		if _, err := rp.compile(-1, -1, p.fileName(), p.src); err != nil {
			return nil, err
		}
	}
	rp.tr = tr

	out := &replayResult{}
	for i := tracedBase; i < tracedBase+pl.blockLen(); i++ {
		ls, ok := bySession[i]
		if !ok {
			return nil, fmt.Errorf("session %d was not recorded", i)
		}
		if err := rp.session(out, pl.session(i), ls.reqs, ls.resps); err != nil {
			return nil, fmt.Errorf("replay of session %d: %w", i, err)
		}
	}
	return out, nil
}

// compile replays the compile side of one session layer by layer, then
// as the daemon runs it: the per-function pipeline and the analysis
// precompute.
func (rp *replayer) compile(parent, sess int, name, src string) (*compiled, error) {
	tr := rp.tr
	var err error
	var sp *sem.Program
	tr.timed("sem.check", parent, sess, func() { sp, err = sem.CheckSource(name, src) })
	if err != nil {
		return nil, err
	}
	var prog *ir.Program
	tr.timed("ir.build", parent, sess, func() { prog = ir.Build(sp) })
	keys := make([]compile.FuncKey, len(prog.Funcs))
	tr.timed("compile.funckey", parent, sess, func() {
		sig := compile.GlobalsSigOf(prog, rp.cfg)
		for j, f := range prog.Funcs {
			keys[j] = compile.FuncKeyOf(f, sig)
		}
	})
	c := &compiled{}
	for j, f := range prog.Funcs {
		if n, ok := rp.known[keys[j]]; ok {
			c.counts.ir += n.ir
			c.counts.mach += n.mach
			continue
		}
		var mf *mach.Func
		tr.timed("opt.run", parent, sess, func() { opt.RunFunc(f, rp.cfg.Opt) })
		tr.timed("lower", parent, sess, func() { mf = lower.LowerFunc(f) })
		tr.timed("regalloc", parent, sess, func() { err = regalloc.AllocateFunc(mf) })
		if err != nil {
			return nil, err
		}
		tr.timed("sched", parent, sess, func() { sched.ScheduleFunc(mf) })
		var n instrCounts
		for _, b := range f.Blocks {
			n.ir += int64(len(b.Instrs))
		}
		for _, b := range mf.Blocks {
			n.mach += int64(len(b.Instrs))
		}
		rp.known[keys[j]] = n
		c.counts.ir += n.ir
		c.counts.mach += n.mach
	}
	tr.timed("compile.pipeline", parent, sess, func() { c.res, _, err = rp.pipe.Compile(name, src, rp.cfg) })
	if err != nil {
		return nil, err
	}
	c.set = core.NewAnalysisSet()
	tr.timed("core.precompute", parent, sess, func() { c.set.Precompute(c.res.Mach, 0) })
	rp.progs[src] = c
	return c, nil
}

func (rp *replayer) session(out *replayResult, sp *sessionSpec, reqs, resps [][]byte) error {
	tr, i := rp.tr, sp.index
	root := tr.open("replay.session", -1, i)
	defer tr.close(root)
	out.sessions++

	var cr server.Response
	if len(resps) == 0 || json.Unmarshal(resps[0], &cr) != nil || !cr.OK {
		return fmt.Errorf("no compile reply recorded")
	}
	out.funcs += cr.Funcs
	out.reused += cr.FuncsReused
	c := rp.progs[sp.src]
	if cr.Cached {
		out.cached++
		if c == nil {
			return fmt.Errorf("daemon hit on a program the replay never compiled")
		}
	} else {
		id := tr.open("replay.compile", root, i)
		var err error
		c, err = rp.compile(id, i, sp.prog.fileName(), sp.src)
		tr.close(id)
		if err != nil {
			return err
		}
	}
	out.counts.ir += c.counts.ir
	out.counts.mach += c.counts.mach

	// Server side: decode each recorded request line and answer it on the
	// replay server's in-process Handle surface.
	m0 := readMem()
	var sessID string
	for _, line := range reqs {
		var req server.Request
		var err error
		d := tr.timed("server.decode", root, i, func() { err = json.Unmarshal(line, &req) })
		if err != nil {
			return err
		}
		if req.Session != "" {
			req.Session, req.Handle = sessID, ""
		}
		var resp *server.Response
		h := tr.timed("server.handle."+req.Cmd, root, i, func() { resp = rp.srv.Handle(&req) })
		out.attempted++
		if !resp.OK {
			out.failed++
			fmt.Fprintf(os.Stderr, "mcdbench: replayed %s failed: %s\n", req.Cmd, resp.Error.Message)
		}
		if req.Cmd == "open-session" {
			sessID = resp.Session
		}
		if interactive[req.Cmd] {
			out.decode = append(out.decode, float64(d.Nanoseconds())/1e3)
			out.handle = append(out.handle, float64(h.Nanoseconds())/1e3)
		}
	}
	out.mallocs += readMem().sub(m0).mallocs
	out.commands += len(reqs)

	// Debugger side: the same script straight on the debugger.
	dbg, err := debugger.NewShared(c.res, c.set)
	if err != nil {
		return err
	}
	if _, err := dbg.BreakAtStmt(sp.brk.Func, sp.brk.Stmt); err != nil {
		return err
	}
	for _, o := range sp.ops {
		var bp *debugger.Breakpoint
		before := dbg.VM.Cycles
		if o.step {
			tr.timed("debugger.step", root, i, func() { bp, err = dbg.Step() })
		} else {
			d := tr.timed("debugger.continue", root, i, func() { bp, err = dbg.Continue() })
			out.continues++
			out.contCycles += dbg.VM.Cycles - before
			out.contTime += d
		}
		if err != nil {
			return err
		}
		if bp == nil {
			break
		}
		a := c.set.Of(bp.Fn)
		tr.timed("core.classify", root, i, func() { a.ClassifyAllAt(bp.Stmt) })
		var reps []*debugger.VarReport
		tr.timed("debugger.info", root, i, func() { reps, err = dbg.Info() })
		if err != nil {
			return err
		}
		if o.print && len(reps) > 0 {
			tr.timed("debugger.print", root, i, func() { _, err = dbg.Print(reps[o.pick%len(reps)].Name) })
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// layerMetrics turns the traced phase and the replay into the per-layer
// metrics.
func layerMetrics(un, traced *phaseRun, rp *replayResult, tr *tracer) map[string]metric {
	ag := tr.aggregate()
	n := float64(rp.sessions)
	m := map[string]metric{}
	// Compile-side layers: self time per replayed session, so a layer the
	// workload never reaches reads 0.
	for name, span := range map[string]string{
		"sem.check_us": "sem.check", "ir.build_us": "ir.build", "compile.funckey_us": "compile.funckey",
		"compile.pipeline_us": "compile.pipeline", "opt.run_us": "opt.run", "lower.us": "lower",
		"regalloc.us": "regalloc", "sched.us": "sched", "core.precompute_us": "core.precompute",
	} {
		var us float64
		if a := ag[span]; a != nil {
			us = float64(a.self.Nanoseconds()) / 1e3 / n
		}
		m[name] = metric{us, "us"}
	}
	med := func(span string) float64 {
		if a := ag[span]; a != nil {
			return median(a.durs)
		}
		return 0
	}
	for _, s := range []string{"server.decode", "debugger.continue", "debugger.step", "debugger.print", "debugger.info", "core.classify"} {
		m[s+"_us"] = metric{med(s), "us"}
	}
	for _, cmd := range []string{"compile", "open-session", "break", "continue", "step", "print", "info", "close"} {
		m["server.handle_us."+cmd] = metric{med("server.handle." + cmd), "us"}
	}
	var wire []float64
	for cmd := range interactive {
		if a := ag["wire."+cmd]; a != nil {
			wire = append(wire, a.durs...)
		}
	}
	m["server.wire_us"] = metric{median(wire) - median(rp.decode) - median(rp.handle), "us"}
	m["server.allocs_per_command"] = metric{float64(rp.mallocs) / float64(max(rp.commands, 1)), "count"}
	m["compile.funcs_reused_ratio"] = metric{ratio(rp.reused, rp.funcs), "ratio"}
	m["artstore.hit_ratio"] = metric{float64(rp.cached) / n, "ratio"}
	m["opt.ir_instrs"] = metric{float64(rp.counts.ir) / n, "count"}
	m["mach.instrs"] = metric{float64(rp.counts.mach) / n, "count"}
	m["vm.cycles_per_continue"] = metric{float64(rp.contCycles) / float64(max(rp.continues, 1)), "cycles"}
	m["vm.minstr_per_s"] = metric{float64(rp.contCycles) / max(rp.contTime.Seconds(), 1e-9) / 1e6, "Minstr/s"}
	ts := float64(len(traced.results))
	m["runtime.alloc_kb_per_session"] = metric{float64(traced.mem.bytes) / 1024 / ts, "KiB"}
	m["runtime.gc_cycles_per_session"] = metric{float64(traced.mem.gcs) / ts, "count"}
	// Tracing overhead: the traced phase's interactive-command median
	// against the untraced phase's, same daemon, same workload.
	m["trace.overhead_pct"] = metric{(median(traced.commands())/median(un.commands()) - 1) * 100, "%"}
	return m
}

// printBreakdown writes where the replayed time went: each compile layer's
// share of the replayed compiles, and decode's share of serving CPU.
func printBreakdown(w io.Writer, workload string, tr *tracer) {
	ag := tr.aggregate()
	if c := ag["replay.compile"]; c != nil {
		layers := []string{"sem.check", "ir.build", "compile.funckey", "opt.run", "lower", "regalloc", "sched"}
		var serial time.Duration
		for _, s := range layers {
			if a := ag[s]; a != nil {
				serial += a.self
			}
		}
		n := float64(len(c.durs))
		fmt.Fprintf(w, "breakdown %s serial compile %.2f ms per replayed compile:", workload, float64(serial.Nanoseconds())/1e6/n)
		for _, s := range layers {
			if a := ag[s]; a != nil {
				fmt.Fprintf(w, " %s %.1f%%", s, 100*float64(a.self)/float64(serial))
			}
		}
		for _, s := range []string{"compile.pipeline", "core.precompute"} {
			if a := ag[s]; a != nil {
				fmt.Fprintf(w, "; %s %.2f ms", s, float64(a.total.Nanoseconds())/1e6/n)
			}
		}
		fmt.Fprintln(w)
	}
	var dec, handle time.Duration
	for name, a := range ag {
		switch {
		case name == "server.decode":
			dec += a.total
		case len(name) > 14 && name[:14] == "server.handle.":
			handle += a.total
		}
	}
	if dec+handle > 0 {
		fmt.Fprintf(w, "breakdown %s serving: decode %.1f%% handle %.1f%% of decode+handle\n", workload,
			100*float64(dec)/float64(dec+handle), 100*float64(handle)/float64(dec+handle))
	}
}
