// mcdbench is the repository's end-to-end benchmark: scripted debug
// sessions (compile, open, break, stop N times with info/print, close)
// driven through the public pkg/minic client against an in-process mcd
// server on a unix socket, by a closed loop of one client. Every run
// checks each session's transcript against an in-process reference and
// prints one JSON result line last.
//
// Usage (from the repository root; mcdbench/run.sh builds and runs it):
//
//	mcdbench --workload cold_debug|edit_debug|inspect_debug --seed N --seconds S --trace 0|1
//	mcdbench -gen-table > table.json   (from mcdbench/; regenerates the breakpoint and edit table)
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics. MODEL.md says which layer
// should move which end-to-end metric on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/pkg/minic"
)

var programNames = []string{"li", "eqntott", "espresso", "gcc", "alvinn", "compress", "ear", "sc"}

const (
	// clients is the closed loop's connection count: a debugger user (or
	// the oracle harness) sends each command only after the previous
	// reply, so each client keeps exactly one request in flight.
	// One client leaves the second CPU to the compile workers and the
	// collector; with more, the clients' threads compete with the server
	// for both CPUs and the timings follow the host's scheduler (MODEL.md,
	// Steadiness).
	clients = 1
	// gateWorkers is how many in-process references the correctness gate
	// runs at once, after the timed window.
	gateWorkers = 2
	// setups is how many times set-up runs per invocation; setup_s is
	// their median.
	setups = 7
	// memoryBudget is the daemon's -mem-budget. It bounds the function
	// cache to a quarter of it, which cold_debug fills within a run, so
	// memory reaches a steady state instead of growing with the number of
	// sessions a run completes. The artifact store's own bound, by count,
	// binds long before its share of the budget does.
	memoryBudget = 24 << 20
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spanDir receives the traced run's spans; empty keeps them in memory.
	spanDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// e2e holds the end-to-end metrics in traced runs too, where they come
	// from the untraced phase; the determinism test reads them.
	e2e map[string]metric
}

func main() {
	var o options
	var trace int
	gen := flag.Bool("gen-table", false, "write the breakpoint and edit table to stdout and exit")
	flag.StringVar(&o.workload, "workload", Cold, "cold_debug, edit_debug or inspect_debug")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	if *gen {
		if err := genTable(os.Stdout, programNames); err != nil {
			fmt.Fprintln(os.Stderr, "mcdbench:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace == 1
	o.spanDir = ".bench_build"
	if !validWorkload(o.workload) || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "mcdbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

// run performs one benchmark invocation; log receives the human-readable
// detail (sample counts, the traced breakdown).
func run(o options, log io.Writer) (*result, error) {
	var setupTimes []float64
	var d *daemon
	var pl *planner
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		t, err := loadTable()
		if err != nil {
			return nil, err
		}
		d, err = startDaemon(t)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		pl = newPlanner(t, o.workload, o.seed)
	}
	defer d.stop()

	phase := time.Duration(o.seconds * float64(time.Second))
	// Ramp-up: the first seconds of load run slower while the heap and
	// the daemon's caches grow to their working size, so a quarter of the
	// measured time runs untimed first. Its sessions are gated like the
	// rest.
	ramp, err := d.closedLoop(pl, rampBase, phase/4, 0, nil)
	if err != nil {
		return nil, err
	}
	if o.trace {
		phase /= 2
	}
	// The deterministic metrics are taken over the first detBlocks
	// blocks, so every run completes them whatever the clock says.
	det := detBlocks * pl.blockLen()
	un, err := d.closedLoop(pl, 0, phase, det, nil)
	if err != nil {
		return nil, err
	}
	peakRSS := peakRSSMB()
	if st, err := d.stats.Stats(); err == nil {
		fmt.Fprintf(log, "daemon: %d artifacts (%d B), function cache %d entries (%d B, %d evictions)\n",
			st.CacheEntries, st.CacheMemoryBytes, st.FuncCacheEntries, st.FuncCacheBytes, st.FuncCacheEvictions)
	}
	res := &result{}
	var traced *phaseRun
	var tr *tracer
	if o.trace {
		tr = newTracer()
		// Traced sessions use indices far past the untraced ones, so no
		// variant repeats and the replayed sessions do not depend on how
		// many untraced sessions fit in the phase.
		if traced, err = d.closedLoop(pl, tracedBase, phase, pl.blockLen(), tr); err != nil {
			return nil, err
		}
	}
	refs, err := checkRuns(d.table, res, ramp, un, traced)
	if err != nil {
		return nil, err
	}

	var cycles int64
	var vars, disp int
	for _, r := range un.results[:det] {
		cycles += refs[r.spec.index].cycles
		vars += r.vars
		disp += r.displayable
	}
	e2e := map[string]metric{
		"sessions_per_s":           {un.rate(), "1/s"},
		"peak_rss_mb":              {peakRSS, "MB"},
		"guest_cycles_per_session": {float64(cycles) / float64(det), "cycles"},
		"displayable_ratio":        {ratio(disp, vars), "ratio"},
		"setup_s":                  {median(setupTimes), "s"},
	}
	var sess, first, comp []float64
	for _, r := range un.results {
		sess = append(sess, ms(r.total))
		comp = append(comp, ms(r.compile))
		if r.firstStop > 0 {
			first = append(first, ms(r.firstStop))
		}
	}
	cmds := un.commands()
	pct := func(name string, xs []float64, p float64, unit string) {
		v, used := percentile(xs, p)
		e2e[name] = metric{v, unit}
		fmt.Fprintf(log, "%-26s %12.4f %-6s p%g of %d samples\n", name, v, unit, used*100, len(xs))
	}
	pct("session_p50_ms", sess, 0.5, "ms")
	pct("session_p90_ms", sess, 0.9, "ms")
	pct("first_stop_p50_ms", first, 0.5, "ms")
	pct("first_stop_p90_ms", first, 0.9, "ms")
	pct("compile_p50_ms", comp, 0.5, "ms")
	pct("compile_p90_ms", comp, 0.9, "ms")
	pct("command_p50_us", cmds, 0.5, "us")
	// The command tail is p90: on a shared VM the p99 follows how often
	// the hypervisor preempts the guest as much as the program (MODEL.md,
	// Steadiness), so it is logged only.
	pct("command_p90_us", cmds, 0.9, "us")
	p99, _ := percentile(cmds, 0.99)
	fmt.Fprintf(log, "%-26s %12.4f %-6s (logged only)\n", "command_p99_us", p99, "us")

	res.e2e = e2e
	if !o.trace {
		res.Metrics = e2e
	} else {
		rp, err := replay(d.table, pl, traced, tr)
		if err != nil {
			return nil, err
		}
		res.Metrics = layerMetrics(un, traced, rp, tr)
		res.Failed += rp.failed
		res.Attempted += rp.attempted
		printBreakdown(log, o.workload, tr)
		if err := tr.write(o.spanDir, fmt.Sprintf("%s-%d", o.workload, o.seed)); err != nil {
			fmt.Fprintln(log, "mcdbench: spans not written:", err)
		}
	}
	res.Correct = res.Failed == 0
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(log, "metric %-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(log, "sessions %d, attempted %d, failed %d\n", len(un.results), res.Attempted, res.Failed)
	return res, nil
}

// First session indices of the traced and ramp-up phases; the measured
// phase starts at 0.
const (
	tracedBase = 1 << 20
	rampBase   = 1 << 21
)

// daemon is the in-process mcd: a server.Server behind a unix listener,
// served by the same ListenAndServe path cmd/mcd uses.
type daemon struct {
	table *Table
	srv   *server.Server
	ln    *recListener
	addr  string
	done  chan error
	stats *minic.Client
}

var daemonSeq atomic.Int64

// startDaemon starts the server and warms it: every base program is
// compiled (so inspect_debug compiles hit and edit_debug finds the
// function cache primed) and one short session runs on each.
func startDaemon(t *Table) (*daemon, error) {
	d := &daemon{table: t, srv: server.New(server.Options{MemoryBudget: memoryBudget}), done: make(chan error, 1)}
	// An abstract unix socket: no file to create or clean up.
	d.addr = fmt.Sprintf("@mcdbench-%d-%d", os.Getpid(), daemonSeq.Add(1))
	l, err := net.Listen("unix", d.addr)
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.ln = &recListener{Listener: l, accepted: make(chan *recConn)}
	go func() { d.done <- d.srv.ListenAndServe(d.ln) }()
	if d.stats, err = minic.Dial("unix", d.addr); err != nil {
		d.stop()
		return nil, err
	}
	c, err := minic.Dial("unix", d.addr)
	if err != nil {
		d.stop()
		return nil, err
	}
	defer c.Close()
	for i := range t.Programs {
		p := &t.Programs[i]
		sp := &sessionSpec{index: -1, prog: p, brk: p.Breaks[0], src: p.src, ops: make([]op, 1)}
		if r := runWire(c, sp, nil, -1); r.err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return d, nil
}

func (d *daemon) stop() {
	if d.stats != nil {
		d.stats.Close()
	}
	d.srv.Close()
	<-d.done
}

// phaseRun is one closed-loop phase.
type phaseRun struct {
	results []*sessionResult // by session index
	start   time.Time
	// conns pairs each client's recorded connection (traced phase only)
	// with the session indices it ran, in order.
	conns []*recConn
	order [][]int
	// stats deltas over the phase
	slowRuns, cycles int64
	mem              memStats
}

// closedLoop runs clients that each issue sessions back to back, drawing
// indices start, start+1, ... from a shared counter, until dur has passed
// and at least minSessions sessions have started.
func (d *daemon) closedLoop(pl *planner, start int, dur time.Duration, minSessions int, tr *tracer) (*phaseRun, error) {
	before, err := d.stats.Stats()
	if err != nil {
		return nil, err
	}
	ph := &phaseRun{order: make([][]int, clients)}
	cs := make([]*minic.Client, clients)
	for k := range cs {
		if tr != nil {
			d.ln.record.Store(true)
		}
		c, err := minic.Dial("unix", d.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		cs[k] = c
		if tr != nil {
			// The listener hands over the accepted side of this very
			// connection; no other dial is in flight.
			ph.conns = append(ph.conns, <-d.ln.accepted)
			d.ln.record.Store(false)
		}
	}
	m0 := readMem()
	var next atomic.Int64
	next.Store(int64(start))
	t0 := time.Now()
	deadline := t0.Add(dur)
	per := make([][]*sessionResult, clients)
	var wg sync.WaitGroup
	for k := range cs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(deadline) || next.Load() < int64(start+minSessions) {
				i := int(next.Add(1) - 1)
				sp := pl.session(i)
				parent := -1
				if tr != nil {
					parent = tr.open("wire.session", -1, i)
				}
				r := runWire(cs[k], sp, tr, parent)
				if tr != nil {
					tr.close(parent)
				}
				per[k] = append(per[k], r)
				ph.order[k] = append(ph.order[k], i)
			}
		}(k)
	}
	wg.Wait()
	ph.start = t0
	ph.mem = readMem().sub(m0)
	after, err := d.stats.Stats()
	if err != nil {
		return nil, err
	}
	ph.slowRuns = after.VMSlowRuns - before.VMSlowRuns
	ph.cycles = after.CyclesExecuted - before.CyclesExecuted
	for _, rs := range per {
		ph.results = append(ph.results, rs...)
	}
	sort.Slice(ph.results, func(i, j int) bool { return ph.results[i].spec.index < ph.results[j].spec.index })
	return ph, nil
}

// checkRuns is the correctness gate: every wire session's transcript must
// equal its in-process reference, the variable reports its wire displays
// count as displayable must be the ones the reference's reports say are
// current or recovered, its output must be a prefix of the
// program's O0 output, the daemon must have executed exactly the
// references' guest cycles, and the VM must never have left its fast
// path. Each violation counts as a failed operation.
func checkRuns(t *Table, res *result, phases ...*phaseRun) (map[int]*reference, error) {
	// Bounded like the daemon's store: edit variants would otherwise pile
	// up by the thousand. Function-level reuse is unaffected.
	st := minic.NewStore(minic.WithMaxArtifacts(server.DefaultCacheSize))
	for i := range t.Programs {
		p := &t.Programs[i]
		if _, err := minic.Compile(p.fileName(), p.src, minic.WithStore(st)); err != nil {
			return nil, err
		}
	}
	var all []*sessionResult
	for _, ph := range phases {
		if ph != nil {
			all = append(all, ph.results...)
		}
	}
	refs := make([]*reference, len(all))
	errs := make([]error, len(all))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < gateWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(all); i = int(next.Add(1) - 1) {
				refs[i], errs[i] = runReference(st, all[i].spec)
			}
		}()
	}
	wg.Wait()
	byIndex := map[int]*reference{}
	for i, r := range all {
		res.Attempted += r.ops
		res.Failed += r.failed
		if r.err != nil {
			fmt.Fprintln(os.Stderr, "mcdbench:", r.err)
		}
		if errs[i] != nil {
			return nil, fmt.Errorf("reference for session %d: %w", r.spec.index, errs[i])
		}
		byIndex[r.spec.index] = refs[i]
		if r.err == nil && (r.vars != refs[i].vars || r.displayable != refs[i].displayable) {
			res.Failed++
			fmt.Fprintf(os.Stderr, "mcdbench: session %d: %d of %d variable reports displayable on the wire, %d of %d in the debugger's reports\n",
				r.spec.index, r.displayable, r.vars, refs[i].displayable, refs[i].vars)
		}
		if r.err == nil && r.transcript.sum() != refs[i].transcript.sum() {
			res.Failed++
			fmt.Fprintf(os.Stderr, "mcdbench: session %d transcript differs from the reference:\n  %s\n",
				r.spec.index, strings.Join(refs[i].lines, "\n  "))
		}
		refs[i].lines = nil
		if !strings.HasPrefix(r.spec.prog.O0Output, r.output) {
			res.Failed++
			fmt.Fprintf(os.Stderr, "mcdbench: session %d output is not a prefix of the O0 output\n", r.spec.index)
		}
	}
	for _, ph := range phases {
		if ph == nil {
			continue
		}
		var want int64
		for _, r := range ph.results {
			want += byIndex[r.spec.index].cycles
		}
		if ph.cycles != want {
			res.Failed++
			fmt.Fprintf(os.Stderr, "mcdbench: daemon executed %d guest cycles, references %d\n", ph.cycles, want)
		}
		if ph.slowRuns != 0 {
			res.Failed += int(ph.slowRuns)
			fmt.Fprintf(os.Stderr, "mcdbench: vm_slow_runs moved by %d\n", ph.slowRuns)
		}
	}
	return byIndex, nil
}

// percentile is the nearest-rank p-quantile of xs, lowered to the highest
// quantile that still has at least ten samples beyond it. It returns the
// quantile actually used.
func percentile(xs []float64, p float64) (float64, float64) {
	n := len(xs)
	if n == 0 {
		return 0, p
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if p > 0.5 && n-rank < 10 {
		rank = max(n-10, (n+1)/2)
		p = float64(rank) / float64(n)
	}
	return s[max(rank, 1)-1], p
}

// median is the middle value of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// commands lists the phase's interactive-command round trips, in
// microseconds.
func (ph *phaseRun) commands() []float64 {
	var xs []float64
	for _, r := range ph.results {
		xs = append(xs, r.commands...)
	}
	return xs
}

// rate is the phase's completed sessions per second: sessions over the
// time from the phase's start to the last one's end.
func (ph *phaseRun) rate() float64 {
	var last time.Time
	for _, r := range ph.results {
		if r.end.After(last) {
			last = r.end
		}
	}
	return float64(len(ph.results)) / last.Sub(ph.start).Seconds()
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
