package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bench"
)

// The breakpoint and edit table is generated offline (-gen-table) and
// embedded, so set-up only parses it: scanning every statement of every
// program for hit counts and run-up cycles takes far longer than a run.
//
//go:embed table.json
var tableJSON []byte

// Table is the offline-generated corpus description: per program, the
// breakpoints sessions stop at and the one-function edits edit_debug
// applies, each with the measurements that justified choosing it.
type Table struct {
	// CycleBound caps a breakpoint's run-up: the VM cycles from program
	// start to its InspectStops-th hit. Unbounded run-ups let a handful of
	// breakpoints set the session latency tail.
	CycleBound int64     `json:"cycle_bound"`
	Programs   []Program `json:"programs"`
}

// Program is one SPEC-analog program of internal/bench.
type Program struct {
	Name string `json:"name"`
	// O0Output is the program's whole output under O0; every session's
	// output so far must be a prefix of it.
	O0Output string `json:"o0_output"`
	// Breaks lists every candidate breakpoint; sessions draw from it by
	// seed.
	Breaks []Break `json:"breakpoints"`
	Edits  []Edit  `json:"edits"`
	// ColdVariant records what was checked of cold_debug's variant.
	ColdVariant string `json:"cold_variant"`

	src string // base source, filled by loadTable
}

// Break is one candidate breakpoint: a statement lexically inside a loop,
// hit at least InspectStops times, with its run-up to that hit within
// the table's CycleBound.
type Break struct {
	Func string `json:"func"`
	Stmt int    `json:"stmt"`
	Line int    `json:"line"`
	// Hits is how often the statement executes in a whole run, capped at
	// hitCap.
	Hits int `json:"hits"`
	// RunupCycles is the VM cycle count at the first hit; ColdRunupCycles
	// and InspectRunupCycles at the ColdStops-th and InspectStops-th hit.
	RunupCycles        int64  `json:"runup_cycles"`
	ColdRunupCycles    int64  `json:"cold_runup_cycles"`
	InspectRunupCycles int64  `json:"inspect_runup_cycles"`
	Reason             string `json:"reason"`
}

// Edit is a site for a one-function, output-preserving edit: a dead
// conditional inserted right after the opening brace of Func's body, on
// the brace's own line so no line or other function's statement moves.
type Edit struct {
	Func   string `json:"func"`
	Offset int    `json:"offset"`
	Line   int    `json:"line"`
	Reason string `json:"reason"`
}

const (
	// ColdStops is the number of continue+info stops of a cold_debug or
	// edit_debug session; InspectStops of an inspect_debug session.
	ColdStops    = 4
	InspectStops = 32
	hitCap       = 64
)

func loadTable() (*Table, error) {
	var t Table
	if err := json.Unmarshal(tableJSON, &t); err != nil {
		return nil, fmt.Errorf("table.json: %w", err)
	}
	for i := range t.Programs {
		p := &t.Programs[i]
		src, err := bench.Source(p.Name)
		if err != nil {
			return nil, err
		}
		p.src = src
		if len(p.Breaks) == 0 {
			return nil, fmt.Errorf("table.json: %s has no breakpoints", p.Name)
		}
	}
	if len(t.Programs) == 0 {
		return nil, fmt.Errorf("table.json: no programs")
	}
	return &t, nil
}

// fileName is the name every variant of a program compiles under; the
// artifact id hashes it with the source.
func (p *Program) fileName() string { return p.Name + ".mc" }

// coldSource prepends a global with initializer k on the first line. The
// new global changes the program's global signature, so neither the
// artifact store nor the per-function cache can serve any function.
func (p *Program) coldSource(k int) string {
	return fmt.Sprintf("int mcdbench_g = %d; ", k) + p.src
}

// editSource inserts a never-taken conditional at e. Only e.Func's
// pre-optimization IR changes, so exactly one function misses the
// per-function cache; the output is unchanged because k >= 0.
func (p *Program) editSource(e Edit, k int) string {
	return p.src[:e.Offset] + fmt.Sprintf(" if (%d < 0) { print(\"mcdbench edit\\n\"); }", k) + p.src[e.Offset:]
}

// Workloads.
const (
	Cold    = "cold_debug"
	EditW   = "edit_debug"
	Inspect = "inspect_debug"
)

var workloads = []string{Cold, EditW, Inspect}

// op is one stopping command of a session script.
type op struct {
	step  bool // step instead of continue
	print bool // after info, print one of the reported variables
	pick  int  // which reported variable to print (mod the count)
}

// sessionSpec is one scripted session: what to compile and where to
// stop. It depends only on (workload, seed, index), never on timing.
type sessionSpec struct {
	index int
	prog  *Program
	brk   Break
	src   string
	ops   []op
}

// planner draws the seeded session sequence of one workload. Sessions
// come in blocks; each block visits every program slotsPerProgram times
// in a seeded order. A program's visits draw from all of its candidate
// breakpoints in rounds: the candidates, ordered by run-up, are cut into
// strata equal bands, and each round visits every band once in seeded
// order and stops at a seeded member of it. So which breakpoints a run
// stops at depends on the seed, while the mix of short and long run-ups,
// and with it the guest cycles per session, is the same for every seed
// over a round.
type planner struct {
	workload string
	seed     int64
	progs    []*Program
	breaks   [][]Break // per program, ordered by the workload's run-up
}

const (
	// slotsPerProgram is how many sessions of each program one block
	// holds.
	slotsPerProgram = 2
	// strata is the number of run-up bands a round visits per program.
	strata = 24
	// detBlocks is the number of blocks, from session 0 on, that the
	// deterministic metrics are taken over: two rounds per program.
	detBlocks = 2 * strata / slotsPerProgram
)

func newPlanner(t *Table, workload string, seed int64) *planner {
	pl := &planner{workload: workload, seed: seed}
	runup := func(b Break) int64 {
		if workload == Inspect {
			return b.InspectRunupCycles
		}
		return b.ColdRunupCycles
	}
	for i := range t.Programs {
		p := &t.Programs[i]
		bs := append([]Break(nil), p.Breaks...)
		sort.SliceStable(bs, func(i, j int) bool { return runup(bs[i]) < runup(bs[j]) })
		pl.progs = append(pl.progs, p)
		pl.breaks = append(pl.breaks, bs)
	}
	return pl
}

// blockLen is the number of sessions in one block.
func (pl *planner) blockLen() int { return slotsPerProgram * len(pl.progs) }

func (pl *planner) rng(parts ...int64) *rand.Rand {
	h := uint64(pl.seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, p := range parts {
		h ^= uint64(p) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

func (pl *planner) session(i int) *sessionSpec {
	n := pl.blockLen()
	block, pos := i/n, i%n
	slot := pl.rng(1, int64(block)).Perm(n)[pos]
	pi := slot % len(pl.progs)
	p := pl.progs[pi]
	// visit counts this program's sessions from index 0 on.
	visit := block*slotsPerProgram + slot/len(pl.progs)
	bs := pl.breaks[pi]
	band := pl.rng(3, int64(pi), int64(visit/strata)).Perm(strata)[visit%strata]
	lo := band * len(bs) / strata
	hi := max((band+1)*len(bs)/strata, lo+1)
	brk := bs[lo+pl.rng(4, int64(pi), int64(visit)).Intn(hi-lo)]
	r := pl.rng(2, int64(i))
	sp := &sessionSpec{index: i, prog: p, brk: brk}
	// k is distinct for every session index, so no two sessions of a run
	// compile the same variant, and stays a 32-bit MiniC int for every
	// index a run uses.
	k := i*100 + r.Intn(100)
	switch pl.workload {
	case Cold:
		sp.src = p.coldSource(k)
	case EditW:
		// Edit sites go in rounds too: every len(es) visits of a program
		// take each site once, in seeded order, so every seed compiles the
		// same mix of edited functions. A site in the breakpoint's own
		// function gives way to the next one of the round.
		es := p.Edits
		perm := pl.rng(5, int64(pi), int64(visit/len(es))).Perm(len(es))
		j := visit % len(es)
		for es[perm[j]].Func == brk.Func {
			j = (j + 1) % len(es)
		}
		sp.src = p.editSource(es[perm[j]], k)
	default:
		sp.src = p.src
	}
	if pl.workload != Inspect {
		sp.ops = make([]op, ColdStops)
		return sp
	}
	// inspect_debug: the first stop reaches the breakpoint; the rest are
	// half continues, half steps in seeded order, and half of the stops
	// also print one variable.
	sp.ops = make([]op, InspectStops)
	kinds := r.Perm(InspectStops - 1)
	prints := r.Perm(InspectStops)
	for j := range sp.ops {
		if j > 0 {
			sp.ops[j].step = kinds[j-1]%2 == 1
		}
		sp.ops[j].print = prints[j]%2 == 1
		sp.ops[j].pick = r.Intn(1 << 16)
	}
	return sp
}
