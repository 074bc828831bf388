// Package server implements the long-lived debug-session service: a
// line-delimited JSON protocol over stdin/stdout or a TCP/unix listener,
// multiplexing any number of concurrent debug sessions over a shared
// compiled-artifact cache. One request per line, one response per line,
// answered in order per connection; separate connections are served
// concurrently and see the same artifact table, but every session is
// owned by the connection that opened (or attached) it.
//
// Commands:
//
//	auth         {token}                            -> {}
//	compile      {name, src | workload, config?}    -> {artifact, cached, funcs}
//	open-session {artifact}                         -> {session, handle}
//	attach       {session, handle}                  -> {session, stop | exited}
//	detach       {session}                          -> {}
//	break        {session, line | func+stmt}        -> {stop}
//	continue     {session}                          -> {stop | exited, output}
//	step         {session}                          -> {stop | exited, output}
//	print        {session, var}                     -> {vars: [1]}
//	info         {session}                          -> {vars}
//	where        {session}                          -> {stop}
//	close        {session}                          -> {}
//	coverage     {artifact}                         -> {coverage}
//	stats        {}                                 -> {stats}
//	batch        {reqs: [...]}                      -> {results: [...]}
//
// Authentication: when the server is started with an auth token,
// unauthenticated connections may issue only auth and stats; everything
// else answers auth-required. A connection authenticates once with the
// auth command, or per request by carrying the token in the request.
//
// Session ownership: open-session returns an unguessable session id plus
// a secret handle. The session belongs to the connection that opened it;
// commands on it from any other connection answer not-owner unless they
// present the handle, which — capability-style — transfers ownership to
// the presenting connection (that is also what the explicit attach
// command does, answering with the current stop so a reconnecting client
// can verify it resumed in place). When a connection drops, its sessions
// are detached, not destroyed: they keep their state and can be attached
// by a later connection with the handle until the idle-session reaper
// collects them.
//
// batch carries up to MaxBatch sub-commands (any of the above except a
// nested batch) over any number of sessions and answers them in order in
// one response line, so harness-style clients issuing thousands of
// breakpoint/classification queries amortize round-trips. Sub-command
// errors are isolated: each result carries its own ok/error, and the
// batch itself still succeeds.
package server

// Request is one protocol command (one JSON object per line).
type Request struct {
	ID  int64  `json:"id,omitempty"`
	Cmd string `json:"cmd"`

	// auth (or any request, for per-request authentication)
	Token string `json:"token,omitempty"`

	// compile
	Name     string      `json:"name,omitempty"`
	Src      string      `json:"src,omitempty"`
	Workload string      `json:"workload,omitempty"` // built-in bench workload by name
	Config   *ConfigSpec `json:"config,omitempty"`

	// open-session
	Artifact string `json:"artifact,omitempty"`

	// session commands
	Session string `json:"session,omitempty"`
	// Handle is the session's secret capability, required by attach and
	// accepted on any session command to (re)claim a session this
	// connection does not own.
	Handle string `json:"handle,omitempty"`
	Func   string `json:"func,omitempty"`
	Stmt   *int   `json:"stmt,omitempty"`
	Line   int    `json:"line,omitempty"`
	Var    string `json:"var,omitempty"`

	// batch
	Reqs []Request `json:"reqs,omitempty"`
}

// MaxBatch caps the number of sub-commands one batch request may carry.
const MaxBatch = 1024

// MaxLine caps one request line on the wire. A longer line answers
// bad-request and closes that connection (other connections are
// unaffected).
const MaxLine = 16 * 1024 * 1024

// ConfigSpec selects the pipeline configuration over the wire. The zero
// value (or a nil *ConfigSpec) means full optimization: O2 with register
// allocation and scheduling.
type ConfigSpec struct {
	Opt      string `json:"opt,omitempty"`      // "O0", "O1" or "O2" (default "O2")
	RegAlloc *bool  `json:"regalloc,omitempty"` // default true
	Sched    *bool  `json:"sched,omitempty"`    // default true
}

// Response answers one Request, echoing its ID.
type Response struct {
	ID    int64       `json:"id,omitempty"`
	OK    bool        `json:"ok"`
	Error *ProtoError `json:"error,omitempty"`

	// compile
	Artifact string `json:"artifact,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Funcs    int    `json:"funcs,omitempty"`
	// FuncsCompiled/FuncsReused break Funcs down by whether the
	// per-function back end ran or the function was stitched from the
	// incremental cache; CompileMS is the pipeline wall time. On a cached
	// (whole-artifact) hit FuncsReused equals Funcs and CompileMS is 0.
	FuncsCompiled int   `json:"funcs_compiled,omitempty"`
	FuncsReused   int   `json:"funcs_reused,omitempty"`
	CompileMS     int64 `json:"compile_ms,omitempty"`

	// open-session / attach
	Session string `json:"session,omitempty"`
	// Handle is the session's secret capability, returned once by
	// open-session. Anyone presenting it may attach the session, so
	// clients should treat it like a password.
	Handle string `json:"handle,omitempty"`

	// break / continue / step / where / attach
	Stop   *StopInfo `json:"stop,omitempty"`
	Exited bool      `json:"exited,omitempty"`
	Output string    `json:"output,omitempty"`

	// print / info
	Vars []VarInfo `json:"vars,omitempty"`

	// stats
	Stats *Stats `json:"stats,omitempty"`

	// coverage
	Coverage *CoverageInfo `json:"coverage,omitempty"`

	// batch: one result per sub-command, in request order, each with its
	// own ok/error.
	Results []Response `json:"results,omitempty"`
}

// CoverageCounts is one row of the coverage command's report: the
// absolute pair buckets plus the fixed two-decimal percentage strings.
// The percentages are rendered server-side through coverage.Counts.Pcts
// — the single formatting path — so a live daemon and an in-process
// sweep of the same artifact agree byte for byte, which is what the
// oracle's remote-equality check asserts.
type CoverageCounts struct {
	// Pairs is the total number of statement×variable(×field) pairs
	// swept, including uninitialized ones.
	Pairs int `json:"pairs"`
	// Current / Recovered / Noncurrent partition Pairs - Uninit.
	Current    int `json:"current"`
	Recovered  int `json:"recovered"`
	Noncurrent int `json:"noncurrent"`
	// Suspect and Nonresident detail the noncurrent bucket.
	Suspect     int `json:"suspect"`
	Nonresident int `json:"nonresident"`
	// Uninit counts pairs no source assignment reaches yet; they are
	// excluded from the percentage base.
	Uninit int `json:"uninit"`
	// Percentages of Pairs - Uninit, fixed two-decimal strings.
	CurrentPct    string `json:"current_pct"`
	RecoveredPct  string `json:"recovered_pct"`
	NoncurrentPct string `json:"noncurrent_pct"`
}

// CoverageInfo answers the coverage command: whole-artifact totals plus
// one row per function in program order. The sweep is deterministic, so
// repeated coverage commands on one artifact answer byte-identically.
type CoverageInfo struct {
	CoverageCounts
	Funcs []FuncCoverageInfo `json:"funcs,omitempty"`
}

// FuncCoverageInfo is one function's slice of the sweep.
type FuncCoverageInfo struct {
	Func string `json:"func"`
	CoverageCounts
}

// StopInfo describes where a session is stopped.
type StopInfo struct {
	Func string `json:"func"`
	Stmt int    `json:"stmt"`
	Line int    `json:"line"`
}

// VarInfo is one classified variable at a stop. Display is the exact
// warning-annotated rendering the command-line debugger prints. For a
// struct aggregate, Fields nests one VarInfo per field in declaration
// order, each carrying its own state and warning-annotated display; the
// aggregate's own State summarizes them (worst field).
type VarInfo struct {
	Name    string    `json:"name"`
	State   string    `json:"state"`
	Display string    `json:"display"`
	Fields  []VarInfo `json:"fields,omitempty"`
}

// ProtoError carries a stable machine-readable code plus the human text.
type ProtoError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Protocol error codes.
const (
	CodeBadRequest     = "bad-request"
	CodeAuthRequired   = "auth-required"
	CodeAuthFailed     = "auth-failed"
	CodeCompileError   = "compile-error"
	CodeNoSuchArtifact = "no-such-artifact"
	CodeNoSuchSession  = "no-such-session"
	CodeNotOwner       = "not-owner"
	CodeSessionLimit   = "session-limit"
	CodeNoSuchLine     = "no-such-line"
	CodeNoSuchFunc     = "no-such-func"
	CodeNoStmtLoc      = "no-such-stmt"
	CodeNotStopped     = "not-stopped"
	CodeNoSuchVar      = "no-such-var"
	CodeBudget         = "budget-exceeded"
	CodeTimeout        = "timeout"
	CodeOutputLimit    = "output-limit"
	CodeShuttingDown   = "shutting-down"
	CodeInternal       = "internal"
)

// Stats is the metrics snapshot reported by the stats command. The cache
// and spill counters are one consistent per-shard snapshot of the unified
// artifact store; cache_memory_bytes includes the accounted cost of built
// analyses (analysis_bytes is the analyses' share).
type Stats struct {
	SessionsActive   int64 `json:"sessions_active"`
	SessionsDetached int64 `json:"sessions_detached"`
	SessionsOpened   int64 `json:"sessions_opened"`
	SessionsReaped   int64 `json:"sessions_reaped"`

	ConnsActive  int64 `json:"conns_active"`
	ConnsTotal   int64 `json:"conns_total"`
	AuthFailures int64 `json:"auth_failures"`

	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheEvictions    int64 `json:"cache_evictions"`
	CacheEntries      int   `json:"cache_entries"`
	CacheMemoryBytes  int64 `json:"cache_memory_bytes"`
	CacheMemoryBudget int64 `json:"cache_memory_budget"`
	CacheShards       int   `json:"cache_shards"`
	AnalysisBytes     int64 `json:"analysis_bytes"`

	SpillHits   int64 `json:"spill_hits"`
	SpillMisses int64 `json:"spill_misses"`
	SpillWrites int64 `json:"spill_writes"`
	SpillErrors int64 `json:"spill_errors"`

	// Spill-tier health: whether the circuit breaker currently has the
	// disk tier degraded to memory-only, how many times it has tripped,
	// how many recovery probes have run, and how many Flush calls failed
	// or were skipped while degraded.
	SpillDegraded     bool  `json:"spill_degraded"`
	SpillDegradations int64 `json:"spill_degradations"`
	SpillProbes       int64 `json:"spill_probes"`
	FlushErrors       int64 `json:"flush_errors"`

	AnalysesBuilt  int64 `json:"analyses_built"`
	CyclesExecuted int64 `json:"cycles_executed"`
	Requests       int64 `json:"requests"`
	Panics         int64 `json:"panics"`
	// Timeouts counts continue/step commands cut off by the per-request
	// deadline (-request-timeout); their cycle progress is still credited
	// to cycles_executed.
	Timeouts int64 `json:"timeouts"`
	// OutputLimits counts continue/step commands cut off because the
	// program printed past the output cap (-output-limit).
	OutputLimits int64 `json:"output_limits"`

	// SROASplits counts struct aggregates decomposed into per-field
	// scalars by the optimizer; FieldsClassified counts per-field
	// debug-info verdicts issued for struct members. Both are
	// process-wide lifetime counters.
	SROASplits       int64 `json:"sroa_splits"`
	FieldsClassified int64 `json:"fields_classified"`

	// VMFastRuns counts VM run-to-stop invocations (vm.Runs) since
	// process start, process-wide rather than per server. VMSlowRuns
	// reads 0 by construction: the VM has one engine, and no run can take
	// the closure-predicate loop this field used to count. It stays on
	// the wire for clients that check it does not move.
	VMFastRuns int64 `json:"vm_fast_runs"`
	VMSlowRuns int64 `json:"vm_slow_runs"`

	// Per-function compile pipeline: lifetime totals of back ends run vs.
	// functions stitched from the incremental tier, cumulative pipeline
	// wall time, and the incremental tier's resident footprint.
	CompileWorkers     int   `json:"compile_workers"`
	FuncsCompiled      int64 `json:"funcs_compiled"`
	FuncsReused        int64 `json:"funcs_reused"`
	CompileMSTotal     int64 `json:"compile_ms_total"`
	FuncCacheEntries   int   `json:"func_cache_entries"`
	FuncCacheBytes     int64 `json:"func_cache_bytes"`
	FuncCacheEvictions int64 `json:"func_cache_evictions"`

	// CoverageSweeps counts coverage commands served; CoveragePairs is
	// the total number of statement×variable(×field) pairs those sweeps
	// classified. Both are per-server lifetime counters.
	CoverageSweeps int64 `json:"coverage_sweeps"`
	CoveragePairs  int64 `json:"coverage_pairs"`
}
