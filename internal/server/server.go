package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artstore"
	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/debugger"
	"repro/internal/fault"
	"repro/internal/opt"
	"repro/internal/vm"
)

// Options tunes the service's robustness rails. The zero value selects
// the defaults below.
type Options struct {
	// AuthToken is the shared secret clients must present (auth command or
	// per-request token field) before issuing anything but auth/stats.
	// Empty disables authentication: every connection is trusted.
	AuthToken string
	// CacheSize bounds the compiled-artifact store (artifacts); <= 0 means
	// DefaultCacheSize.
	CacheSize int
	// Shards is the artifact store's shard count (rounded up to a power of
	// two); <= 0 means DefaultShards.
	Shards int
	// MemoryBudget bounds the accounted bytes of resident artifacts plus
	// their built analyses; <= 0 means unbounded.
	MemoryBudget int64
	// SpillDir enables the artifact store's disk tier: evicted and flushed
	// artifacts are serialized there and reloaded on miss, so a restarted
	// server keeps its warm set. Empty means memory-only.
	SpillDir string
	// MaxSessions caps concurrently open sessions; <= 0 means
	// DefaultMaxSessions.
	MaxSessions int
	// StepBudget is the per-session execution budget: the total number of
	// instructions a session may execute across all continue/step
	// commands before it is cut off with a budget-exceeded error. <= 0
	// means DefaultStepBudget.
	StepBudget int64
	// AnalysisWorkers bounds the worker pool that precomputes the
	// per-function core analyses after a compile; <= 0 means GOMAXPROCS.
	AnalysisWorkers int
	// CompileWorkers bounds the per-function back-end concurrency of the
	// compile pipeline (functions of one or many programs compile in
	// parallel under one shared bound); <= 0 means GOMAXPROCS.
	CompileWorkers int
	// SessionTTL reaps sessions idle for longer than this (their slot is
	// freed and later commands get no-such-session); <= 0 disables
	// reaping. Detached sessions — whose connection dropped — are
	// otherwise never garbage-collected.
	SessionTTL time.Duration
	// ReapInterval is how often the reaper scans; <= 0 means
	// min(SessionTTL/4, DefaultReapInterval).
	ReapInterval time.Duration
	// DrainTimeout bounds how long Close waits for in-flight requests to
	// finish before force-closing the remaining connections; <= 0 means
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
	// RequestTimeout bounds the wall-clock time one continue/step command
	// may execute before it is cut off with a timeout error. The session
	// survives (stopped at the instruction boundary where the deadline was
	// noticed, cycles credited); only the one command fails. <= 0 disables
	// the deadline.
	RequestTimeout time.Duration
	// SpillDegradeAfter is the spill-tier circuit breaker's threshold:
	// after this many consecutive disk I/O failures the store degrades to
	// memory-only until a background probe sees the disk recover. <= 0
	// means the store's default.
	SpillDegradeAfter int
	// SpillProbeInterval is how often the degraded store probes the disk;
	// <= 0 means the store's default.
	SpillProbeInterval time.Duration
	// OutputLimit caps how many bytes of program output one session may
	// accumulate before continue/step is cut off with an output-limit
	// error. 0 means the VM's default cap; negative means unlimited.
	OutputLimit int64
}

// Defaults for Options.
const (
	DefaultCacheSize    = 32
	DefaultShards       = 8
	DefaultMaxSessions  = 64
	DefaultStepBudget   = int64(500_000_000)
	DefaultReapInterval = time.Minute
	DefaultDrainTimeout = 5 * time.Second
)

// Artifact is one compiled program plus its shared analysis set. Every
// session opened on it reuses both.
type Artifact = artstore.Artifact

type session struct {
	id     string
	handle string // secret attach capability (crypto/rand hex)
	art    *Artifact

	// owner is the id of the connection the session is bound to, or 0
	// when detached (its connection dropped, or it was opened through the
	// trusted in-process Handle surface). Guarded by Server.mu.
	owner int64
	// inflight counts requests currently executing against this session;
	// the reaper never deletes a pinned session. Guarded by Server.mu.
	inflight int

	lastActive atomic.Int64 // unix nanos of the latest command

	mu     sync.Mutex // serializes commands racing on one session
	dbg    *debugger.Debugger
	cycles int64 // VM cycles already credited to the metrics
}

func (sess *session) touch() { sess.lastActive.Store(time.Now().UnixNano()) }

// Server is the long-lived debug-session service. It is safe for
// concurrent use: Serve may be called from any number of connection
// goroutines against one Server.
type Server struct {
	opts  Options
	store *artstore.Store

	mu       sync.Mutex
	sessions map[string]*session

	// local is the trusted pseudo-connection behind the in-process Handle
	// surface: pre-authenticated, exempt from ownership checks, and never
	// an owner itself.
	local    *connState
	nextConn atomic.Int64

	// Shutdown and drain state. stateMu guards everything below it.
	stateMu       sync.Mutex
	draining      bool
	inflight      int
	drained       chan struct{} // closed when draining && inflight == 0
	drainedClosed bool
	listeners     map[net.Listener]struct{}
	conns         map[net.Conn]struct{}
	connWG        sync.WaitGroup

	sessionsOpened atomic.Int64
	sessionsReaped atomic.Int64
	cyclesExecuted atomic.Int64
	requests       atomic.Int64
	panics         atomic.Int64
	timeouts       atomic.Int64
	outputLimits   atomic.Int64
	connsActive    atomic.Int64
	connsTotal     atomic.Int64
	authFailures   atomic.Int64
	coverageSweeps atomic.Int64
	coveragePairs  atomic.Int64

	closeOnce sync.Once
	reapStop  chan struct{}
	reapDone  chan struct{}
}

// New creates a service with the given options. Call Close to stop
// accepting connections, drain in-flight requests, stop the idle-session
// reaper, and flush the artifact store's disk tier.
func New(opts Options) *Server {
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	if opts.StepBudget <= 0 {
		opts.StepBudget = DefaultStepBudget
	}
	if opts.ReapInterval <= 0 {
		opts.ReapInterval = DefaultReapInterval
		if opts.SessionTTL > 0 && opts.SessionTTL/4 < opts.ReapInterval {
			opts.ReapInterval = opts.SessionTTL / 4
		}
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = DefaultDrainTimeout
	}
	s := &Server{
		opts: opts,
		store: artstore.New(artstore.Config{
			Shards:             opts.Shards,
			MaxArtifacts:       opts.CacheSize,
			MemoryBudget:       opts.MemoryBudget,
			SpillDir:           opts.SpillDir,
			CompileWorkers:     opts.CompileWorkers,
			SpillDegradeAfter:  opts.SpillDegradeAfter,
			SpillProbeInterval: opts.SpillProbeInterval,
		}),
		sessions:  map[string]*session{},
		local:     &connState{trusted: true, authed: true},
		drained:   make(chan struct{}),
		listeners: map[net.Listener]struct{}{},
		conns:     map[net.Conn]struct{}{},
		reapStop:  make(chan struct{}),
		reapDone:  make(chan struct{}),
	}
	if opts.SessionTTL > 0 {
		go s.reapLoop()
	} else {
		close(s.reapDone)
	}
	return s
}

// beginRequest admits one request into the drain-tracked in-flight set.
// It fails once Close has started draining.
func (s *Server) beginRequest() bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) endRequest() {
	s.stateMu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 && !s.drainedClosed {
		s.drainedClosed = true
		close(s.drained)
	}
	s.stateMu.Unlock()
}

// Close shuts the service down: it stops accepting new connections and
// requests, drains in-flight requests (bounded by DrainTimeout), force-
// closes the remaining tracked connections, stops the idle-session
// reaper, and flushes the resident artifact set to the disk tier (if
// configured) so a restart keeps the warm set. Requests arriving during
// or after Close answer shutting-down.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.stateMu.Lock()
		s.draining = true
		for l := range s.listeners {
			l.Close()
		}
		if s.inflight == 0 && !s.drainedClosed {
			s.drainedClosed = true
			close(s.drained)
		}
		s.stateMu.Unlock()

		select {
		case <-s.drained:
		case <-time.After(s.opts.DrainTimeout):
		}

		// Unblock connection readers so their goroutines exit.
		s.stateMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.stateMu.Unlock()
		done := make(chan struct{})
		go func() {
			s.connWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(s.opts.DrainTimeout):
		}

		close(s.reapStop)
		<-s.reapDone
		if err := s.store.Flush(); err != nil {
			// The warm set just won't survive the restart; the counter is
			// already in flush_errors for anyone watching stats.
			log.Printf("server: spill-tier flush on close: %v", err)
		}
		s.store.Close()
	})
}

// reapLoop scans for idle sessions every ReapInterval.
func (s *Server) reapLoop() {
	defer close(s.reapDone)
	t := time.NewTicker(s.opts.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-t.C:
			s.ReapIdleSessions()
		}
	}
}

// ReapIdleSessions closes every session idle for longer than SessionTTL
// and returns how many were reaped. Sessions with a request in flight
// are pinned: a long-running continue under a short TTL keeps its
// session (every request re-arms lastActive when it completes). Reaped
// sessions have their outstanding VM cycles credited to the
// cycles_executed metric. It is a no-op when reaping is disabled.
func (s *Server) ReapIdleSessions() int {
	if s.opts.SessionTTL <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-s.opts.SessionTTL).UnixNano()
	s.mu.Lock()
	var victims []*session
	for id, sess := range s.sessions {
		if sess.inflight == 0 && sess.lastActive.Load() < cutoff {
			victims = append(victims, sess)
			delete(s.sessions, id)
		}
	}
	s.mu.Unlock()
	for _, sess := range victims {
		sess.mu.Lock()
		s.creditCycles(sess)
		sess.mu.Unlock()
	}
	if n := len(victims); n > 0 {
		s.sessionsReaped.Add(int64(n))
		return n
	}
	return 0
}

// Serve answers requests from r on w, one JSON object per line, until r
// is exhausted. Responses are written in request order. Each Serve call
// is one connection: it authenticates independently and owns the
// sessions it opens; when it returns, those sessions are detached (kept
// alive for a later attach, until the reaper collects them).
func (s *Server) Serve(r io.Reader, w io.Writer) error {
	c := s.newConn()
	s.connsActive.Add(1)
	s.connsTotal.Add(1)
	defer s.connsActive.Add(-1)
	defer s.detachAll(c)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLine)
	bw := bufio.NewWriter(w)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		var resp *Response
		if err := decodeRequest(line, &req); err != nil {
			resp = errResp(0, CodeBadRequest, fmt.Sprintf("malformed request: %v", err))
		} else {
			resp = s.handleAs(c, &req)
		}
		// "server.conn.write" models the response write failing (peer gone,
		// send buffer wedged) or stalling (slow reader): an error here drops
		// the connection exactly like a real write failure would, after
		// which the client's sessions are detached, not destroyed.
		if err := fault.Check("server.conn.write"); err != nil {
			return err
		}
		if err := writeResponse(bw, resp); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		// An oversized line kills only this connection, and tells it why
		// first. Other connections (and the stdio daemon) are unaffected.
		if errors.Is(err, bufio.ErrTooLong) {
			resp := errResp(0, CodeBadRequest,
				fmt.Sprintf("request line exceeds %d bytes; closing connection", MaxLine))
			if eerr := writeResponse(bw, resp); eerr == nil {
				bw.Flush()
			}
			return nil
		}
		return err
	}
	return nil
}

// writeResponse puts one response line on the wire through the pooled
// append encoder, ending it with '\n' as json.Encoder.Encode does.
func writeResponse(w io.Writer, resp *Response) error {
	bp := encBufs.Get().(*[]byte)
	b := appendResponse((*bp)[:0], resp)
	b = append(b, '\n')
	_, err := w.Write(b)
	*bp = b
	encBufs.Put(bp)
	return err
}

// ListenAndServe accepts connections on l and serves each concurrently
// against the shared artifact store and session table. It returns when
// the listener is closed (Close closes every tracked listener).
func (s *Server) ListenAndServe(l net.Listener) error {
	s.stateMu.Lock()
	if s.draining {
		s.stateMu.Unlock()
		l.Close()
		return nil
	}
	s.listeners[l] = struct{}{}
	s.stateMu.Unlock()
	defer func() {
		s.stateMu.Lock()
		delete(s.listeners, l)
		s.stateMu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.stateMu.Lock()
		if s.draining {
			s.stateMu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.stateMu.Unlock()
		go func(conn net.Conn) {
			defer s.connWG.Done()
			defer func() {
				s.stateMu.Lock()
				delete(s.conns, conn)
				s.stateMu.Unlock()
			}()
			defer conn.Close()
			_ = s.Serve(conn, conn)
		}(conn)
	}
}

// Handle answers one request on the trusted in-process connection: it is
// pre-authenticated and exempt from session-ownership checks, which is
// what embedding Go programs (and the tests) want. Wire connections go
// through Serve instead.
func (s *Server) Handle(req *Request) *Response {
	return s.handleAs(s.local, req)
}

// handleAs admits, authenticates, and answers one request for connection
// c. Panics in command handlers are recovered and reported as internal
// protocol errors, so one bad request cannot take down the service.
func (s *Server) handleAs(c *connState, req *Request) (resp *Response) {
	if !s.beginRequest() {
		return errResp(req.ID, CodeShuttingDown, "server is shutting down")
	}
	defer s.endRequest()
	return s.answer(c, req)
}

// answer dispatches one (admitted) request. Batch sub-commands re-enter
// here so each gets its own panic recovery, auth check, and error
// mapping without re-entering the drain gate.
func (s *Server) answer(c *connState, req *Request) (resp *Response) {
	s.requests.Add(1)
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			resp = errResp(req.ID, CodeInternal,
				fmt.Sprintf("panic in %q: %v\n%s", req.Cmd, r, debug.Stack()))
		}
	}()
	// auth and stats are the only commands an unauthenticated connection
	// may issue; any other command may authenticate in-line by carrying
	// the token.
	switch req.Cmd {
	case "auth":
		return s.handleAuth(c, req)
	case "stats":
		st := s.Snapshot()
		return &Response{ID: req.ID, OK: true, Stats: &st}
	}
	if !c.authed {
		if req.Token == "" {
			return errResp(req.ID, CodeAuthRequired,
				"authentication required (use the auth command or a per-request token)")
		}
		if !s.tokenOK(req.Token) {
			s.authFailures.Add(1)
			return errResp(req.ID, CodeAuthFailed, "invalid auth token")
		}
		c.authed = true
	}
	switch req.Cmd {
	case "compile":
		return s.handleCompile(req)
	case "open-session":
		return s.handleOpen(c, req)
	case "attach":
		return s.handleAttach(c, req)
	case "detach":
		return s.handleDetach(c, req)
	case "coverage":
		return s.handleCoverage(req)
	case "break", "continue", "step", "print", "info", "where", "close":
		return s.handleSession(c, req)
	case "batch":
		return s.handleBatch(c, req)
	default:
		return errResp(req.ID, CodeBadRequest, fmt.Sprintf("unknown command %q", req.Cmd))
	}
}

// handleBatch answers every sub-command in order and returns the results
// in one response. Each sub-command goes through answer, so it gets its
// own panic recovery and error mapping: one failing sub-command yields an
// error result in its slot without failing the batch. Nested batches are
// rejected per slot.
func (s *Server) handleBatch(c *connState, req *Request) *Response {
	if len(req.Reqs) == 0 {
		return errResp(req.ID, CodeBadRequest, "batch needs a non-empty reqs array")
	}
	if len(req.Reqs) > MaxBatch {
		return errResp(req.ID, CodeBadRequest,
			fmt.Sprintf("batch of %d sub-commands exceeds the limit of %d", len(req.Reqs), MaxBatch))
	}
	results := make([]Response, 0, len(req.Reqs))
	for i := range req.Reqs {
		sub := &req.Reqs[i]
		if sub.Cmd == "batch" {
			results = append(results, *errResp(sub.ID, CodeBadRequest, "batch cannot be nested"))
			continue
		}
		results = append(results, *s.answer(c, sub))
	}
	return &Response{ID: req.ID, OK: true, Results: results}
}

// configOf resolves a wire ConfigSpec to a pipeline Config.
func configOf(spec *ConfigSpec) (compile.Config, error) {
	cfg := compile.Config{Opt: opt.O2(), RegAlloc: true, Sched: true}
	if spec == nil {
		return cfg, nil
	}
	switch spec.Opt {
	case "", "O2":
	case "O1":
		cfg.Opt = opt.O1()
	case "O0":
		cfg.Opt = opt.O0()
		cfg.RegAlloc = false
		cfg.Sched = false
	default:
		return cfg, fmt.Errorf("unknown opt level %q (want O0, O1 or O2)", spec.Opt)
	}
	if spec.RegAlloc != nil {
		cfg.RegAlloc = *spec.RegAlloc
	}
	if spec.Sched != nil {
		cfg.Sched = *spec.Sched
	}
	return cfg, nil
}

func (s *Server) handleCompile(req *Request) *Response {
	name, src := req.Name, req.Src
	if req.Workload != "" {
		if src != "" {
			return errResp(req.ID, CodeBadRequest, "give src or workload, not both")
		}
		ws, err := bench.Source(req.Workload)
		if err != nil {
			return errResp(req.ID, CodeBadRequest, err.Error())
		}
		name, src = req.Workload+".mc", ws
	}
	if src == "" {
		return errResp(req.ID, CodeBadRequest, "compile needs src or workload")
	}
	if name == "" {
		name = "input.mc"
	}
	cfg, err := configOf(req.Config)
	if err != nil {
		return errResp(req.ID, CodeBadRequest, err.Error())
	}
	art, hit, err := s.store.Get(name, src, cfg)
	if err != nil {
		return errResp(req.ID, CodeCompileError, err.Error())
	}
	if !hit {
		// Precompute every function's analyses once with a bounded pool,
		// so sessions never pay the data-flow cost at their first stop.
		// (Artifacts rehydrated from the disk tier rebuild lazily.)
		art.Analyses.Precompute(art.Res.Mach, s.opts.AnalysisWorkers)
	}
	resp := &Response{ID: req.ID, OK: true, Artifact: art.ID(), Cached: hit, Funcs: len(art.Res.Mach.Funcs)}
	if !hit {
		// A miss ran the per-function pipeline: report how much of it was
		// fresh compilation vs. stitched from the incremental tier. A hit
		// skipped the pipeline entirely (the whole artifact was reused).
		resp.FuncsCompiled = art.Metrics.FuncsCompiled
		resp.FuncsReused = art.Metrics.FuncsReused
		resp.CompileMS = art.Metrics.Duration.Milliseconds()
	} else {
		resp.FuncsReused = len(art.Res.Mach.Funcs)
	}
	return resp
}

// handleCoverage runs the deterministic coverage sweep over a compiled
// artifact: every statement×variable(×field) pair bucketed by what the
// classifier lets the debugger show there. The sweep reads the same
// precomputed analyses sessions use and mutates nothing, so the command
// is idempotent and safe under concurrent sessions; repeated sweeps of
// one artifact answer byte-identically, and the percentage strings are
// rendered by the same coverage.Counts.Pcts the in-process sweep uses.
func (s *Server) handleCoverage(req *Request) *Response {
	art, ok := s.store.Lookup(req.Artifact)
	if !ok {
		return errResp(req.ID, CodeNoSuchArtifact, fmt.Sprintf("no artifact %q (compile first)", req.Artifact))
	}
	rep := coverage.Sweep(art.Res, art.Analyses)
	s.coverageSweeps.Add(1)
	s.coveragePairs.Add(int64(rep.Total.Pairs))
	return &Response{ID: req.ID, OK: true, Artifact: art.ID(), Coverage: coverageInfoOf(rep)}
}

// coverageCountsOf converts one library-side counts row to its wire
// shape, percentages included.
func coverageCountsOf(c coverage.Counts) CoverageCounts {
	cur, rec, non := c.Pcts()
	return CoverageCounts{
		Pairs:      c.Pairs,
		Current:    c.Current,
		Recovered:  c.Recovered,
		Noncurrent: c.Noncurrent,
		Suspect:    c.Suspect, Nonresident: c.Nonresident,
		Uninit:        c.Uninit,
		CurrentPct:    cur,
		RecoveredPct:  rec,
		NoncurrentPct: non,
	}
}

func coverageInfoOf(rep *coverage.Report) *CoverageInfo {
	ci := &CoverageInfo{CoverageCounts: coverageCountsOf(rep.Total)}
	for _, f := range rep.Funcs {
		ci.Funcs = append(ci.Funcs, FuncCoverageInfo{Func: f.Func, CoverageCounts: coverageCountsOf(f.Counts)})
	}
	return ci
}

func (s *Server) handleOpen(c *connState, req *Request) *Response {
	art, ok := s.store.Lookup(req.Artifact)
	if !ok {
		return errResp(req.ID, CodeNoSuchArtifact, fmt.Sprintf("no artifact %q (compile first)", req.Artifact))
	}
	dbg, err := debugger.NewShared(art.Res, art.Analyses)
	if err != nil {
		return errResp(req.ID, CodeCompileError, err.Error())
	}
	dbg.VM.MaxSteps = s.opts.StepBudget
	dbg.VM.MaxOutput = s.opts.OutputLimit

	s.mu.Lock()
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		return errResp(req.ID, CodeSessionLimit,
			fmt.Sprintf("session limit reached (%d open)", s.opts.MaxSessions))
	}
	sess := &session{id: s.newSessionIDLocked(), handle: randHex(handleBytes), art: art, dbg: dbg}
	sess.touch()
	s.sessions[sess.id] = sess
	if !c.trusted {
		s.adoptLocked(c, sess)
	}
	s.mu.Unlock()
	s.sessionsOpened.Add(1)
	return &Response{ID: req.ID, OK: true, Session: sess.id, Handle: sess.handle, Artifact: art.ID()}
}

// handleAttach binds an existing session to this connection. The handle
// is the capability: presenting it proves the right to the session, so
// attach succeeds whether the session is detached (its connection
// dropped) or still bound elsewhere — that is how a client whose TCP
// connection half-died reclaims its session instantly. The response
// reports the current position, exactly like where, so a reconnecting
// client can verify it resumed in place.
func (s *Server) handleAttach(c *connState, req *Request) *Response {
	s.mu.Lock()
	sess, ok := s.sessions[req.Session]
	if !ok {
		s.mu.Unlock()
		return errResp(req.ID, CodeNoSuchSession, fmt.Sprintf("no session %q", req.Session))
	}
	if !handleOK(sess, req.Handle) {
		s.mu.Unlock()
		return errResp(req.ID, CodeNotOwner, fmt.Sprintf("wrong handle for session %q", req.Session))
	}
	if !c.trusted {
		s.adoptLocked(c, sess)
	}
	sess.inflight++
	s.mu.Unlock()
	defer s.unpin(sess)

	sess.touch()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	resp := &Response{ID: req.ID, OK: true, Session: sess.id, Artifact: sess.art.ID()}
	if bp := sess.dbg.Stopped(); bp != nil {
		resp.Stop = stopOf(bp)
	} else {
		resp.Exited = sess.dbg.Halted()
	}
	return resp
}

// handleDetach voluntarily releases this connection's ownership, leaving
// the session alive for a later attach (until the reaper collects it).
func (s *Server) handleDetach(c *connState, req *Request) *Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[req.Session]
	if !ok {
		return errResp(req.ID, CodeNoSuchSession, fmt.Sprintf("no session %q", req.Session))
	}
	if !c.trusted && sess.owner != c.id && !handleOK(sess, req.Handle) {
		return errResp(req.ID, CodeNotOwner, s.denialMsg(sess))
	}
	sess.owner = 0
	delete(c.owned, sess.id)
	sess.touch()
	return &Response{ID: req.ID, OK: true, Session: sess.id}
}

func (s *Server) handleSession(c *connState, req *Request) *Response {
	s.mu.Lock()
	sess, ok := s.sessions[req.Session]
	if !ok {
		s.mu.Unlock()
		return errResp(req.ID, CodeNoSuchSession, fmt.Sprintf("no session %q", req.Session))
	}
	if !c.trusted && sess.owner != c.id {
		// Not ours. The handle is the capability: presenting it attaches
		// the session to this connection; without it the command is
		// denied, whoever may own the session now.
		if !handleOK(sess, req.Handle) {
			s.mu.Unlock()
			return errResp(req.ID, CodeNotOwner, s.denialMsg(sess))
		}
		s.adoptLocked(c, sess)
	}
	// Pin the session for the duration of the command so the reaper
	// cannot delete it mid-execution; touch again on the way out so the
	// idle clock starts when a long continue ends, not when it began.
	sess.inflight++
	s.mu.Unlock()
	defer func() {
		sess.touch()
		s.unpin(sess)
	}()
	sess.touch()
	sess.mu.Lock()
	defer sess.mu.Unlock()

	switch req.Cmd {
	case "break":
		var bp *debugger.Breakpoint
		var err error
		switch {
		case req.Func != "" && req.Stmt != nil:
			bp, err = sess.dbg.BreakAtStmt(req.Func, *req.Stmt)
		case req.Line > 0:
			bp, err = sess.dbg.BreakAtLine(req.Line)
		default:
			return errResp(req.ID, CodeBadRequest, "break needs line or func+stmt")
		}
		if err != nil {
			return s.errorOf(req.ID, err)
		}
		return &Response{ID: req.ID, OK: true, Stop: stopOf(bp)}

	case "continue", "step":
		run := sess.dbg.Continue
		if req.Cmd == "step" {
			run = sess.dbg.Step
		}
		if s.opts.RequestTimeout > 0 {
			sess.dbg.VM.SetDeadline(time.Now().Add(s.opts.RequestTimeout))
			defer sess.dbg.VM.SetDeadline(time.Time{})
		}
		bp, err := run()
		s.creditCycles(sess)
		if err != nil {
			return s.errorOf(req.ID, err)
		}
		if bp == nil {
			return &Response{ID: req.ID, OK: true, Exited: true, Output: sess.dbg.Output()}
		}
		return &Response{ID: req.ID, OK: true, Stop: stopOf(bp)}

	case "print":
		if req.Var == "" {
			return errResp(req.ID, CodeBadRequest, "print needs var")
		}
		r, err := sess.dbg.Print(req.Var)
		if err != nil {
			return s.errorOf(req.ID, err)
		}
		return &Response{ID: req.ID, OK: true, Vars: []VarInfo{varOf(r)}}

	case "info":
		rs, err := sess.dbg.Info()
		if err != nil {
			return s.errorOf(req.ID, err)
		}
		vars := make([]VarInfo, 0, len(rs))
		for _, r := range rs {
			vars = append(vars, varOf(r))
		}
		return &Response{ID: req.ID, OK: true, Vars: vars}

	case "where":
		if bp := sess.dbg.Stopped(); bp != nil {
			return &Response{ID: req.ID, OK: true, Stop: stopOf(bp)}
		}
		return &Response{ID: req.ID, OK: true, Exited: sess.dbg.Halted()}

	case "close":
		s.creditCycles(sess)
		s.mu.Lock()
		delete(s.sessions, sess.id)
		delete(c.owned, sess.id)
		s.mu.Unlock()
		return &Response{ID: req.ID, OK: true, Output: sess.dbg.Output()}
	}
	return errResp(req.ID, CodeBadRequest, fmt.Sprintf("unknown command %q", req.Cmd))
}

// unpin releases a session's in-flight pin.
func (s *Server) unpin(sess *session) {
	s.mu.Lock()
	sess.inflight--
	s.mu.Unlock()
}

// denialMsg distinguishes the two not-owner cases for humans; the code
// is the same either way. Called with s.mu held.
func (s *Server) denialMsg(sess *session) string {
	if sess.owner == 0 {
		return fmt.Sprintf("session %q is detached; present its handle to attach", sess.id)
	}
	return fmt.Sprintf("session %q is owned by another connection; present its handle to attach", sess.id)
}

// creditCycles folds the session VM's cycle progress into the service
// metric. Called with sess.mu held.
func (s *Server) creditCycles(sess *session) {
	if sess.dbg == nil {
		return
	}
	now := sess.dbg.VM.Cycles
	s.cyclesExecuted.Add(now - sess.cycles)
	sess.cycles = now
}

func stopOf(bp *debugger.Breakpoint) *StopInfo {
	return &StopInfo{Func: bp.Fn.Name, Stmt: bp.Stmt, Line: bp.Line}
}

func varOf(r *debugger.VarReport) VarInfo {
	v := VarInfo{Name: r.Name, State: r.Class.State.String(), Display: r.Display()}
	for _, f := range r.Fields {
		v.Fields = append(v.Fields, varOf(f))
	}
	return v
}

// errorOf maps a session error to its stable protocol code.
func (s *Server) errorOf(id int64, err error) *Response {
	code := CodeInternal
	switch {
	case errors.Is(err, debugger.ErrNoSuchLine):
		code = CodeNoSuchLine
	case errors.Is(err, debugger.ErrNoSuchFunc):
		code = CodeNoSuchFunc
	case errors.Is(err, debugger.ErrNoStmtLoc):
		code = CodeNoStmtLoc
	case errors.Is(err, debugger.ErrNotStopped):
		code = CodeNotStopped
	case errors.Is(err, debugger.ErrNoSuchVar):
		code = CodeNoSuchVar
	case errors.Is(err, vm.ErrStepLimit):
		code = CodeBudget
	case errors.Is(err, vm.ErrDeadline):
		code = CodeTimeout
		s.timeouts.Add(1)
	case errors.Is(err, vm.ErrOutputLimit):
		code = CodeOutputLimit
		s.outputLimits.Add(1)
	}
	return errResp(id, code, err.Error())
}

func errResp(id int64, code, msg string) *Response {
	return &Response{ID: id, OK: false, Error: &ProtoError{Code: code, Message: msg}}
}

// Snapshot returns the current metrics. The store counters come from one
// consistent per-shard snapshot (each shard is read under its lock);
// analysis totals are summed over the resident artifacts.
func (s *Server) Snapshot() Stats {
	cs := s.store.Stats()
	var built, analysisBytes int64
	s.store.Range(func(id string, a *Artifact) {
		built += a.Analyses.Built()
		analysisBytes += a.Analyses.Bytes()
	})
	s.mu.Lock()
	active := int64(len(s.sessions))
	var detached int64
	for _, sess := range s.sessions {
		if sess.owner == 0 {
			detached++
		}
	}
	s.mu.Unlock()
	st := Stats{
		SessionsActive:    active,
		SessionsDetached:  detached,
		SessionsOpened:    s.sessionsOpened.Load(),
		SessionsReaped:    s.sessionsReaped.Load(),
		ConnsActive:       s.connsActive.Load(),
		ConnsTotal:        s.connsTotal.Load(),
		AuthFailures:      s.authFailures.Load(),
		CacheHits:         cs.Hits,
		CacheMisses:       cs.Misses,
		CacheEvictions:    cs.Evictions,
		CacheEntries:      cs.Entries,
		CacheMemoryBytes:  cs.MemoryBytes,
		CacheMemoryBudget: cs.MemoryBudget,
		CacheShards:       cs.Shards,
		AnalysisBytes:     analysisBytes,
		SpillHits:         cs.SpillHits,
		SpillMisses:       cs.SpillMisses,
		SpillWrites:       cs.SpillWrites,
		SpillErrors:       cs.SpillErrors,
		SpillDegraded:     cs.SpillDegraded,
		SpillDegradations: cs.SpillDegradations,
		SpillProbes:       cs.SpillProbes,
		FlushErrors:       cs.FlushErrors,
		AnalysesBuilt:     built,
		CyclesExecuted:    s.cyclesExecuted.Load(),
		Requests:          s.requests.Load(),
		Panics:            s.panics.Load(),
		Timeouts:          s.timeouts.Load(),
		OutputLimits:      s.outputLimits.Load(),
	}
	st.SROASplits = opt.SROASplitCount()
	st.FieldsClassified = core.FieldsClassifiedCount()
	st.VMFastRuns = vm.Runs()
	ps := s.store.PipelineStats()
	st.CompileWorkers = s.store.CompileWorkers()
	st.FuncsCompiled = ps.FuncsCompiled
	st.FuncsReused = ps.FuncsReused
	st.CompileMSTotal = ps.CompileNanos / 1e6
	if fs, ok := s.store.FuncCacheStats(); ok {
		st.FuncCacheEntries = fs.Entries
		st.FuncCacheBytes = fs.MemoryBytes
		st.FuncCacheEvictions = fs.Evictions
	}
	st.CoverageSweeps = s.coverageSweeps.Load()
	st.CoveragePairs = s.coveragePairs.Load()
	return st
}
