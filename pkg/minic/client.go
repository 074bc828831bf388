package minic

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/server"
)

// This file is the remote half of the public API: a client for the mcd
// debug-session daemon. It speaks the line-delimited JSON protocol of
// internal/server over TCP or unix sockets, authenticates with the
// daemon's shared secret, and models the capability-style session
// ownership the server enforces: opening a session yields an id plus a
// secret handle, and a client that reconnects (same process or a new
// one) resumes its session by presenting the handle to Attach.

// RemoteError is a typed protocol error from a remote daemon. Code is
// one of the stable server codes ("not-owner", "auth-required", ...).
type RemoteError struct {
	Code    string
	Message string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("minic: remote %s: %s", e.Code, e.Message) }

// Is matches RemoteErrors by code, so errors.Is(err, ErrShuttingDown)
// works on any error returned by this package.
func (e *RemoteError) Is(target error) bool {
	t, ok := target.(*RemoteError)
	return ok && e.Code == t.Code
}

// Retryable reports whether the error is transient by protocol contract:
// the daemon is draining (shutting-down — a restarted or sibling daemon
// will answer) or the one command ran past the daemon's request timeout
// (timeout — the session survived at the cutoff point, so the caller may
// resume it). Everything else means retrying the same request will fail
// the same way.
func (e *RemoteError) Retryable() bool {
	return e.Code == server.CodeShuttingDown || e.Code == server.CodeTimeout
}

// Typed sentinels for errors.Is. The daemon answers shutting-down while
// draining: a drain, not a hard failure — sessions survive to the spill
// tier or a handle re-attach. timeout cuts off one continue/step; the
// session survives at the instruction boundary where the cutoff landed.
var (
	ErrShuttingDown = &RemoteError{Code: server.CodeShuttingDown}
	ErrTimeout      = &RemoteError{Code: server.CodeTimeout}
)

// Wire-shape re-exports, so client code needs no internal imports.
type (
	// RemoteStop is a stop location reported by a remote session.
	RemoteStop = server.StopInfo
	// RemoteVar is one classified variable from a remote print/info.
	RemoteVar = server.VarInfo
	// RemoteStats is the daemon's metrics snapshot.
	RemoteStats = server.Stats
	// RemoteCoverage is the coverage command's payload: whole-artifact
	// totals plus per-function rows, with server-rendered percentage
	// strings.
	RemoteCoverage = server.CoverageInfo
	// RemoteCoverageCounts is one row of a RemoteCoverage report.
	RemoteCoverageCounts = server.CoverageCounts
)

// DialOption configures Dial.
type DialOption func(*dialSettings)

type dialSettings struct {
	token   string
	timeout time.Duration
	retry   RetryPolicy
	retryOn bool
}

// RetryPolicy tunes WithRetry. The zero value of each field selects its
// default.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per command, first attempt
	// included; <= 0 means 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// attempt (with jitter) up to MaxDelay. <= 0 means 25ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; <= 0 means 1s.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// WithAuthToken presents the daemon's shared secret (its -auth-token)
// during Dial. Without it, a token-protected daemon answers everything
// but stats with auth-required.
func WithAuthToken(token string) DialOption {
	return func(ds *dialSettings) { ds.token = token }
}

// WithDialTimeout bounds the connection attempt (default 10s).
func WithDialTimeout(d time.Duration) DialOption {
	return func(ds *dialSettings) { ds.timeout = d }
}

// WithRetry makes the client retry failed commands with exponential
// backoff plus jitter — but only commands that are idempotent on the
// daemon (auth, stats, compile, attach, detach, break, where, print,
// info). Execution commands (continue, step), open-session, and close
// are never resent: the client cannot know whether the daemon acted on
// a request whose response was lost, and re-running execution would
// corrupt the session's position.
//
// Two failure shapes are retried: a broken connection (the client
// redials and — since every session command carries the session handle —
// the retried command reattaches its session on the new connection), and
// the daemon's typed shutting-down answer (a drain; a restarted daemon
// with the same spill dir serves the warm set). After a broken
// connection, even non-idempotent commands get the redial on their next
// call; they just don't get the resend.
func WithRetry(p RetryPolicy) DialOption {
	return func(ds *dialSettings) { ds.retry = p.withDefaults(); ds.retryOn = true }
}

// idempotentCmds are safe to resend when the previous attempt's outcome
// is unknown: re-running them leaves the daemon in the same state and
// yields the same answer. compile is idempotent because artifacts are
// content-addressed (a duplicate compile coalesces or hits the cache);
// attach/detach/break converge to the same session state.
var idempotentCmds = map[string]bool{
	"auth": true, "stats": true, "compile": true, "attach": true,
	"detach": true, "break": true, "where": true, "print": true, "info": true,
	"coverage": true,
}

// Client is one connection to a remote mcd daemon. It is safe for
// concurrent use; requests are serialized on the wire, matching the
// protocol's one-response-per-line ordering.
type Client struct {
	network string
	addr    string
	ds      dialSettings

	mu     sync.Mutex
	conn   net.Conn
	wbuf   []byte // request encode buffer, reused across commands
	sc     *bufio.Scanner
	next   int64
	broken bool // the connection died mid-command; redial before reuse
}

// Dial connects to an mcd daemon on network ("tcp" or "unix") and
// address, and authenticates if a token option is given (sending auth is
// harmless on an open daemon).
func Dial(network, addr string, opts ...DialOption) (*Client, error) {
	ds := dialSettings{timeout: 10 * time.Second}
	for _, o := range opts {
		o(&ds)
	}
	conn, err := net.DialTimeout(network, addr, ds.timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{network: network, addr: addr, ds: ds}
	c.reset(conn)
	if ds.token != "" {
		if _, err := c.do(&server.Request{Cmd: "auth", Token: ds.token}); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return c, nil
}

// reset points the client at a (new) connection. Caller holds c.mu or
// has exclusive access.
func (c *Client) reset(conn net.Conn) {
	c.conn = conn
	c.sc = bufio.NewScanner(conn)
	c.sc.Buffer(make([]byte, 0, 64*1024), server.MaxLine)
	c.broken = false
}

// redialLocked replaces a broken connection and re-authenticates.
// Called with c.mu held.
func (c *Client) redialLocked() error {
	conn, err := net.DialTimeout(c.network, c.addr, c.ds.timeout)
	if err != nil {
		return err
	}
	c.conn.Close()
	c.reset(conn)
	if c.ds.token != "" {
		if _, err := c.doLocked(&server.Request{Cmd: "auth", Token: c.ds.token}); err != nil {
			return err
		}
	}
	return nil
}

// do sends one request and decodes its response, retrying per the
// WithRetry policy when armed.
func (c *Client) do(req *server.Request) (*server.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempts := 1
	if c.ds.retryOn && idempotentCmds[req.Cmd] {
		attempts = c.ds.retry.MaxAttempts
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			time.Sleep(backoff(c.ds.retry, try))
		}
		if c.broken {
			if !c.ds.retryOn {
				return nil, lastErrOr(lastErr)
			}
			if err := c.redialLocked(); err != nil {
				lastErr = err
				c.broken = true
				continue
			}
		}
		resp, err := c.doLocked(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		var re *RemoteError
		if errors.As(err, &re) {
			// The daemon answered: the connection is healthy, the error is
			// semantic. Only the typed transient codes are worth retrying.
			if !re.Retryable() {
				return nil, err
			}
			continue
		}
		// Transport error: the connection is unusable whether or not the
		// daemon acted on the request. Redial on the next attempt (or the
		// next call, for commands that must not be resent).
		c.broken = true
	}
	return nil, lastErr
}

func lastErrOr(err error) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("minic: connection is broken (dial a new client)")
}

// backoff is the delay before retry number try (1-based): exponential in
// BaseDelay, capped at MaxDelay, with the upper half jittered so a fleet
// of clients retrying a restarted daemon does not stampede in phase.
func backoff(p RetryPolicy, try int) time.Duration {
	d := p.BaseDelay << (try - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// doLocked sends one request (assigning it the next id) and decodes its
// response, mapping protocol errors to *RemoteError. Called with c.mu
// held.
func (c *Client) doLocked(req *server.Request) (*server.Response, error) {
	c.next++
	req.ID = c.next
	c.wbuf = append(server.AppendRequest(c.wbuf[:0], req), '\n')
	_, err := c.conn.Write(c.wbuf)
	if cap(c.wbuf) > 64<<10 {
		c.wbuf = nil // do not pin one large compile request's buffer
	}
	if err != nil {
		return nil, err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	var resp server.Response
	if err := server.DecodeResponse(c.sc.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("minic: bad response line: %w", err)
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("minic: response id %d for request %d", resp.ID, req.ID)
	}
	if !resp.OK {
		if resp.Error == nil {
			return nil, fmt.Errorf("minic: remote error with no detail")
		}
		return nil, &RemoteError{Code: resp.Error.Code, Message: resp.Error.Message}
	}
	return &resp, nil
}

// Close drops the connection. Sessions opened on it stay alive on the
// daemon (detached) until reattached or reaped.
func (c *Client) Close() error { return c.conn.Close() }

// Stats fetches the daemon's metrics snapshot (allowed even before
// authentication).
func (c *Client) Stats() (*RemoteStats, error) {
	resp, err := c.do(&server.Request{Cmd: "stats"})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// RemoteArtifact names a program compiled by the daemon.
type RemoteArtifact struct {
	ID     string
	Cached bool
	Funcs  int
}

// Compile compiles source text on the daemon (its artifact store
// coalesces and caches) and returns the artifact id sessions open on.
func (c *Client) Compile(name, src string) (*RemoteArtifact, error) {
	resp, err := c.do(&server.Request{Cmd: "compile", Name: name, Src: src})
	if err != nil {
		return nil, err
	}
	return &RemoteArtifact{ID: resp.Artifact, Cached: resp.Cached, Funcs: resp.Funcs}, nil
}

// RemoteConfig selects the daemon-side pipeline configuration for
// CompileWith. The zero value (or nil) means full optimization.
type RemoteConfig = server.ConfigSpec

// CompileWith compiles source text on the daemon under an explicit
// pipeline configuration (opt level, register allocation, scheduling).
// Artifacts are content-addressed per configuration, so the same source
// under different configs yields distinct artifacts.
func (c *Client) CompileWith(name, src string, cfg *RemoteConfig) (*RemoteArtifact, error) {
	resp, err := c.do(&server.Request{Cmd: "compile", Name: name, Src: src, Config: cfg})
	if err != nil {
		return nil, err
	}
	return &RemoteArtifact{ID: resp.Artifact, Cached: resp.Cached, Funcs: resp.Funcs}, nil
}

// CompileWorkload compiles one of the daemon's built-in bench workloads.
func (c *Client) CompileWorkload(workload string) (*RemoteArtifact, error) {
	resp, err := c.do(&server.Request{Cmd: "compile", Workload: workload})
	if err != nil {
		return nil, err
	}
	return &RemoteArtifact{ID: resp.Artifact, Cached: resp.Cached, Funcs: resp.Funcs}, nil
}

// Coverage runs the daemon's deterministic coverage sweep over a
// compiled artifact: every statement×variable(×field) pair bucketed by
// what the classifier lets the debugger show there. The percentage
// strings are rendered by the daemon through the same formatting path
// the in-process sweep uses, so the two agree byte for byte on the same
// artifact — the oracle's remote-equality check depends on that.
func (c *Client) Coverage(artifactID string) (*RemoteCoverage, error) {
	resp, err := c.do(&server.Request{Cmd: "coverage", Artifact: artifactID})
	if err != nil {
		return nil, err
	}
	return resp.Coverage, nil
}

// RemoteSession is a debug session living on the daemon. ID addresses
// it; Handle is the secret capability that proves the right to it —
// persist both to resume the session from another connection or process
// via Attach, and guard the handle like a password.
type RemoteSession struct {
	c      *Client
	ID     string
	Handle string
}

// Open starts a session on a compiled artifact. The session is owned by
// this client's connection: other connections' commands on it are
// refused (not-owner) unless they present the handle.
func (c *Client) Open(artifactID string) (*RemoteSession, error) {
	resp, err := c.do(&server.Request{Cmd: "open-session", Artifact: artifactID})
	if err != nil {
		return nil, err
	}
	return &RemoteSession{c: c, ID: resp.Session, Handle: resp.Handle}, nil
}

// Attach resumes an existing session — typically one opened by a
// previous, dropped connection — by presenting its handle, and returns
// the stop it is still parked at (nil if it has exited or never ran).
func (c *Client) Attach(sessionID, handle string) (*RemoteSession, *RemoteStop, error) {
	resp, err := c.do(&server.Request{Cmd: "attach", Session: sessionID, Handle: handle})
	if err != nil {
		return nil, nil, err
	}
	return &RemoteSession{c: c, ID: resp.Session, Handle: handle}, resp.Stop, nil
}

// Session binds an id/handle pair to this client without a round trip,
// for callers that persisted the pair themselves. The first command
// attaches it (the server accepts the handle on any session command).
func (c *Client) Session(sessionID, handle string) *RemoteSession {
	return &RemoteSession{c: c, ID: sessionID, Handle: handle}
}

// send issues one session command, always carrying the handle so the
// command reattaches the session if this connection does not own it yet.
func (s *RemoteSession) send(req *server.Request) (*server.Response, error) {
	req.Session = s.ID
	req.Handle = s.Handle
	return s.c.do(req)
}

// BreakAtLine sets a breakpoint at the first statement on a source line.
func (s *RemoteSession) BreakAtLine(line int) (*RemoteStop, error) {
	resp, err := s.send(&server.Request{Cmd: "break", Line: line})
	if err != nil {
		return nil, err
	}
	return resp.Stop, nil
}

// BreakAtStmt sets a breakpoint at statement stmt of the named function.
func (s *RemoteSession) BreakAtStmt(fn string, stmt int) (*RemoteStop, error) {
	resp, err := s.send(&server.Request{Cmd: "break", Func: fn, Stmt: &stmt})
	if err != nil {
		return nil, err
	}
	return resp.Stop, nil
}

// Continue resumes until a breakpoint (returned) or exit (nil, with the
// program's output).
func (s *RemoteSession) Continue() (stop *RemoteStop, output string, err error) {
	resp, err := s.send(&server.Request{Cmd: "continue"})
	if err != nil {
		return nil, "", err
	}
	return resp.Stop, resp.Output, nil
}

// Step advances to the next source statement (nil stop means exit).
func (s *RemoteSession) Step() (stop *RemoteStop, output string, err error) {
	resp, err := s.send(&server.Request{Cmd: "step"})
	if err != nil {
		return nil, "", err
	}
	return resp.Stop, resp.Output, nil
}

// Where reports the current stop, or nil if not stopped (exited reports
// whether the program has finished).
func (s *RemoteSession) Where() (stop *RemoteStop, exited bool, err error) {
	resp, err := s.send(&server.Request{Cmd: "where"})
	if err != nil {
		return nil, false, err
	}
	return resp.Stop, resp.Exited, nil
}

// Print reports one variable at the current stop, classification and
// warning-annotated display included.
func (s *RemoteSession) Print(name string) (RemoteVar, error) {
	resp, err := s.send(&server.Request{Cmd: "print", Var: name})
	if err != nil {
		return RemoteVar{}, err
	}
	if len(resp.Vars) != 1 {
		return RemoteVar{}, fmt.Errorf("minic: print returned %d vars", len(resp.Vars))
	}
	return resp.Vars[0], nil
}

// Info reports every variable in scope at the current stop.
func (s *RemoteSession) Info() ([]RemoteVar, error) {
	resp, err := s.send(&server.Request{Cmd: "info"})
	if err != nil {
		return nil, err
	}
	return resp.Vars, nil
}

// Detach releases this connection's ownership but keeps the session
// alive on the daemon for a later Attach.
func (s *RemoteSession) Detach() error {
	_, err := s.send(&server.Request{Cmd: "detach"})
	return err
}

// Close ends the session on the daemon and returns the program's output
// so far.
func (s *RemoteSession) Close() (output string, err error) {
	resp, err := s.send(&server.Request{Cmd: "close"})
	if err != nil {
		return "", err
	}
	return resp.Output, nil
}
