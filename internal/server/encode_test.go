package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// fullStats populates every Stats field with a distinct value so a
// swapped or missing field in appendStats cannot cancel out.
func fullStats() *Stats {
	return &Stats{
		SessionsActive: 1, SessionsDetached: 2, SessionsOpened: 3, SessionsReaped: 4,
		ConnsActive: 5, ConnsTotal: 6, AuthFailures: 7,
		CacheHits: 8, CacheMisses: 9, CacheEvictions: 10, CacheEntries: 11,
		CacheMemoryBytes: 12, CacheMemoryBudget: 13, CacheShards: 14, AnalysisBytes: 15,
		SpillHits: 16, SpillMisses: 17, SpillWrites: 18, SpillErrors: 19,
		SpillDegraded: true, SpillDegradations: 20, SpillProbes: 21, FlushErrors: 22,
		AnalysesBuilt: 23, CyclesExecuted: -24, Requests: 25, Panics: 26, Timeouts: 27,
		OutputLimits: 28, SROASplits: 41, FieldsClassified: 42,
		VMFastRuns: 29, VMSlowRuns: 30,
		CompileWorkers: 31, FuncsCompiled: 32, FuncsReused: 33, CompileMSTotal: 34,
		FuncCacheEntries: 35, FuncCacheBytes: 36, FuncCacheEvictions: 37,
		CoverageSweeps: 38, CoveragePairs: 39,
	}
}

func encodeCorpus() []*Response {
	return []*Response{
		{},
		{OK: true},
		{ID: 1, OK: true},
		{ID: -7, OK: false, Error: &ProtoError{Code: CodeBadRequest, Message: "bad \"thing\""}},
		{ID: 2, OK: true, Artifact: "sha:abc", Cached: true, Funcs: 12,
			FuncsCompiled: 7, FuncsReused: 5, CompileMS: 31},
		{OK: true, Session: "s-01", Handle: "h\u00e9llo"},
		{OK: true, Stop: &StopInfo{Func: "main", Stmt: 0, Line: -1}},
		{OK: true, Exited: true, Output: "1\n2\n3\n"},
		{OK: true, Vars: []VarInfo{
			{Name: "i", State: "current", Display: "i = 4"},
			{Name: "", State: "", Display: ""},
		}},
		{OK: true, Vars: []VarInfo{}}, // empty non-nil slice: omitempty drops it
		// Struct aggregate with nested per-field reports (one level, plus a
		// deeper nesting to exercise the recursion).
		{OK: true, Vars: []VarInfo{
			{Name: "p", State: "noncurrent", Display: `p = {x = 1, y = 2}`, Fields: []VarInfo{
				{Name: "p.x", State: "current", Display: "p.x = 1"},
				{Name: "p.y", State: "noncurrent", Display: "p.y = 2 (WARNING)",
					Fields: []VarInfo{{Name: "deep", State: "current", Display: "deep = 0"}}},
			}},
		}},
		{OK: true, Stats: &Stats{}},
		{OK: true, Stats: fullStats()},
		{OK: true, Coverage: &CoverageInfo{}},
		{OK: true, Artifact: "sha:cov", Coverage: &CoverageInfo{
			CoverageCounts: CoverageCounts{Pairs: 120, Current: 40, Recovered: 50,
				Noncurrent: 20, Suspect: 5, Nonresident: 15, Uninit: 10,
				CurrentPct: "36.36", RecoveredPct: "45.45", NoncurrentPct: "18.18"},
			Funcs: []FuncCoverageInfo{
				{Func: "main", CoverageCounts: CoverageCounts{Pairs: 100, Current: 40,
					CurrentPct: "40.00", RecoveredPct: "0.00", NoncurrentPct: "0.00"}},
				{Func: "h\"0", CoverageCounts: CoverageCounts{Pairs: 20, Uninit: 20,
					CurrentPct: "0.00", RecoveredPct: "0.00", NoncurrentPct: "0.00"}},
			},
		}},
		{ID: 9, OK: true, Results: []Response{
			{ID: 10, OK: true, Stop: &StopInfo{Func: "f", Stmt: 3, Line: 14}},
			{ID: 11, OK: false, Error: &ProtoError{Code: CodeNoSuchVar, Message: "no var <x> & \"y\""}},
			{ID: 12, OK: true, Results: nil},
		}},
		// String escaping: HTML-escaped runes, control bytes, quotes and
		// backslashes, multibyte UTF-8, invalid UTF-8, U+2028/U+2029, DEL
		// (which encoding/json does NOT escape).
		{OK: true, Output: "<script>&amp;</script>"},
		{OK: true, Output: "tab\there\nnl\rcr\x00nul\x1fus\x7fdel"},
		{OK: true, Output: `back\slash "quote"`},
		{OK: true, Output: "\u00fc\u4e16\u754c\U0001f600"},
		{OK: true, Output: "bad\xff\xfebytes\xc3truncated"},
		{OK: true, Output: "line\u2028sep\u2029para"},
		{OK: true, Output: strings.Repeat("x", 3000)},
	}
}

// TestAppendResponseGolden holds the append encoder byte-identical to
// encoding/json over a corpus exercising every Response field and the
// escaping edge cases.
func TestAppendResponseGolden(t *testing.T) {
	for i, r := range encodeCorpus() {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("case %d: json.Marshal: %v", i, err)
		}
		got := appendResponse(nil, r)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: encoding mismatch\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestAppendStringRandom fuzzes appendString against encoding/json with
// random byte strings (often invalid UTF-8) and random rune strings.
func TestAppendStringRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var s string
		if i%2 == 0 {
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			s = string(b)
		} else {
			runes := make([]rune, rng.Intn(32))
			for j := range runes {
				switch rng.Intn(4) {
				case 0:
					runes[j] = rune(rng.Intn(0x80)) // ASCII incl. controls
				case 1:
					runes[j] = rune(0x2020 + rng.Intn(16)) // around U+2028/29
				case 2:
					runes[j] = rune(rng.Intn(0x3000))
				default:
					runes[j] = rune(0x10000 + rng.Intn(0x1000))
				}
			}
			s = string(runes)
		}
		want, err := json.Marshal(&Response{OK: true, Output: s})
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		got := appendResponse(nil, &Response{OK: true, Output: s})
		if !bytes.Equal(got, want) {
			t.Fatalf("string %q:\n got: %s\nwant: %s", s, got, want)
		}
	}
}

// TestServeLinesMatchJSON drives one connection through Serve — a debug
// session (compile, open, break, continue, step, print, info, where,
// coverage, close), a batch, an unknown command, a malformed line and
// stats — and requires every wire line to equal encoding/json's encoding
// of the same response. A twin server answers the same requests through
// Handle to supply that response. The fields that differ between two
// servers by design (the random session id and handle, the compile wall
// time and the live counters of stats) are taken from the wire line
// itself; everything else comes from the twin.
func TestServeLinesMatchJSON(t *testing.T) {
	const src = `int f(int v) { return v * 3; }
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 10; i = i + 1) {
		s = s + f(i);
	}
	print(s);
	return s;
}`
	srv, twin := New(Options{}), New(Options{})
	defer srv.Close()
	defer twin.Close()

	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- srv.Serve(inR, outW)
		outW.Close()
	}()
	wire := bufio.NewReader(outR)

	var sessWire, sessTwin string
	// exchange sends one line to Serve and returns the wire line answering
	// it, without the trailing newline.
	exchange := func(line string) []byte {
		t.Helper()
		if _, err := io.WriteString(inW, line+"\n"); err != nil {
			t.Fatalf("write %s: %v", line, err)
		}
		got, err := wire.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read answer to %s: %v", line, err)
		}
		return got
	}
	check := func(got []byte, want *Response) {
		t.Helper()
		var onWire Response
		if err := json.Unmarshal(got, &onWire); err != nil {
			t.Fatalf("wire line does not parse: %v\n%s", err, got)
		}
		copyVolatile(want, &onWire)
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, enc.Bytes()) {
			t.Errorf("wire line differs from encoding/json\n wire: %s json: %s", got, enc.Bytes())
		}
	}
	// send issues req on the connection and on the twin, each naming its
	// own session.
	send := func(req Request) *Response {
		t.Helper()
		req, twinReq := withSession(req, sessWire), withSession(req, sessTwin)
		line, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		want := twin.Handle(&twinReq)
		got := exchange(string(line))
		if req.Cmd == "open-session" {
			var r Response
			if err := json.Unmarshal(got, &r); err != nil {
				t.Fatal(err)
			}
			sessWire, sessTwin = r.Session, want.Session
		}
		check(got, want)
		return want
	}

	c := send(Request{ID: 1, Cmd: "compile", Name: "p", Src: src})
	if !c.OK {
		t.Fatalf("compile: %+v", c.Error)
	}
	if o := send(Request{ID: 2, Cmd: "open-session", Artifact: c.Artifact}); !o.OK {
		t.Fatalf("open-session: %+v", o.Error)
	}
	send(Request{ID: 3, Cmd: "break", Session: "s", Line: 6})
	send(Request{ID: 4, Cmd: "break", Session: "s", Line: 1})
	for id := int64(5); id < 9; id++ {
		send(Request{ID: id, Cmd: "continue", Session: "s"})
	}
	send(Request{ID: 9, Cmd: "step", Session: "s"})
	send(Request{ID: 10, Cmd: "print", Session: "s", Var: "s"})
	send(Request{ID: 11, Cmd: "info", Session: "s"})
	send(Request{ID: 12, Cmd: "where", Session: "s"})
	send(Request{ID: 13, Cmd: "print", Session: "s", Var: "nosuch"})
	send(Request{ID: 14, Cmd: "coverage", Artifact: c.Artifact})
	send(Request{ID: 15, Cmd: "batch", Reqs: []Request{
		{ID: 16, Cmd: "where", Session: "s"},
		{ID: 17, Cmd: "nope"},
	}})
	send(Request{ID: 18, Cmd: "nope"})
	send(Request{ID: 19, Cmd: "stats"})
	for id := int64(20); id < 60; id++ {
		if r := send(Request{ID: id, Cmd: "continue", Session: "s"}); r.Exited || !r.OK {
			break
		}
	}
	send(Request{ID: 60, Cmd: "close", Session: "s"})

	const malformed = `{"id":61,"cmd":`
	var req Request
	derr := decodeRequest([]byte(malformed), &req)
	if derr == nil {
		t.Fatal("malformed line decoded")
	}
	check(exchange(malformed), errResp(0, CodeBadRequest, fmt.Sprintf("malformed request: %v", derr)))

	inW.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// withSession returns req with every non-empty session field, batch
// sub-requests included, set to id.
func withSession(req Request, id string) Request {
	if req.Session != "" {
		req.Session = id
	}
	if req.Reqs != nil {
		subs := make([]Request, len(req.Reqs))
		for i, sub := range req.Reqs {
			subs[i] = withSession(sub, id)
		}
		req.Reqs = subs
	}
	return req
}

// copyVolatile copies into want the fields of the wire response got that
// differ between two servers by design, recursing into batch results.
func copyVolatile(want, got *Response) {
	want.Session, want.Handle, want.CompileMS = got.Session, got.Handle, got.CompileMS
	if want.Stats != nil {
		want.Stats = got.Stats
	}
	if len(want.Results) == len(got.Results) {
		for i := range want.Results {
			copyVolatile(&want.Results[i], &got.Results[i])
		}
	}
}

func BenchmarkEncodeResponse(b *testing.B) {
	resp := &Response{ID: 42, OK: true,
		Stop:   &StopInfo{Func: "inner_loop", Stmt: 7, Line: 123},
		Output: "checkpoint 100000\n"}
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		var sink bytes.Buffer
		for i := 0; i < b.N; i++ {
			sink.Reset()
			if err := json.NewEncoder(&sink).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var sink bytes.Buffer
		for i := 0; i < b.N; i++ {
			sink.Reset()
			if err := writeResponse(&sink, resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
