// Service-layer benchmarks: what the debug-session server buys under
// repeated and concurrent load — cached vs. cold compiles, parallel vs.
// serial analysis precompute, and whole scripted sessions through the
// protocol loop.
package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/artstore"
	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/server"
)

// BenchmarkCompileCold compiles the li workload through the pipeline
// every iteration — the cost every mcdbg invocation used to pay.
func BenchmarkCompileCold(b *testing.B) {
	src := bench.MustSource("li")
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile("li.mc", src, compile.O2()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileCached serves the same workload from the artifact
// store after one cold compile.
func BenchmarkCompileCached(b *testing.B) {
	src := bench.MustSource("li")
	c := artstore.New(artstore.Config{MaxArtifacts: 8})
	defer c.Close()
	if _, _, err := c.Get("li.mc", src, compile.O2()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := c.Get("li.mc", src, compile.O2()); err != nil || !hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
	st := c.Stats()
	b.ReportMetric(float64(st.Hits), "cache-hits")
}

// BenchmarkAnalyzeProgram measures precomputing every function's core
// analyses, serial vs. bounded worker pool.
func BenchmarkAnalyzeProgram(b *testing.B) {
	res, err := bench.CompileWorkload("gcc", compile.O2())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.NewAnalysisSet().Precompute(res.Mach, workers)
			}
		})
	}
}

// BenchmarkProtocolQueries measures the same 64 classification queries
// (info at a stop) issued through the full wire loop — JSON decode,
// dispatch, JSON encode — once as 64 serial request lines and once as a
// single batch request, which is the harness-style load the batch
// command exists for.
func BenchmarkProtocolQueries(b *testing.B) {
	const queries = 64
	s := server.New(server.Options{})
	c := s.Handle(&server.Request{Cmd: "compile", Workload: "compress"})
	if !c.OK {
		b.Fatalf("compile: %+v", c.Error)
	}
	o := s.Handle(&server.Request{Cmd: "open-session", Artifact: c.Artifact})
	if !o.OK {
		b.Fatalf("open: %+v", o.Error)
	}
	sess := o.Session
	stmt := 6
	if r := s.Handle(&server.Request{Cmd: "break", Session: sess, Func: "compress", Stmt: &stmt}); !r.OK {
		b.Fatalf("break: %+v", r.Error)
	}
	if r := s.Handle(&server.Request{Cmd: "continue", Session: sess}); !r.OK || r.Stop == nil {
		b.Fatalf("continue: %+v", r)
	}

	encode := func(reqs []server.Request) string {
		var sb strings.Builder
		enc := json.NewEncoder(&sb)
		for i := range reqs {
			if err := enc.Encode(&reqs[i]); err != nil {
				b.Fatal(err)
			}
		}
		return sb.String()
	}
	// Each Serve call below is its own connection, so the queries carry
	// the session handle to reattach the trusted-opened session.
	info := make([]server.Request, queries)
	for i := range info {
		info[i] = server.Request{ID: int64(i + 1), Cmd: "info", Session: sess, Handle: o.Handle}
	}
	serialInput := encode(info)
	batchedInput := encode([]server.Request{{ID: 1, Cmd: "batch", Reqs: info}})

	for _, tc := range []struct{ name, input string }{
		{"serial", serialInput},
		{"batched", batchedInput},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Serve(strings.NewReader(tc.input), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(queries, "queries/op")
		})
	}
}

// BenchmarkServerSession runs a full scripted session (compile from
// cache, open, break, three stops with info, close) per iteration, with
// parallelism: the server's intended steady-state load shape.
func BenchmarkServerSession(b *testing.B) {
	s := server.New(server.Options{})
	warm := s.Handle(&server.Request{Cmd: "compile", Workload: "compress"})
	if !warm.OK {
		b.Fatalf("compile: %+v", warm.Error)
	}
	stmt := 6
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c := s.Handle(&server.Request{Cmd: "compile", Workload: "compress"})
			o := s.Handle(&server.Request{Cmd: "open-session", Artifact: c.Artifact})
			if !o.OK {
				b.Fatalf("open: %+v", o.Error)
			}
			sess := o.Session
			if r := s.Handle(&server.Request{Cmd: "break", Session: sess, Func: "compress", Stmt: &stmt}); !r.OK {
				b.Fatalf("break: %+v", r.Error)
			}
			for hit := 0; hit < 3; hit++ {
				r := s.Handle(&server.Request{Cmd: "continue", Session: sess})
				if !r.OK {
					b.Fatalf("continue: %+v", r.Error)
				}
				if r.Exited {
					break
				}
				if r := s.Handle(&server.Request{Cmd: "info", Session: sess}); !r.OK {
					b.Fatalf("info: %+v", r.Error)
				}
			}
			if r := s.Handle(&server.Request{Cmd: "close", Session: sess}); !r.OK {
				b.Fatalf("close: %+v", r.Error)
			}
		}
	})
	st := s.Snapshot()
	b.ReportMetric(float64(st.CacheHits), "cache-hits")
	b.ReportMetric(float64(st.CyclesExecuted), "vm-cycles")
}

// BenchmarkServeContinue is the hot serving path end to end: a session
// stopped at a breakpoint in a tight loop body, resumed with one
// continue request line per stop through the full wire loop (request
// decode, bitmap resume, append-encoded response). The sub-benchmark is
// named for the response encoder; BenchmarkEncodeResponse in
// internal/server compares it with encoding/json in isolation.
func BenchmarkServeContinue(b *testing.B) {
	src := `int main() {
	int i;
	int s = 0;
	for (i = 0; i < 100000000; i = i + 1) {
		s = s + i;
		if (s > 1000000000) {
			s = s - 1000000000;
		}
	}
	print(s);
	return s;
}
`
	const linesPerOp = 64
	b.Run("append", func(b *testing.B) {
		s := server.New(server.Options{})
		defer s.Close()
		c := s.Handle(&server.Request{Cmd: "compile", Name: "hot", Src: src})
		if !c.OK {
			b.Fatalf("compile: %+v", c.Error)
		}
		o := s.Handle(&server.Request{Cmd: "open-session", Artifact: c.Artifact})
		if !o.OK {
			b.Fatalf("open: %+v", o.Error)
		}
		if r := s.Handle(&server.Request{Cmd: "break", Session: o.Session, Line: 5}); !r.OK {
			b.Fatalf("break: %+v", r.Error)
		}
		var sb strings.Builder
		enc := json.NewEncoder(&sb)
		for i := 0; i < linesPerOp; i++ {
			req := server.Request{ID: int64(i + 1), Cmd: "continue", Session: o.Session, Handle: o.Handle}
			if err := enc.Encode(&req); err != nil {
				b.Fatal(err)
			}
		}
		input := sb.String()

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Serve(strings.NewReader(input), io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(linesPerOp, "continues/op")
	})
}
