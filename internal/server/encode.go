// Zero-allocation encoding. The wire loop used to run every response
// through encoding/json, which reflects over the struct and allocates on
// every call — measurable at hot continue/stop serving rates; the client
// did the same for requests. appendResponse (daemon) and AppendRequest
// (client) are hand-rolled append-based encoders whose output is
// byte-identical to encoding/json (same field order, omitempty
// semantics, and string escaping, including the HTML-safe escapes, the
// \ufffd replacement for invalid UTF-8, and the escapes of U+2028 and
// U+2029). Responses go out over buffers recycled through a sync.Pool,
// requests through the client's reused buffer. Golden and randomized
// tests (encode_test, decode_test) hold both to encoding/json, and a
// Serve-level test holds every wire line of a scripted session to it.
package server

import (
	"strconv"
	"sync"
	"unicode/utf8"
)

// encBufs recycles response encode buffers across requests and
// connections. Stored as *[]byte so Put does not allocate.
var encBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// appendResponse appends r encoded exactly as encoding/json would
// (without the trailing newline json.Encoder adds; the caller appends
// it).
func appendResponse(b []byte, r *Response) []byte {
	b = append(b, '{')
	if r.ID != 0 {
		b = append(b, `"id":`...)
		b = strconv.AppendInt(b, r.ID, 10)
		b = append(b, ',')
	}
	b = append(b, `"ok":`...)
	b = appendBool(b, r.OK)
	if r.Error != nil {
		b = append(b, `,"error":{"code":`...)
		b = appendString(b, r.Error.Code)
		b = append(b, `,"message":`...)
		b = appendString(b, r.Error.Message)
		b = append(b, '}')
	}
	if r.Artifact != "" {
		b = append(b, `,"artifact":`...)
		b = appendString(b, r.Artifact)
	}
	if r.Cached {
		b = append(b, `,"cached":true`...)
	}
	if r.Funcs != 0 {
		b = append(b, `,"funcs":`...)
		b = strconv.AppendInt(b, int64(r.Funcs), 10)
	}
	if r.FuncsCompiled != 0 {
		b = append(b, `,"funcs_compiled":`...)
		b = strconv.AppendInt(b, int64(r.FuncsCompiled), 10)
	}
	if r.FuncsReused != 0 {
		b = append(b, `,"funcs_reused":`...)
		b = strconv.AppendInt(b, int64(r.FuncsReused), 10)
	}
	if r.CompileMS != 0 {
		b = append(b, `,"compile_ms":`...)
		b = strconv.AppendInt(b, r.CompileMS, 10)
	}
	if r.Session != "" {
		b = append(b, `,"session":`...)
		b = appendString(b, r.Session)
	}
	if r.Handle != "" {
		b = append(b, `,"handle":`...)
		b = appendString(b, r.Handle)
	}
	if r.Stop != nil {
		b = append(b, `,"stop":{"func":`...)
		b = appendString(b, r.Stop.Func)
		b = append(b, `,"stmt":`...)
		b = strconv.AppendInt(b, int64(r.Stop.Stmt), 10)
		b = append(b, `,"line":`...)
		b = strconv.AppendInt(b, int64(r.Stop.Line), 10)
		b = append(b, '}')
	}
	if r.Exited {
		b = append(b, `,"exited":true`...)
	}
	if r.Output != "" {
		b = append(b, `,"output":`...)
		b = appendString(b, r.Output)
	}
	if len(r.Vars) > 0 {
		b = append(b, `,"vars":[`...)
		for i := range r.Vars {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendVarInfo(b, &r.Vars[i])
		}
		b = append(b, ']')
	}
	if r.Stats != nil {
		b = append(b, `,"stats":`...)
		b = appendStats(b, r.Stats)
	}
	if r.Coverage != nil {
		b = append(b, `,"coverage":`...)
		b = appendCoverage(b, r.Coverage)
	}
	if len(r.Results) > 0 {
		b = append(b, `,"results":[`...)
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendResponse(b, &r.Results[i])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// AppendRequest appends r encoded exactly as encoding/json would (without
// the trailing newline json.Encoder adds): the client's request encoder.
func AppendRequest(b []byte, r *Request) []byte {
	b = append(b, '{')
	if r.ID != 0 {
		b = append(b, `"id":`...)
		b = strconv.AppendInt(b, r.ID, 10)
		b = append(b, ',')
	}
	b = append(b, `"cmd":`...)
	b = appendString(b, r.Cmd)
	b = appendStringField(b, `,"token":`, r.Token)
	b = appendStringField(b, `,"name":`, r.Name)
	b = appendStringField(b, `,"src":`, r.Src)
	b = appendStringField(b, `,"workload":`, r.Workload)
	if c := r.Config; c != nil {
		b = append(b, `,"config":{`...)
		n := len(b)
		b = appendStringField(b, `,"opt":`, c.Opt)
		if c.RegAlloc != nil {
			b = append(b, `,"regalloc":`...)
			b = appendBool(b, *c.RegAlloc)
		}
		if c.Sched != nil {
			b = append(b, `,"sched":`...)
			b = appendBool(b, *c.Sched)
		}
		if len(b) > n {
			// Drop the first member's leading comma.
			b = append(b[:n], b[n+1:]...)
		}
		b = append(b, '}')
	}
	b = appendStringField(b, `,"artifact":`, r.Artifact)
	b = appendStringField(b, `,"session":`, r.Session)
	b = appendStringField(b, `,"handle":`, r.Handle)
	b = appendStringField(b, `,"func":`, r.Func)
	if r.Stmt != nil {
		b = append(b, `,"stmt":`...)
		b = strconv.AppendInt(b, int64(*r.Stmt), 10)
	}
	if r.Line != 0 {
		b = append(b, `,"line":`...)
		b = strconv.AppendInt(b, int64(r.Line), 10)
	}
	b = appendStringField(b, `,"var":`, r.Var)
	if len(r.Reqs) > 0 {
		b = append(b, `,"reqs":[`...)
		for i := range r.Reqs {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendRequest(b, &r.Reqs[i])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendStringField appends the member key (with its leading comma) and
// v, unless v is empty: an omitempty string field.
func appendStringField(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return appendString(append(b, key...), v)
}

// appendVarInfo appends one classified variable, recursing into the
// per-field sub-reports of struct aggregates.
func appendVarInfo(b []byte, v *VarInfo) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, v.Name)
	b = append(b, `,"state":`...)
	b = appendString(b, v.State)
	b = append(b, `,"display":`...)
	b = appendString(b, v.Display)
	if len(v.Fields) > 0 {
		b = append(b, `,"fields":[`...)
		for i := range v.Fields {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendVarInfo(b, &v.Fields[i])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendCoverage appends one coverage report: the embedded totals row
// inlined first (matching encoding/json's embedding order), then the
// per-function rows.
func appendCoverage(b []byte, ci *CoverageInfo) []byte {
	b = append(b, '{')
	b = appendCoverageCounts(b, &ci.CoverageCounts)
	if len(ci.Funcs) > 0 {
		b = append(b, `,"funcs":[`...)
		for i := range ci.Funcs {
			if i > 0 {
				b = append(b, ',')
			}
			f := &ci.Funcs[i]
			b = append(b, `{"func":`...)
			b = appendString(b, f.Func)
			b = append(b, ',')
			b = appendCoverageCounts(b, &f.CoverageCounts)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendCoverageCounts appends the fields of one counts row without the
// surrounding braces (the caller composes it into its object).
func appendCoverageCounts(b []byte, c *CoverageCounts) []byte {
	b = append(b, `"pairs":`...)
	b = strconv.AppendInt(b, int64(c.Pairs), 10)
	b = append(b, `,"current":`...)
	b = strconv.AppendInt(b, int64(c.Current), 10)
	b = append(b, `,"recovered":`...)
	b = strconv.AppendInt(b, int64(c.Recovered), 10)
	b = append(b, `,"noncurrent":`...)
	b = strconv.AppendInt(b, int64(c.Noncurrent), 10)
	b = append(b, `,"suspect":`...)
	b = strconv.AppendInt(b, int64(c.Suspect), 10)
	b = append(b, `,"nonresident":`...)
	b = strconv.AppendInt(b, int64(c.Nonresident), 10)
	b = append(b, `,"uninit":`...)
	b = strconv.AppendInt(b, int64(c.Uninit), 10)
	b = append(b, `,"current_pct":`...)
	b = appendString(b, c.CurrentPct)
	b = append(b, `,"recovered_pct":`...)
	b = appendString(b, c.RecoveredPct)
	b = append(b, `,"noncurrent_pct":`...)
	b = appendString(b, c.NoncurrentPct)
	return b
}

// appendStats mirrors the Stats struct field for field; none of its
// fields carry omitempty, so every field is emitted.
func appendStats(b []byte, st *Stats) []byte {
	field := func(name string, v int64) {
		b = append(b, ',', '"')
		b = append(b, name...)
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, v, 10)
	}
	b = append(b, `{"sessions_active":`...)
	b = strconv.AppendInt(b, st.SessionsActive, 10)
	field("sessions_detached", st.SessionsDetached)
	field("sessions_opened", st.SessionsOpened)
	field("sessions_reaped", st.SessionsReaped)
	field("conns_active", st.ConnsActive)
	field("conns_total", st.ConnsTotal)
	field("auth_failures", st.AuthFailures)
	field("cache_hits", st.CacheHits)
	field("cache_misses", st.CacheMisses)
	field("cache_evictions", st.CacheEvictions)
	field("cache_entries", int64(st.CacheEntries))
	field("cache_memory_bytes", st.CacheMemoryBytes)
	field("cache_memory_budget", st.CacheMemoryBudget)
	field("cache_shards", int64(st.CacheShards))
	field("analysis_bytes", st.AnalysisBytes)
	field("spill_hits", st.SpillHits)
	field("spill_misses", st.SpillMisses)
	field("spill_writes", st.SpillWrites)
	field("spill_errors", st.SpillErrors)
	b = append(b, `,"spill_degraded":`...)
	b = appendBool(b, st.SpillDegraded)
	field("spill_degradations", st.SpillDegradations)
	field("spill_probes", st.SpillProbes)
	field("flush_errors", st.FlushErrors)
	field("analyses_built", st.AnalysesBuilt)
	field("cycles_executed", st.CyclesExecuted)
	field("requests", st.Requests)
	field("panics", st.Panics)
	field("timeouts", st.Timeouts)
	field("output_limits", st.OutputLimits)
	field("sroa_splits", st.SROASplits)
	field("fields_classified", st.FieldsClassified)
	field("vm_fast_runs", st.VMFastRuns)
	field("vm_slow_runs", st.VMSlowRuns)
	field("compile_workers", int64(st.CompileWorkers))
	field("funcs_compiled", st.FuncsCompiled)
	field("funcs_reused", st.FuncsReused)
	field("compile_ms_total", st.CompileMSTotal)
	field("func_cache_entries", int64(st.FuncCacheEntries))
	field("func_cache_bytes", st.FuncCacheBytes)
	field("func_cache_evictions", st.FuncCacheEvictions)
	field("coverage_sweeps", st.CoverageSweeps)
	field("coverage_pairs", st.CoveragePairs)
	return append(b, '}')
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json's
// default (HTML-escaping) encoder renders it: '"', '\\', '\n', '\r',
// '\t', '\b', '\f' get short escapes; other control bytes and '<', '>', '&' become
// \u00xx; invalid UTF-8 becomes the six-byte escape \ufffd; U+2028 and
// U+2029 are escaped for JavaScript embedding. Everything else is
// copied verbatim.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			default:
				// Control bytes without short escapes, plus <, >, &.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
