package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The hand decoders are held to encoding/json.Unmarshal into the same
// type: the same lines accepted, DeepEqual values, the same error text.

// diffRequest decodes line both ways and describes any disagreement.
func diffRequest(line []byte) string {
	var got, want Request
	return diffDecode(decodeRequest(line, &got), json.Unmarshal(line, &want), &got, &want)
}

func diffResponse(line []byte) string {
	var got, want Response
	return diffDecode(DecodeResponse(line, &got), json.Unmarshal(line, &want), &got, &want)
}

func diffDecode(gerr, werr error, got, want any) string {
	switch {
	case (gerr == nil) != (werr == nil):
		return fmt.Sprintf("accept/reject differs: hand %v, encoding/json %v", gerr, werr)
	case gerr != nil:
		if gerr.Error() != werr.Error() {
			return fmt.Sprintf("error text differs: hand %q, encoding/json %q", gerr, werr)
		}
	case !reflect.DeepEqual(got, want):
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		return fmt.Sprintf("values differ:\n hand %s\n json %s", g, w)
	}
	return ""
}

// requestLines are hand-picked lines: the golden transcripts' requests
// and every corner of the contract.
var requestLines = []string{
	`{"id":1,"cmd":"compile","workload":"compress"}`,
	`{"id":2,"cmd":"open-session","artifact":"1c17157a9973"}`,
	`{"id":3,"cmd":"break","session":"s-0a1b2c3d","handle":"00112233445566778899aabbccddeeff","func":"compress","stmt":6}`,
	`{"id":4,"cmd":"break","session":"s-1","line":12}`,
	`{"id":5,"cmd":"continue","session":"s-1","handle":"h"}`,
	`{"id":6,"cmd":"print","session":"s-1","var":"w"}`,
	`{"id":7,"cmd":"compile","name":"p.mc","src":"int main() {\n\tprint(\"x=\", 1, \"\\n\");\n\treturn 0;\n}","config":{"opt":"O1","regalloc":false,"sched":true}}`,
	`{"id":8,"cmd":"batch","reqs":[{"id":9,"cmd":"stats"},{"cmd":"info","session":"s-1"},null,{}]}`,
	`{"cmd":"auth","token":"t\u00e9st \ud83d\ude00 \ud800 \udc00 \ud800\u0041 \ud800\ud800\udc00"}`,
	"{\"cmd\":\"print\",\"var\":\"bad \xff\xfe utf8 \xed\xa0\x80 surrogate\"}",
	`{"ID":1,"Cmd":"stats","SESSION":"s","sEsSiOn":"last wins"}`,
	"{\"to\xe2\x84\xaaen\":\"kelvin\",\"\xc5\xbfession\":\"long s\"}",
	`{"\u0063md":"escaped key","i\u0044":3}`,
	`{"id":9223372036854775807,"cmd":"x"}`,
	`{"id":-9223372036854775808,"cmd":"x"}`,
	`{"id":9223372036854775808,"cmd":"x"}`,
	`{"id":-9223372036854775809}`,
	`{"id":1.0}`, `{"id":1e2}`, `{"id":-0}`, `{"id":01}`, `{"id":"1"}`, `{"id":true}`,
	`{"line":null,"id":null,"cmd":null,"stmt":null,"config":null,"reqs":null}`,
	`{"id":5,"id":null}`,
	`{"stmt":0}`, `{"stmt":1,"stmt":2}`, `{"stmt":1,"stmt":null}`, `{"stmt":1.5}`,
	`{"config":{}}`, `{"config":{"opt":"O0"},"config":{"sched":false}}`, `{"config":{"regalloc":null}}`,
	`{"config":{"regalloc":1}}`, `{"config":[]}`, `{"config":"O2"}`,
	`{"reqs":[]}`, `{"reqs":[{"id":1,"cmd":"a"}],"reqs":[{"cmd":"b"}]}`,
	`{"reqs":[{"id":1},{"id":2},{"id":3}],"reqs":[{"cmd":"x"}],"reqs":[{},{}]}`,
	`{"reqs":[{"reqs":[{"reqs":[{"cmd":"deep"}]}]}]}`,
	`{"reqs":[1]}`, `{"reqs":{}}`, `{"reqs":[{"id":"x"}]}`,
	`{"unknown":{"a":[1,2,{"b":null}],"c":"\u00e9"},"cmd":"stats","x":-1.5e+10}`,
	`{"unknown":[1,]}`, `{"unknown":tru}`, `{"unknown":"\x"}`, `{"unknown":"\u12"}`,
	`null`, ` null `, `  {"cmd":"stats"}  `, "\t{\"cmd\":\"stats\"}\r",
	``, ` `, `{`, `}`, `{"cmd"}`, `{"cmd":}`, `{"cmd":"a",}`, `{,"cmd":"a"}`, `{"cmd":"a"}}`, `{"cmd":"a"} x`,
	`[]`, `"cmd"`, `1`, `true`, `nul`, `nullx`, "{\"cmd\":\"a\x01\"}", "{\"cmd\x00\":1}",
	`this is not json`,
	`{"a":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	`{"a":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
	strings.Repeat(`{"reqs":[`, maxDepth/2) + strings.Repeat(`]}`, maxDepth/2),
	strings.Repeat(`{"reqs":[`, maxDepth/2) + `{}` + strings.Repeat(`]}`, maxDepth/2),
}

func TestDecodeRequestMatchesJSON(t *testing.T) {
	for _, line := range requestLines {
		if d := diffRequest([]byte(line)); d != "" {
			t.Errorf("%.200q: %s", line, d)
		}
	}
}

// responseLines are response-shaped corners; the encoder corpus adds
// every wire shape the daemon produces.
var responseLines = []string{
	`{"id":1,"ok":true,"stop":{"func":"main","stmt":3,"line":14},"output":"x\n"}`,
	`{"ok":false,"error":{"code":"bad-request","message":"malformed request: invalid character 'h' looking for beginning of value"}}`,
	`{"ok":true,"vars":[{"name":"s","state":"noncurrent","display":"s = {...}","fields":[{"name":"s.a","state":"current","display":"s.a = 1"}]}]}`,
	`{"ok":true,"vars":[]}`, `{"ok":true,"vars":null}`, `{"ok":true,"vars":[null]}`,
	`{"ok":true,"vars":[{"name":"a"},{"name":"b"}],"vars":[{"state":"s"}],"vars":[{},{"fields":[]}]}`,
	`{"ok":true,"stats":{"requests":5,"spill_degraded":true},"stats":{"panics":1}}`,
	`{"ok":true,"stats":null}`, `{"ok":true,"stats":{"requests":"x"}}`, `{"ok":true,"stats":[]}`,
	`{"ok":true,"coverage":{"pairs":3,"current_pct":"1.00","funcs":[{"func":"f","pairs":3}]}}`,
	`{"ok":true,"coverage":{"funcs":[{"func":1}]}}`,
	`{"ok":true,"results":[{"id":2,"ok":true},{"ok":false,"error":{"code":"c"}}],"results":[{"exited":true}]}`,
	`{"ok":1}`, `{"ok":null,"ok":true}`, `{"funcs":2147483648,"compile_ms":-1}`, `{"funcs":1e1}`,
	`{"OK":true,"Cached":true,"FUNCS_compiled":3,"funcs_REUSED":4,"Compile_Ms":5}`,
	`{"error":null}`, `{"error":{"code":"a"},"error":{"message":"b"}}`, `{"stop":{}}`, `{"stop":{"stmt":"1"}}`,
	`null`, `[]`, ``,
}

func TestDecodeResponseMatchesJSON(t *testing.T) {
	for _, line := range responseLines {
		if d := diffResponse([]byte(line)); d != "" {
			t.Errorf("%.200q: %s", line, d)
		}
	}
	for _, r := range encodeCorpus() {
		line := appendResponse(nil, r)
		if d := diffResponse(line); d != "" {
			t.Errorf("%.200q: %s", line, d)
		}
	}
}

// TestDecodeRandomMatchesJSON runs both decoders over generated lines:
// schema-shaped objects with keys in random case and spelling, values of
// the right and wrong kinds, repeated keys and nulls, then byte-level
// mutations that make most of them malformed.
func TestDecodeRandomMatchesJSON(t *testing.T) {
	g := &lineGen{r: rand.New(rand.NewSource(13))}
	for i := 0; i < 20000; i++ {
		line := g.line("request")
		if d := diffRequest(line); d != "" {
			t.Fatalf("request %.300q: %s", line, d)
		}
		line = g.line("response")
		if d := diffResponse(line); d != "" {
			t.Fatalf("response %.300q: %s", line, d)
		}
	}
}

// lineGen generates JSON lines shaped like the protocol's schemas.
type lineGen struct{ r *rand.Rand }

// schemas maps each object shape to its fields' kinds: str, int, bool,
// obj:<shape> or arr:<shape>.
var schemas = map[string]map[string]string{
	"request": {"id": "int", "cmd": "str", "token": "str", "name": "str", "src": "str",
		"workload": "str", "config": "obj:config", "artifact": "str", "session": "str",
		"handle": "str", "func": "str", "stmt": "int", "line": "int", "var": "str",
		"reqs": "arr:request"},
	"config": {"opt": "str", "regalloc": "bool", "sched": "bool"},
	"response": {"id": "int", "ok": "bool", "error": "obj:error", "artifact": "str",
		"cached": "bool", "funcs": "int", "funcs_compiled": "int", "funcs_reused": "int",
		"compile_ms": "int", "session": "str", "handle": "str", "stop": "obj:stop",
		"exited": "bool", "output": "str", "vars": "arr:var", "stats": "obj:stats",
		"coverage": "obj:coverage", "results": "arr:response"},
	"error":    {"code": "str", "message": "str"},
	"stop":     {"func": "str", "stmt": "int", "line": "int"},
	"var":      {"name": "str", "state": "str", "display": "str", "fields": "arr:var"},
	"stats":    {"requests": "int", "spill_degraded": "bool", "cache_entries": "int"},
	"coverage": {"pairs": "int", "current_pct": "str", "funcs": "arr:funccov"},
	"funccov":  {"func": "str", "pairs": "int"},
	"unknown":  {},
}

var kinds = []string{"str", "int", "bool", "obj:unknown", "arr:unknown", "obj:stop", "arr:var"}

func (g *lineGen) line(shape string) []byte {
	var b []byte
	if g.r.Intn(4) == 0 {
		b = append(b, " \t"[g.r.Intn(2)])
	}
	switch g.r.Intn(40) {
	case 0:
		b = append(b, "null"...)
	case 1:
		b = g.value(b, kinds[g.r.Intn(len(kinds))], 3)
	default:
		b = g.object(b, shape, 0)
	}
	if g.r.Intn(3) == 0 {
		b = g.mutate(b)
	}
	return b
}

func (g *lineGen) object(b []byte, shape string, depth int) []byte {
	fields := schemas[shape]
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	// Map order is random; sort for a reproducible stream.
	sort.Strings(keys)
	b = append(b, '{')
	n := g.r.Intn(7)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		key, kind := "unknown_"+string(rune('a'+g.r.Intn(3))), kinds[g.r.Intn(len(kinds))]
		if len(keys) > 0 && g.r.Intn(6) != 0 {
			key = keys[g.r.Intn(len(keys))]
			kind = fields[key]
			if g.r.Intn(12) == 0 {
				kind = kinds[g.r.Intn(len(kinds))]
			}
		}
		b = g.key(b, key)
		b = append(b, ':')
		b = g.value(b, kind, depth+1)
	}
	return append(b, '}')
}

// key spells a field name the many ways encoding/json matches it.
func (g *lineGen) key(b []byte, k string) []byte {
	b = append(b, '"')
	for i := 0; i < len(k); i++ {
		c := k[i]
		switch g.r.Intn(12) {
		case 0:
			c = bytes.ToUpper([]byte{c})[0]
		case 1:
			b = fmt.Appendf(b, `\u%04x`, c)
			continue
		case 2:
			if c == 'k' {
				b = append(b, "\u212a"...) // Kelvin sign
				continue
			}
			if c == 's' {
				b = append(b, "\u017f"...) // long s
				continue
			}
		}
		b = append(b, c)
	}
	return append(b, '"')
}

var strPieces = []string{"", "a", "continue", "s-0a1b2c3d", " ", "\\n", "\\\"", "\\\\", "\\/", "\\b\\f\\r\\t",
	"\\u00e9", "\\ud83d\\ude00", "\\ud800", "\\udc00", "\\ud800\\u0041", "\\ud800\\ud800\\udc00",
	"\u00e9", "\u4e16", "\U0001f600", "\xff", "\xed\xa0\x80", "\xc3", "<&>", "\u2028", "\x7f"}

var numbers = []string{"0", "-0", "7", "-7", "42", "2147483648", "9223372036854775807",
	"9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"1.5", "1e3", "1E+2", "-0.0", "12345678901234567890"}

func (g *lineGen) value(b []byte, kind string, depth int) []byte {
	if g.r.Intn(10) == 0 {
		return append(b, "null"...)
	}
	switch {
	case kind == "str":
		b = append(b, '"')
		for n := g.r.Intn(4); n > 0; n-- {
			b = append(b, strPieces[g.r.Intn(len(strPieces))]...)
		}
		return append(b, '"')
	case kind == "int":
		return append(b, numbers[g.r.Intn(len(numbers))]...)
	case kind == "bool":
		return append(b, []string{"true", "false"}[g.r.Intn(2)]...)
	case depth > 4:
		return append(b, "{}"...)
	case strings.HasPrefix(kind, "obj:"):
		return g.object(b, kind[4:], depth)
	}
	b = append(b, '[')
	for i, n := 0, g.r.Intn(4); i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = g.object(b, kind[4:], depth+1)
	}
	return append(b, ']')
}

// mutate deletes, inserts or duplicates bytes.
func (g *lineGen) mutate(b []byte) []byte {
	const noise = "{}[]\":,\\ nulltrue-0.5e\x00\xff"
	for n := 1 + g.r.Intn(2); n > 0 && len(b) > 0; n-- {
		i := g.r.Intn(len(b))
		switch g.r.Intn(3) {
		case 0:
			b = append(b[:i], b[i+1:]...)
		case 1:
			b = append(b[:i], append([]byte{noise[g.r.Intn(len(noise))]}, b[i:]...)...)
		default:
			j := i + g.r.Intn(len(b)-i)
			b = append(b[:j], append(append([]byte(nil), b[i:j]...), b[j:]...)...)
		}
	}
	return b
}

// TestMalformedLineText: Serve answers a line the decoder rejects with
// encoding/json's error text, as it always has.
func TestMalformedLineText(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	for _, line := range []string{`this is not json`, `{"id":"1","cmd":"stats"}`, `{"cmd":"a",}`,
		`[1]`, `{"id":1e400}`, "{\"cmd\":\"\x01\"}", `{"reqs":[{"stmt":true}]}`} {
		var out bytes.Buffer
		if err := s.Serve(strings.NewReader(line+"\n"), &out); err != nil {
			t.Fatal(err)
		}
		werr := json.Unmarshal([]byte(line), new(Request))
		if werr == nil {
			t.Fatalf("%q: encoding/json accepts it", line)
		}
		want := string(appendResponse(nil, errResp(0, CodeBadRequest, "malformed request: "+werr.Error()))) + "\n"
		if out.String() != want {
			t.Errorf("%q:\n got %s want %s", line, out.String(), want)
		}
	}
}

// requestCorpus covers every Request field, the omitempty rules and the
// string escaper.
func requestCorpus() []*Request {
	zero, seven := 0, 7
	yes, no := true, false
	return []*Request{
		{},
		{ID: 1, Cmd: "stats"},
		{ID: -3, Cmd: "auth", Token: "t<o>k&n"},
		{ID: 2, Cmd: "compile", Name: "p.mc", Src: "int main() {\n\tprint(\"\\x\", 1);\n}\x00\xff\u2028", Workload: "gcc"},
		{Cmd: "compile", Config: &ConfigSpec{}},
		{Cmd: "compile", Config: &ConfigSpec{Opt: "O1"}},
		{Cmd: "compile", Config: &ConfigSpec{RegAlloc: &no}},
		{Cmd: "compile", Config: &ConfigSpec{Sched: &yes}},
		{Cmd: "compile", Config: &ConfigSpec{Opt: "O0", RegAlloc: &yes, Sched: &no}},
		{ID: 4, Cmd: "open-session", Artifact: "1c17157a9973"},
		{ID: 5, Cmd: "break", Session: "s-1", Handle: "h\u00e9", Func: "f", Stmt: &zero},
		{ID: 6, Cmd: "break", Session: "s-1", Stmt: &seven, Line: -12},
		{ID: 7, Cmd: "print", Var: "a.b"},
		{ID: 8, Cmd: "batch", Reqs: []Request{}},
		{ID: 9, Cmd: "batch", Reqs: []Request{{ID: 10, Cmd: "stats"}, {}, {Cmd: "batch", Reqs: []Request{{Cmd: "x"}}}}},
	}
}

// TestAppendRequestMatchesJSON: AppendRequest writes exactly what
// json.Encoder wrote for the client before it.
func TestAppendRequestMatchesJSON(t *testing.T) {
	reqs := requestCorpus()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		var sb strings.Builder
		for n := r.Intn(6); n > 0; n-- {
			sb.WriteString(strPieces[r.Intn(len(strPieces))])
		}
		reqs = append(reqs, &Request{ID: r.Int63() - r.Int63(), Cmd: sb.String(), Src: sb.String() + "\x1f"})
	}
	for _, req := range reqs {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(req); err != nil {
			t.Fatal(err)
		}
		got := append(AppendRequest(nil, req), '\n')
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("AppendRequest(%+v)\n got %s\nwant %s", req, got, want.Bytes())
		}
	}
}

// TestCodecAllocs pins the serving path's allocation budget: a session
// command decodes with one allocation per string it carries, and a
// request encodes into a reused buffer with none.
func TestCodecAllocs(t *testing.T) {
	line := []byte(`{"id":7,"cmd":"continue","session":"s-0a1b2c3d","handle":"00112233445566778899aabbccddeeff"}`)
	var req Request
	if n := testing.AllocsPerRun(200, func() {
		req = Request{}
		if err := decodeRequest(line, &req); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("decodeRequest of a session command: %.1f allocs, want at most 3 (its strings)", n)
	}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendRequest(buf[:0], &req)
	}); n != 0 {
		t.Errorf("AppendRequest into a reused buffer: %.1f allocs, want 0", n)
	}
}

// FuzzDecodeRequest holds decodeRequest to encoding/json on arbitrary
// lines. The seed corpus is testdata/fuzz/FuzzDecodeRequest.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		if d := diffRequest(line); d != "" {
			t.Fatal(d)
		}
	})
}

// FuzzDecodeResponse holds DecodeResponse to encoding/json on arbitrary
// lines. The seed corpus is testdata/fuzz/FuzzDecodeResponse.
func FuzzDecodeResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		if d := diffResponse(line); d != "" {
			t.Fatal(d)
		}
	})
}

// FuzzServeLine: whatever one line holds, the connection answers it with
// exactly one well-formed response line (none for an empty line, which
// Serve skips) and then still serves the next request.
func FuzzServeLine(f *testing.F) {
	s := New(Options{StepBudget: 1_000_000, OutputLimit: 1 << 16})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, line []byte) {
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		in := string(line) + "\n" + `{"id":424242,"cmd":"stats"}` + "\n"
		var out bytes.Buffer
		if err := s.Serve(strings.NewReader(in), &out); err != nil {
			t.Fatal(err)
		}
		var lines []string
		sc := bufio.NewScanner(&out)
		sc.Buffer(nil, MaxLine)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		want := 2
		if len(bytes.TrimSuffix(line, []byte("\r"))) == 0 {
			want = 1
		}
		if len(lines) != want {
			t.Fatalf("%d response lines, want %d: %q", len(lines), want, lines)
		}
		for _, l := range lines {
			if !json.Valid([]byte(l)) {
				t.Fatalf("response is not JSON: %q", l)
			}
		}
		var last Response
		if err := DecodeResponse([]byte(lines[len(lines)-1]), &last); err != nil || last.ID != 424242 || !last.OK || last.Stats == nil {
			t.Fatalf("the next request was not served: %q (%v)", lines[len(lines)-1], err)
		}
	})
}

// infoReply is a 6-variable info response, the inspect loop's commonest
// reply.
func infoReply() []byte {
	r := &Response{ID: 4242, OK: true}
	for i, st := range []string{"current", "noncurrent", "current", "nonresident", "suspect", "current"} {
		name := fmt.Sprintf("v%d", i)
		r.Vars = append(r.Vars, VarInfo{Name: name, State: st, Display: name + " = 12345 (WARNING: may be stale)"})
	}
	return appendResponse(nil, r)
}

func BenchmarkDecodeRequest(b *testing.B) {
	line := []byte(`{"id":7,"cmd":"continue","session":"s-0a1b2c3d","handle":"00112233445566778899aabbccddeeff"}`)
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Request
			if err := json.Unmarshal(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Request
			if err := decodeRequest(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeResponse(b *testing.B) {
	line := infoReply()
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Response
			if err := json.Unmarshal(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Response
			if err := DecodeResponse(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
