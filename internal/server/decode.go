// Hand-written decoding of the wire protocol's fixed schemas: requests
// on the daemon (decodeRequest) and responses on the client
// (DecodeResponse). It is the mirror image of the append encoders. A
// reflective encoding/json decode reflects over the struct and allocates
// on every line; this one walks the line once and allocates only the
// strings, slices and pointers the decoded value holds.
//
// The contract is equality with encoding/json.Unmarshal into the same
// type: both accept and reject the same lines, and an accepted line
// yields a reflect.DeepEqual value. That covers case-insensitive key
// matching, unknown keys (skipped, but validated), repeated keys (decoded
// again into what the first one decoded), null (sets pointers and slices
// to nil, leaves everything else untouched, including at the top level),
// string escapes (surrogate pairs; a lone surrogate or invalid UTF-8
// becomes U+FFFD), integers that must parse exactly and fit, and the
// 10000-level nesting limit. A rejected line's error is encoding/json's
// own, so error text on the wire is unchanged. The differential tests and
// fuzz targets in decode_test.go hold the two equal.
package server

import (
	"encoding/json"
	"errors"
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
)

// maxDepth is encoding/json's nesting limit: a document nesting arrays
// and objects deeper than this is malformed.
const maxDepth = 10000

var (
	errSyntax = errors.New("malformed JSON")
	errKind   = errors.New("JSON value of the wrong kind for its field")
)

// decodeRequest decodes one request line into r with the semantics of
// json.Unmarshal(line, r).
func decodeRequest(line []byte, r *Request) error {
	l := lexer{data: line}
	l.request(r)
	if l.end() {
		return nil
	}
	return jsonError(line, new(Request), l.err)
}

// DecodeResponse decodes one response line into r with the semantics of
// json.Unmarshal(line, r). The stats and coverage payloads, which only
// cold commands carry, are handed to encoding/json as raw values.
func DecodeResponse(line []byte, r *Response) error {
	l := lexer{data: line}
	l.response(r)
	if l.end() {
		return nil
	}
	return jsonError(line, new(Response), l.err)
}

// jsonError returns encoding/json's error for a line the hand decoder
// rejected, so callers report exactly the text they always have. Should
// encoding/json accept the line, the decoders disagree and the decoder's
// own error is returned.
func jsonError(line []byte, v any, own error) error {
	if err := json.Unmarshal(line, v); err != nil {
		return err
	}
	return own
}

func (l *lexer) request(r *Request) {
	if !l.object() {
		return
	}
	for i := 0; ; i++ {
		key, ok := l.member(i)
		if !ok {
			return
		}
		switch string(l.fold(key)) {
		case "ID":
			l.int64(&r.ID)
		case "CMD":
			l.string(&r.Cmd)
		case "TOKEN":
			l.string(&r.Token)
		case "NAME":
			l.string(&r.Name)
		case "SRC":
			l.string(&r.Src)
		case "WORKLOAD":
			l.string(&r.Workload)
		case "CONFIG":
			if c := ptr(l, &r.Config); c != nil {
				l.config(c)
			}
		case "ARTIFACT":
			l.string(&r.Artifact)
		case "SESSION":
			l.string(&r.Session)
		case "HANDLE":
			l.string(&r.Handle)
		case "FUNC":
			l.string(&r.Func)
		case "STMT":
			if p := ptr(l, &r.Stmt); p != nil {
				l.int(p)
			}
		case "LINE":
			l.int(&r.Line)
		case "VAR":
			l.string(&r.Var)
		case "REQS":
			if !array(l, &r.Reqs) {
				break
			}
			n := 0
			for ; l.elem(n); n++ {
				r.Reqs = at(r.Reqs, n)
				l.request(&r.Reqs[n])
			}
			r.Reqs = trim(r.Reqs, n)
		default:
			l.skip()
		}
	}
}

func (l *lexer) config(c *ConfigSpec) {
	if !l.object() {
		return
	}
	for i := 0; ; i++ {
		key, ok := l.member(i)
		if !ok {
			return
		}
		switch string(l.fold(key)) {
		case "OPT":
			l.string(&c.Opt)
		case "REGALLOC":
			if p := ptr(l, &c.RegAlloc); p != nil {
				l.bool(p)
			}
		case "SCHED":
			if p := ptr(l, &c.Sched); p != nil {
				l.bool(p)
			}
		default:
			l.skip()
		}
	}
}

func (l *lexer) response(r *Response) {
	if !l.object() {
		return
	}
	for i := 0; ; i++ {
		key, ok := l.member(i)
		if !ok {
			return
		}
		switch string(l.fold(key)) {
		case "ID":
			l.int64(&r.ID)
		case "OK":
			l.bool(&r.OK)
		case "ERROR":
			if e := ptr(l, &r.Error); e != nil {
				l.protoError(e)
			}
		case "ARTIFACT":
			l.string(&r.Artifact)
		case "CACHED":
			l.bool(&r.Cached)
		case "FUNCS":
			l.int(&r.Funcs)
		case "FUNCS_COMPILED":
			l.int(&r.FuncsCompiled)
		case "FUNCS_REUSED":
			l.int(&r.FuncsReused)
		case "COMPILE_MS":
			l.int64(&r.CompileMS)
		case "SESSION":
			l.string(&r.Session)
		case "HANDLE":
			l.string(&r.Handle)
		case "STOP":
			if s := ptr(l, &r.Stop); s != nil {
				l.stop(s)
			}
		case "EXITED":
			l.bool(&r.Exited)
		case "OUTPUT":
			l.string(&r.Output)
		case "VARS":
			l.vars(&r.Vars)
		case "STATS":
			l.unmarshal(&r.Stats)
		case "COVERAGE":
			l.unmarshal(&r.Coverage)
		case "RESULTS":
			if !array(l, &r.Results) {
				break
			}
			n := 0
			for ; l.elem(n); n++ {
				r.Results = at(r.Results, n)
				l.response(&r.Results[n])
			}
			r.Results = trim(r.Results, n)
		default:
			l.skip()
		}
	}
}

func (l *lexer) protoError(e *ProtoError) {
	if !l.object() {
		return
	}
	for i := 0; ; i++ {
		key, ok := l.member(i)
		if !ok {
			return
		}
		switch string(l.fold(key)) {
		case "CODE":
			l.string(&e.Code)
		case "MESSAGE":
			l.string(&e.Message)
		default:
			l.skip()
		}
	}
}

func (l *lexer) stop(s *StopInfo) {
	if !l.object() {
		return
	}
	for i := 0; ; i++ {
		key, ok := l.member(i)
		if !ok {
			return
		}
		switch string(l.fold(key)) {
		case "FUNC":
			l.string(&s.Func)
		case "STMT":
			l.int(&s.Stmt)
		case "LINE":
			l.int(&s.Line)
		default:
			l.skip()
		}
	}
}

// vars decodes a VarInfo array: a response's vars or an aggregate's
// per-field reports.
func (l *lexer) vars(dst *[]VarInfo) {
	if !array(l, dst) {
		return
	}
	n := 0
	for ; l.elem(n); n++ {
		*dst = at(*dst, n)
		l.varInfo(&(*dst)[n])
	}
	*dst = trim(*dst, n)
}

func (l *lexer) varInfo(v *VarInfo) {
	if !l.object() {
		return
	}
	for i := 0; ; i++ {
		key, ok := l.member(i)
		if !ok {
			return
		}
		switch string(l.fold(key)) {
		case "NAME":
			l.string(&v.Name)
		case "STATE":
			l.stringIn(&v.State, verdicts)
		case "DISPLAY":
			l.string(&v.Display)
		case "FIELDS":
			l.vars(&v.Fields)
		default:
			l.skip()
		}
	}
}

// lexer is a cursor over one line. Errors are sticky: the first one is
// kept, the cursor jumps to the end, and every later read fails quietly,
// so the decoders need no error plumbing.
type lexer struct {
	data  []byte
	pos   int
	depth int
	err   error
	buf   []byte   // unescaped strings that cannot alias data
	key   [48]byte // fold's result
}

func (l *lexer) fail(err error) {
	if l.err == nil {
		l.err = err
	}
	l.pos = len(l.data)
}

// ws skips whitespace and returns the next byte, 0 at the end.
func (l *lexer) ws() byte {
	for ; l.pos < len(l.data); l.pos++ {
		switch c := l.data[l.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end reports whether the line was decoded and nothing but whitespace
// follows the value.
func (l *lexer) end() bool {
	l.ws()
	if l.pos != len(l.data) {
		l.fail(errSyntax)
	}
	return l.err == nil
}

func (l *lexer) literal(lit string) {
	if len(l.data)-l.pos < len(lit) || string(l.data[l.pos:l.pos+len(lit)]) != lit {
		l.fail(errSyntax)
		return
	}
	l.pos += len(lit)
}

// null consumes a null if one comes next.
func (l *lexer) null() bool {
	if l.ws() != 'n' {
		return false
	}
	l.literal("null")
	return true
}

func (l *lexer) open() {
	l.pos++
	if l.depth++; l.depth > maxDepth {
		l.fail(errSyntax)
	}
}

// object opens an object value for a struct. A null (which leaves a
// struct untouched) and other kinds return false, the latter failing.
func (l *lexer) object() bool {
	switch l.ws() {
	case '{':
		l.open()
		return l.err == nil
	case 'n':
		l.literal("null")
		return false
	}
	l.fail(errKind)
	return false
}

// array opens an array value for the slice *dst. A null sets *dst to nil
// and, like other kinds, returns false; the latter fail.
func array[T any](l *lexer, dst *[]T) bool {
	switch l.ws() {
	case '[':
		l.open()
		return l.err == nil
	case 'n':
		l.literal("null")
		*dst = nil
		return false
	}
	l.fail(errKind)
	return false
}

// member advances to member i of the object being read and returns its
// key, positioned at the value; at the closing brace it returns false.
// The key is valid until the next string is read.
func (l *lexer) member(i int) ([]byte, bool) {
	c := l.ws()
	if c == '}' {
		l.pos++
		l.depth--
		return nil, false
	}
	if i > 0 {
		if c != ',' {
			l.fail(errSyntax)
			return nil, false
		}
		l.pos++
		c = l.ws()
	}
	if c != '"' {
		l.fail(errSyntax)
		return nil, false
	}
	key := l.str()
	if l.ws() != ':' {
		l.fail(errSyntax)
		return nil, false
	}
	l.pos++
	return key, true
}

// elem advances to element i of the array being read, reporting false at
// the closing bracket.
func (l *lexer) elem(i int) bool {
	c := l.ws()
	if c == ']' {
		l.pos++
		l.depth--
		return false
	}
	if i > 0 {
		if c != ',' {
			l.fail(errSyntax)
			return false
		}
		l.pos++
	}
	return l.err == nil
}

// at returns s able to hold element i, extended the way encoding/json
// extends a slice it decodes into: within capacity it re-exposes the
// element already there (which the new one then decodes into), beyond it
// it appends a zero element.
func at[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	if i < cap(s) {
		return s[:i+1]
	}
	var zero T
	return append(s, zero)
}

// trim ends the decode of an n-element array into s: an empty array is a
// non-nil empty slice, a shorter one truncates.
func trim[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

// ptr returns the value a pointer field decodes into, allocating it the
// way encoding/json does (a repeated key decodes into the existing one).
// A null sets the field to nil and returns nil.
func ptr[T any](l *lexer, p **T) *T {
	if l.null() {
		*p = nil
		return nil
	}
	if *p == nil {
		*p = new(T)
	}
	return *p
}

func (l *lexer) string(dst *string) { l.stringIn(dst, nil) }

// verdicts interns the state names that every variable of every reply
// repeats.
var verdicts = func() map[string]string {
	m := map[string]string{}
	for s := core.Current; s <= core.Suspect; s++ {
		m[s.String()] = s.String()
	}
	return m
}()

// stringIn decodes a string field, taking the value from names when it is
// one of them instead of allocating it.
func (l *lexer) stringIn(dst *string, names map[string]string) {
	switch l.ws() {
	case '"':
		b := l.str()
		if s, ok := names[string(b)]; ok {
			*dst = s
		} else {
			*dst = string(b)
		}
	case 'n':
		l.literal("null")
	default:
		l.fail(errKind)
	}
}

func (l *lexer) bool(dst *bool) {
	switch l.ws() {
	case 't':
		l.literal("true")
		*dst = true
	case 'f':
		l.literal("false")
		*dst = false
	case 'n':
		l.literal("null")
	default:
		l.fail(errKind)
	}
}

func (l *lexer) int64(dst *int64) {
	if v, ok := l.integer(math.MinInt64, math.MaxInt64); ok {
		*dst = v
	}
}

func (l *lexer) int(dst *int) {
	if v, ok := l.integer(math.MinInt, math.MaxInt); ok {
		*dst = int(v)
	}
}

// integer reads an integer field's value, which must lie in [lo, hi]: a
// fraction, an exponent or an out-of-range value is the wrong kind, as
// strconv.ParseInt sees it. A null reads as nothing (ok == false).
func (l *lexer) integer(lo, hi int64) (v int64, ok bool) {
	switch c := l.ws(); {
	case c == 'n':
		l.literal("null")
		return 0, false
	case c != '-' && (c < '0' || c > '9'):
		l.fail(errKind)
		return 0, false
	}
	tok := l.number()
	if l.err != nil {
		return 0, false
	}
	neg := tok[0] == '-'
	lim := uint64(hi)
	if neg {
		tok = tok[1:]
		lim = uint64(-(lo + 1)) + 1
	}
	var n uint64
	for _, c := range tok {
		d := uint64(c - '0')
		if d > 9 || n > (lim-d)/10 {
			l.fail(errKind)
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// number scans a number per the JSON grammar and returns its text.
func (l *lexer) number() []byte {
	d, i := l.data, l.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case isDigit(d, i):
		i = digits(d, i)
	default:
		l.fail(errSyntax)
		return nil
	}
	if i < len(d) && d[i] == '.' {
		if i++; !isDigit(d, i) {
			l.fail(errSyntax)
			return nil
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !isDigit(d, i) {
			l.fail(errSyntax)
			return nil
		}
		i = digits(d, i)
	}
	tok := d[l.pos:i]
	l.pos = i
	return tok
}

func isDigit(d []byte, i int) bool { return i < len(d) && '0' <= d[i] && d[i] <= '9' }

// digits returns the index after the run of digits starting at i.
func digits(d []byte, i int) int {
	for isDigit(d, i) {
		i++
	}
	return i
}

// str reads the string starting at the cursor's '"' and returns its
// unescaped bytes: a slice of the line when nothing needs unescaping,
// else l.buf. Either is valid until the next string is read.
func (l *lexer) str() []byte {
	d := l.data
	start := l.pos + 1
	for i := start; ; {
		for i < len(d) && plain[d[i]] {
			i++
		}
		switch {
		case i == len(d):
			l.fail(errSyntax)
			return nil
		case d[i] == '"':
			l.pos = i + 1
			return d[start:i]
		case d[i] < utf8.RuneSelf:
			// An escape or a raw control byte.
			return l.unescape(start, i)
		}
		r, n := utf8.DecodeRune(d[i:])
		if r == utf8.RuneError && n == 1 {
			return l.unescape(start, i)
		}
		i += n
	}
}

// plain marks the ASCII bytes a string copies through unchanged: all but
// '"', '\\' and the control bytes.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape finishes a string from data[i:], whose data[start:i] prefix
// is plain, into l.buf the way encoding/json unquotes: escapes decode,
// a valid surrogate pair combines, a lone surrogate escape and every
// byte of invalid UTF-8 become U+FFFD, and a raw control byte is
// malformed.
func (l *lexer) unescape(start, i int) []byte {
	d := l.data
	b := append(l.buf[:0], d[start:i]...)
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			l.pos = i + 1
			l.buf = b
			return b
		case c < 0x20:
			l.fail(errSyntax)
			return nil
		case c == '\\':
			if i+1 == len(d) {
				l.fail(errSyntax)
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d[i+2:])
				if r < 0 {
					l.fail(errSyntax)
					return nil
				}
				i += 4
				if utf16.IsSurrogate(r) {
					r1 := rune(-1)
					if i+3 < len(d) && d[i+2] == '\\' && d[i+3] == 'u' {
						r1 = hex4(d[i+4:])
					}
					if dec := utf16.DecodeRune(r, r1); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				l.fail(errSyntax)
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && n == 1 {
				b = utf8.AppendRune(b, r)
			} else {
				b = append(b, d[i:i+n]...)
			}
			i += n
		}
	}
	l.fail(errSyntax)
	return nil
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// skip validates and steps over one value of any kind.
func (l *lexer) skip() {
	switch c := l.ws(); {
	case c == '{':
		l.open()
		for i := 0; ; i++ {
			if _, ok := l.member(i); !ok {
				return
			}
			l.skip()
		}
	case c == '[':
		l.open()
		for i := 0; l.elem(i); i++ {
			l.skip()
		}
	case c == '"':
		l.str()
	case c == 't':
		l.literal("true")
	case c == 'f':
		l.literal("false")
	case c == 'n':
		l.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		l.number()
	default:
		l.fail(errSyntax)
	}
}

// unmarshal hands the next value to encoding/json, for the cold payloads
// the hand decoder does not spell out. v points at the field, so null,
// repeated keys and type errors behave as in a whole-line Unmarshal.
func (l *lexer) unmarshal(v any) {
	l.ws()
	start := l.pos
	l.skip()
	if l.err != nil {
		return
	}
	if err := json.Unmarshal(l.data[start:l.pos], v); err != nil {
		l.fail(err)
	}
}

// fold returns key folded the way encoding/json matches field names
// without regard to case (its foldName): ASCII letters upper-cased, any
// other rune mapped to the smallest rune of its Unicode fold set, so the
// Kelvin sign matches K and the long s matches S. The result is valid
// until the next call. A key longer than l.key cannot match any field
// (none folds to more than 14 runes), so it folds to nothing.
func (l *lexer) fold(key []byte) []byte {
	if len(key) > len(l.key) {
		return nil
	}
	b := l.key[:0]
	for i := 0; i < len(key); {
		c := key[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			b = append(b, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		b = utf8.AppendRune(b, foldRune(r))
		i += n
	}
	return b
}

// foldRune returns the smallest rune of r's Unicode fold set.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
