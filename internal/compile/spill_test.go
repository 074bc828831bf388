package compile_test

// Round-trip tests for the disk-tier artifact codec: every evaluation
// workload, under each measured configuration, must decode to machine
// code whose canonical rendering is byte-identical to the original.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
)

var spillConfigs = map[string]compile.Config{
	"O0":           compile.O0(),
	"O2":           compile.O2(),
	"O2NoRegAlloc": compile.O2NoRegAlloc(),
}

func TestSpillRoundTripWorkloads(t *testing.T) {
	for _, name := range bench.Names {
		src := bench.MustSource(name)
		for cfgName, cfg := range spillConfigs {
			t.Run(name+"/"+cfgName, func(t *testing.T) {
				roundTrip(t, name+".mc", src, cfg)
			})
		}
	}
}

func TestSpillRoundTripFeatures(t *testing.T) {
	// Small programs exercising wire-format corners: global arrays and
	// scalars with initializers, float formatting, recovery annotations
	// from strength reduction, multi-function programs.
	progs := map[string]string{
		"globals": `
int g = 7;
int a[8];
float pi = 3.5;
int main() {
	int i;
	for (i = 0; i < 8; i++) { a[i] = g + i; }
	print(a[3]);
	print(pi);
	return a[7];
}
`,
		"strength": `
int a[32];
int main() {
	int i;
	for (i = 0; i < 32; i++) { a[i] = i * 3; }
	return a[31];
}
`,
		"calls": `
int add(int x, int y) { return x + y; }
int twice(int x) { return add(x, x); }
int main() {
	print(twice(21));
	return twice(21);
}
`,
	}
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			roundTrip(t, name+".mc", src, compile.O2())
		})
	}
}

func roundTrip(t *testing.T, name, src string, cfg compile.Config) {
	t.Helper()
	res, err := compile.Compile(name, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := compile.EncodeSpill(cfg, res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, gotName, gotSrc, gotCfg, err := compile.DecodeSpill(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotName != name || gotSrc != src || gotCfg != cfg {
		t.Fatalf("identity mismatch: (%q, %d source bytes, %+v)", gotName, len(gotSrc), gotCfg)
	}
	want, gotStr := res.Mach.String(), got.Mach.String()
	if want != gotStr {
		t.Fatalf("machine code not byte-identical after round trip:\n--- original ---\n%s\n--- decoded ---\n%s", want, gotStr)
	}
	if got.File == nil || got.Sem == nil {
		t.Fatal("decoded result missing front-end levels")
	}
	if got.IR != nil {
		t.Fatal("decoded result should not carry optimized IR")
	}
	// Identity invariants the debugger relies on: instruction object tags
	// must point into the replayed front end's object graph.
	for _, f := range got.Mach.Funcs {
		decl := got.Sem.File.LookupFunc(f.Name)
		if f.Decl != decl {
			t.Fatalf("%s: Decl not resolved into replayed AST", f.Name)
		}
	}
}

func TestSpillRejectsCorruptData(t *testing.T) {
	res, err := compile.Compile("t.mc", "int main() { return 4; }", compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	data, err := compile.EncodeSpill(compile.O2(), res)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := compile.DecodeSpill(data[:len(data)/2]); err == nil {
		t.Error("truncated record decoded")
	}
	if _, _, _, _, err := compile.DecodeSpill([]byte("not a gob stream")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestSpillDigestGuardsMachineCode(t *testing.T) {
	// A record whose embedded digest does not match its machine code must
	// be rejected, not served: flipping bytes in the encoded stream either
	// fails gob decoding or trips the digest / replay checks.
	res, err := compile.Compile("t.mc", "int main() { int x = 3; return x + 1; }", compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	data, err := compile.EncodeSpill(compile.O2(), res)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for i := 0; i < len(data); i += 7 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, _, _, _, err := compile.DecodeSpill(mut); err != nil {
			rejected++
		}
	}
	// Most single-byte flips must be caught; a flip inside the source
	// text changes the identity (and is legitimately decodable), so we
	// only require that structural corruption is detected at all.
	if rejected == 0 {
		t.Error("no corruption detected across byte flips")
	}
}

func TestResultSizeBytes(t *testing.T) {
	res, err := compile.Compile("t.mc", bench.MustSource("compress"), compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	n := res.SizeBytes()
	if n <= 0 {
		t.Fatalf("SizeBytes = %d", n)
	}
	// The estimate must at least cover the retained source text and grow
	// with program size.
	if n < int64(len(res.File.Content)) {
		t.Fatalf("SizeBytes %d smaller than source text %d", n, len(res.File.Content))
	}
	small, err := compile.Compile("s.mc", "int main() { return 0; }", compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	if small.SizeBytes() >= n {
		t.Fatalf("small program (%d) not smaller than compress (%d)", small.SizeBytes(), n)
	}
	if !strings.Contains(res.Mach.String(), "compress") {
		t.Fatal("sanity: compress not in rendering")
	}
}

// TestSpillDecodeNeverPanicsOnMutations changes 1 to 3 random bytes of a
// real spill image 2000 times under a fixed seed. DecodeSpill must return
// an error or a Result whose machine code renders exactly like the
// original, and never panic: a panic here escapes the store's disk tier
// and leaves the corrupt file in place.
func TestSpillDecodeNeverPanicsOnMutations(t *testing.T) {
	res, err := compile.Compile("compress.mc", bench.MustSource("compress"), compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	data, err := compile.EncodeSpill(compile.O2(), res)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Mach.String()
	r := rand.New(rand.NewSource(1))
	rejected := 0
	for i := 0; i < 2000; i++ {
		mut := append([]byte(nil), data...)
		for n := 1 + r.Intn(3); n > 0; n-- {
			mut[r.Intn(len(mut))] = byte(r.Intn(256))
		}
		got, err := decodeNoPanic(t, mut)
		if err != nil {
			rejected++
			continue
		}
		if got.Mach.String() != want {
			t.Fatalf("mutation %d decoded to different machine code", i)
		}
	}
	if rejected == 0 {
		t.Fatal("no mutation was rejected")
	}
}

// decodeNoPanic runs DecodeSpill, failing the test if it panics.
func decodeNoPanic(t *testing.T, data []byte) (res *compile.Result, err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("DecodeSpill panicked: %v", p)
		}
	}()
	res, _, _, _, err = compile.DecodeSpill(data)
	return res, err
}

// FuzzDecodeSpill: DecodeSpill never panics, whatever the bytes, and an
// image it accepts re-encodes to one that decodes to the same machine
// code. The seed corpus (testdata/fuzz/FuzzDecodeSpill) holds the images
// of a small program with a global, a call, a print and eliminated dead
// code at O0, O2 and O2 without register allocation: small images keep
// each execution fast.
func FuzzDecodeSpill(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		res, _, _, cfg, err := compile.DecodeSpill(data)
		if err != nil {
			return
		}
		again, err := compile.EncodeSpill(cfg, res)
		if err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		back, _, _, _, err := compile.DecodeSpill(again)
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if back.Mach.String() != res.Mach.String() {
			t.Fatal("re-encoded image decodes to different machine code")
		}
	})
}
