package artstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/mach"
)

func srcFor(i int) (string, string) {
	name := fmt.Sprintf("p%d.mc", i)
	src := fmt.Sprintf(`
int main() {
	int s = %d;
	int i;
	for (i = 0; i < %d; i++) { s += i; }
	print(s);
	return s;
}
`, i, 5+i)
	return name, src
}

func TestGetCompilesOnceAndCoalescesAnalyses(t *testing.T) {
	st := New(Config{})
	name, src := srcFor(1)
	a1, hit, err := st.Get(name, src, compile.O2())
	if err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}
	a2, hit, err := st.Get(name, src, compile.O2())
	if err != nil || !hit {
		t.Fatalf("second get: hit=%v err=%v", hit, err)
	}
	if a1 != a2 {
		t.Fatal("hit returned a different artifact")
	}
	if a1.ID() == "" || a1.ID() != compile.KeyOf(name, src, compile.O2()).ID() {
		t.Fatalf("artifact id %q", a1.ID())
	}
}

func TestAnalysesChargeTheArtifactBudget(t *testing.T) {
	st := New(Config{MemoryBudget: 1 << 30})
	name, src := srcFor(1)
	a, _, err := st.Get(name, src, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	before := st.Stats().MemoryBytes
	a.Analyses.Of(a.Res.Mach.LookupFunc("main"))
	after := st.Stats().MemoryBytes
	if after <= before {
		t.Fatalf("analysis build did not charge the store: %d -> %d", before, after)
	}
	if got := a.Analyses.Bytes(); after-before != got {
		t.Fatalf("charged %d, analysis set reports %d", after-before, got)
	}
}

func TestMemoryBudgetEnforcedOverArtifactsAndAnalyses(t *testing.T) {
	// A budget far below the combined cost of the artifacts forces
	// evictions; the accounted bytes must never exceed the budget, even
	// as lazily built analyses add charges after admission.
	const budget = 64 << 10
	st := New(Config{MemoryBudget: budget})
	for i := 0; i < 12; i++ {
		name, src := srcFor(i)
		a, _, err := st.Get(name, src, compile.O2())
		if err != nil {
			t.Fatal(err)
		}
		a.Analyses.Of(a.Res.Mach.LookupFunc("main"))
		if got := st.Stats().MemoryBytes; got > budget {
			t.Fatalf("accounted bytes %d exceed budget %d", got, budget)
		}
	}
	if st.Stats().Evictions == 0 {
		t.Fatal("no evictions under budget pressure")
	}
}

func TestSpillReloadIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st := New(Config{SpillDir: dir})
	name, src := srcFor(3)
	orig, _, err := st.Get(name, src, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	want := orig.Res.Mach.String()
	st.Flush()

	restarted := New(Config{SpillDir: dir})
	got, hit, err := restarted.Get(name, src, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("restart did not keep the warm set")
	}
	if s := restarted.Stats(); s.SpillHits != 1 {
		t.Fatalf("stats after restart = %+v", s)
	}
	if got.Res.Mach.String() != want {
		t.Fatal("rehydrated machine code differs from original")
	}
	// Rehydrated analyses rebuild and charge the restarted store.
	got.Analyses.Of(got.Res.Mach.LookupFunc("main"))
	if restarted.Stats().MemoryBytes <= got.Res.SizeBytes() {
		t.Fatal("rebuilt analyses not charged after rehydration")
	}
}

func TestLookupFindsSpilledArtifacts(t *testing.T) {
	dir := t.TempDir()
	st := New(Config{SpillDir: dir})
	name, src := srcFor(4)
	a, _, err := st.Get(name, src, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	id := a.ID()
	if got, ok := st.Lookup(id); !ok || got != a {
		t.Fatal("memory Lookup failed")
	}
	st.Flush()

	restarted := New(Config{SpillDir: dir})
	got, ok := restarted.Lookup(id)
	if !ok {
		t.Fatal("disk Lookup failed after restart")
	}
	if got.Res.Mach.String() != a.Res.Mach.String() {
		t.Fatal("disk Lookup returned different machine code")
	}
	if _, ok := restarted.Lookup("ffffffffffff"); ok {
		t.Fatal("Lookup of unknown handle succeeded")
	}
}

func TestEvictedArtifactAnalysisChargeIsDropped(t *testing.T) {
	st := New(Config{MaxArtifacts: 1})
	nameA, srcA := srcFor(1)
	a, _, err := st.Get(nameA, srcA, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	nameB, srcB := srcFor(2)
	b, _, err := st.Get(nameB, srcB, compile.O2()) // evicts a
	if err != nil {
		t.Fatal(err)
	}
	accounted := st.Stats().MemoryBytes
	// Building the evicted artifact's analyses must not charge the store:
	// its memory left the accounted set with the eviction. The artifact
	// itself keeps working (sessions holding it are unaffected).
	an := a.Analyses.Of(a.Res.Mach.LookupFunc("main"))
	if an == nil {
		t.Fatal("evicted artifact's analysis unusable")
	}
	if got := st.Stats().MemoryBytes; got != accounted {
		t.Fatalf("orphan analysis charged the store: %d -> %d", accounted, got)
	}
	// The resident artifact still charges normally.
	b.Analyses.Of(b.Res.Mach.LookupFunc("main"))
	if got := st.Stats().MemoryBytes; got <= accounted {
		t.Fatal("resident artifact's analysis not charged")
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	st := New(Config{})
	for i := 0; i < 2; i++ {
		_, _, err := st.Get("bad.mc", "int main() { return undeclared; }", compile.O2())
		if err == nil {
			t.Fatal("want compile error")
		}
	}
	s := st.Stats()
	if s.Misses != 2 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCorruptSpillFileIsRecompiledAndRemoved plants a spill file whose
// image decodes to an `la` instruction without a symbol: the symbol's
// object ID is too large for the wire's object reference, so it encodes
// as a negative (nil) reference while the recorded digest still renders
// its name. Get must reject the file with an error rather than panic,
// compile from source, count one spill error and delete the file, so a
// new store on the same directory is not wedged by it.
func TestCorruptSpillFileIsRecompiledAndRemoved(t *testing.T) {
	const name = "g.mc"
	const src = `int g[4];
int main() {
	g[1] = 7;
	print(g[1]);
	return g[1];
}`
	dir := t.TempDir()
	st := New(Config{SpillDir: dir})
	a, _, err := st.Get(name, src, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	want := a.Res.Mach.String()
	planted := false
	for _, b := range a.Res.Mach.LookupFunc("main").Blocks {
		for _, in := range b.Instrs {
			if in.Op == mach.LA && !planted {
				in.Sym = &ast.Object{Name: in.Sym.Name, Kind: ast.ObjLocal, ID: 1 << 30}
				planted = true
			}
		}
	}
	if !planted {
		t.Fatal("main has no la instruction")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, a.ID()+".art")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spill file not written: %v", err)
	}

	for round := 0; round < 2; round++ {
		restarted := New(Config{SpillDir: dir})
		got, hit, err := restarted.Get(name, src, compile.O2())
		if err != nil {
			t.Fatal(err)
		}
		s := restarted.Stats()
		restarted.Close()
		if round == 0 {
			if hit || s.SpillErrors != 1 || s.SpillHits != 0 {
				t.Fatalf("corrupt file: hit=%v stats=%+v, want a compile and one spill error", hit, s)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt spill file still on disk: %v", err)
			}
		} else if s.SpillErrors != 0 {
			t.Fatalf("second store on the directory: stats=%+v", s)
		}
		if got.Res.Mach.String() != want {
			t.Fatal("recompiled machine code differs from the original")
		}
	}
}
