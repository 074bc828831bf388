// Compile results are retained through internal/artstore, the system's
// one artifact-retention path. These tests hold the contract compile's
// callers rely on there: identical (name, source, Config) requests share
// one Result, the Config is part of the identity, completed entries are
// evicted least recently used first, failures are never retained, and
// concurrent requests coalesce into one pipeline run.
package compile_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/artstore"
	"repro/internal/compile"
)

// newStore returns a single-shard artifact store bounded to max artifacts.
// Whole-artifact retention is what these tests cover, so the
// per-function tier is off. It has to be: gob numbers wire types in the
// order a process first encodes them, so a function-cache encode running
// before TestGoldenDigests would renumber the types in every spill image
// that test hashes.
func newStore(max int) *artstore.Store {
	return artstore.New(artstore.Config{MaxArtifacts: max, FuncCacheBudget: -1})
}

func srcN(n int) string {
	return fmt.Sprintf(`
int main() {
	int x = %d;
	print(x);
	return x;
}
`, n)
}

func TestCacheHitReturnsSameResult(t *testing.T) {
	c := newStore(4)
	r1, hit, err := c.Get("t.mc", srcN(1), compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first compile reported as hit")
	}
	r2, hit, err := c.Get("t.mc", srcN(1), compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second compile of identical (source, Config) missed the cache")
	}
	// Pointer identity proves the pipeline (and its optimization passes)
	// did not run again.
	if r1 != r2 || r1.Res != r2.Res {
		t.Fatal("cache hit returned a different Result")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestCacheKeyIncludesConfig(t *testing.T) {
	c := newStore(4)
	if _, _, err := c.Get("t.mc", srcN(1), compile.O2()); err != nil {
		t.Fatal(err)
	}
	_, hit, err := c.Get("t.mc", srcN(1), compile.O0())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("different Config must compile separately")
	}
	if compile.KeyOf("t.mc", srcN(1), compile.O2()).ID() == compile.KeyOf("t.mc", srcN(1), compile.O0()).ID() {
		t.Fatal("artifact IDs of different configs collide")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newStore(2)
	for i := 1; i <= 2; i++ {
		if _, _, err := c.Get("t.mc", srcN(i), compile.O0()); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 becomes least recently used.
	if _, hit, _ := c.Get("t.mc", srcN(1), compile.O0()); !hit {
		t.Fatal("expected hit on entry 1")
	}
	if _, _, err := c.Get("t.mc", srcN(3), compile.O0()); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and 2 entries", st)
	}
	if _, hit, _ := c.Get("t.mc", srcN(1), compile.O0()); !hit {
		t.Fatal("recently used entry 1 was evicted")
	}
	if _, hit, _ := c.Get("t.mc", srcN(2), compile.O0()); hit {
		t.Fatal("LRU entry 2 should have been evicted")
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := newStore(4)
	bad := "int main() { return undeclared; }"
	for i := 0; i < 2; i++ {
		if _, _, err := c.Get("bad.mc", bad, compile.O0()); err == nil {
			t.Fatal("compile of invalid program succeeded")
		}
	}
	st := c.Stats()
	if st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 2 misses and no resident entries", st)
	}
}

func TestCacheCoalescesConcurrentCompiles(t *testing.T) {
	c := newStore(4)
	const n = 16
	results := make([]*artstore.Artifact, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _, err := c.Get("t.mc", srcN(7), compile.O2())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d concurrent requests ran the pipeline %d times, want 1", n, st.Misses)
	}
	if st.Hits != n-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, n-1)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("coalesced requests received different Results")
		}
	}
}
