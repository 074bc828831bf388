package compile_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/randprog"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/digests.txt from the current compiler instead of checking it")

// digestSeeds is the number of randprog programs in the golden corpus.
const digestSeeds = 200

// digestCorpus returns the golden corpus in a fixed order: every bench
// workload, then randprog seeds 0..digestSeeds-1.
func digestCorpus() (names, srcs []string) {
	for _, name := range bench.Names {
		names = append(names, name)
		srcs = append(srcs, bench.MustSource(name))
	}
	for seed := 0; seed < digestSeeds; seed++ {
		names = append(names, fmt.Sprintf("seed%d.mc", seed))
		srcs = append(srcs, randprog.Gen(int64(seed)))
	}
	return names, srcs
}

// digestLine compiles one program and renders its golden line: sha256 of
// the spill encoding (machine code, debug tables, markers and recovery
// annotations as the disk tier stores them) and sha256 of the optimized
// IR followed by the machine code.
func digestLine(cfgName, name, src string, cfg compile.Config) string {
	res, err := compile.Compile(name, src, cfg)
	if err != nil {
		return fmt.Sprintf("%s %s error=%x", cfgName, name, sha256.Sum256([]byte(err.Error())))
	}
	spill, err := compile.EncodeSpill(cfg, res)
	if err != nil {
		return fmt.Sprintf("%s %s spill-error=%x", cfgName, name, sha256.Sum256([]byte(err.Error())))
	}
	code := sha256.Sum256([]byte(res.IR.String() + res.Mach.String()))
	return fmt.Sprintf("%s %s spill=%x code=%x", cfgName, name, sha256.Sum256(spill), code)
}

// TestGoldenDigests pins the compiler's output byte for byte across
// commits: every bench workload and randprog seed, at O2, O2NoRegAlloc and
// O0, must reproduce the digests recorded in testdata/digests.txt. A
// change that is meant to alter generated code or debug tables regenerates
// the file with -update-digests and says why; a performance change must
// leave it untouched.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest sweep skipped in -short mode")
	}
	path := filepath.Join("testdata", "digests.txt")
	names, srcs := digestCorpus()
	cfgs := []struct {
		name string
		cfg  compile.Config
	}{{"O2", compile.O2()}, {"O2NoRegAlloc", compile.O2NoRegAlloc()}, {"O0", compile.O0()}}
	var got []string
	for _, c := range cfgs {
		for i, name := range names {
			got = append(got, digestLine(c.name, name, srcs[i], c.cfg))
		}
	}
	if *updateDigests {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-digests)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden corpus has %d entries, compiled %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("digest mismatch:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d digests differ from testdata/digests.txt", bad, len(got))
	}
}
