package oracle

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/coverage"
	"repro/internal/opt"
	"repro/internal/randprog"
)

// PassVariants returns the per-pass coverage configurations: the full O2
// pipeline, bench.PassesOff's one variant per disabled optimization, the
// regalloc/scheduling axes of the paper's Figure 5, and O0 as the
// all-current floor. Sweeping coverage under each shows which
// transformation each bucket's mass comes from — e.g. disabling DCE
// should collapse most of the recovered bucket back into current, while
// disabling regalloc removes residence endangerment.
func PassVariants() []bench.PassVariant {
	vs := append([]bench.PassVariant{{Name: "O2", Config: compile.O2()}}, bench.PassesOff()...)
	return append(vs,
		bench.PassVariant{Name: "-regalloc", Config: compile.Config{Opt: opt.O2(), RegAlloc: false, Sched: true}},
		bench.PassVariant{Name: "-sched", Config: compile.Config{Opt: opt.O2(), RegAlloc: true, Sched: false}},
		bench.PassVariant{Name: "O0", Config: compile.O0()},
	)
}

// PassCoverage aggregates corpus coverage under every pass variant: one
// table row per variant, summed over the randprog seeds. The sweep is
// deterministic (same seeds, same rows, byte for byte through
// coverage.FormatTable).
func PassCoverage(seeds []int64) ([]coverage.Row, error) {
	var rows []coverage.Row
	for _, v := range PassVariants() {
		var total coverage.Counts
		for _, seed := range seeds {
			a, err := artifactFor(fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed), v.Config)
			if err != nil {
				return nil, fmt.Errorf("seed %d under %s: %w", seed, v.Name, err)
			}
			total.Add(a.Coverage().Total)
		}
		rows = append(rows, coverage.Row{Label: v.Name, Counts: total})
	}
	return rows, nil
}

// WorkloadCoverage sweeps the bench workloads under the oracle's
// standard configurations, one row per workload/config pair plus a
// summed total row per config.
func WorkloadCoverage() ([]coverage.Row, error) {
	cfgs := []struct {
		name string
		cfg  compile.Config
	}{
		{"O0", compile.O0()},
		{"O2", compile.O2()},
		{"O2NoRegAlloc", compile.O2NoRegAlloc()},
	}
	var rows []coverage.Row
	totals := make([]coverage.Counts, len(cfgs))
	for _, name := range bench.Names {
		src, err := bench.Source(name)
		if err != nil {
			return nil, err
		}
		for i, c := range cfgs {
			a, err := artifactFor(name+".mc", src, c.cfg)
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", name, c.name, err)
			}
			t := a.Coverage().Total
			totals[i].Add(t)
			rows = append(rows, coverage.Row{Label: name + "/" + c.name, Counts: t})
		}
	}
	for i, c := range cfgs {
		rows = append(rows, coverage.Row{Label: "total/" + c.name, Counts: totals[i]})
	}
	return rows, nil
}
