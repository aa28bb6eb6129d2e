package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// row builds a measurement whose whole run took ops*ns nanoseconds.
func row(name string, ops int, ns float64) bench.Measurement {
	return bench.Measurement{Name: name, Ops: ops, NsPerOp: ns}
}

func TestEvaluate(t *testing.T) {
	speedup := gate{name: "g", num: "fast", den: "slow", max: 1 / 1.5}
	withCPUs := speedup
	withCPUs.minCPUs = 4
	withFloor := speedup
	withFloor.minElapsed = 10 * time.Millisecond
	byOps := gate{name: "g", num: "merged", den: "unmerged", max: 0.5, byOps: true}

	// 1000 ops at 20µs: a 20ms den run, above withFloor's 10ms floor.
	pass := []bench.Measurement{row("fast", 1000, 10_000), row("slow", 1000, 20_000)}
	breach := []bench.Measurement{row("fast", 1000, 15_000), row("slow", 1000, 20_000)}
	brief := []bench.Measurement{row("fast", 10, 15_000), row("slow", 10, 20_000)}

	for _, tc := range []struct {
		name          string
		g             gate
		numCPU, procs int
		rows          []bench.Measurement
		failures      int
		want          string
	}{
		{"pass", speedup, 2, 2, pass, 0, "ok"},
		{"breach", speedup, 2, 2, breach, 1, "FAIL (fast / slow)"},
		{"missing row", speedup, 2, 2, breach[1:], 1, "missing"},
		{"den zero", speedup, 2, 2, []bench.Measurement{row("fast", 1000, 10), row("slow", 1000, 0)}, 1, "den <= 0"},
		{"missing row below minCPUs", withCPUs, 2, 2, breach[:1], 1, "missing"},
		{"below minCPUs", withCPUs, 2, 2, breach, 0, "not gated: 2 CPUs < 4"},
		{"GOMAXPROCS below minCPUs", withCPUs, 8, 1, breach, 0, "not gated: 1 CPUs < 4"},
		{"minCPUs met", withCPUs, 4, 4, breach, 1, "FAIL"},
		{"below minElapsed", withFloor, 2, 2, brief, 1, "FAIL: slow ran 200µs < 10ms"},
		{"below minElapsed and minCPUs", gate{name: "g", num: "fast", den: "slow", max: 1 / 1.5,
			minCPUs: 4, minElapsed: 10 * time.Millisecond}, 2, 2, brief, 0, "not gated: 2 CPUs < 4"},
		{"minElapsed met", withFloor, 2, 2, breach, 1, "FAIL"},
		// The ns/op ratio is 3x; only the Ops ratio counts.
		{"byOps pass", byOps, 2, 2,
			[]bench.Measurement{row("merged", 20, 900), row("unmerged", 100, 300)}, 0, "ok"},
		{"byOps breach", byOps, 2, 2,
			[]bench.Measurement{row("merged", 60, 100), row("unmerged", 100, 300)}, 1, "FAIL"},
		{"byOps den zero", byOps, 2, 2,
			[]bench.Measurement{row("merged", 60, 100), row("unmerged", 0, 300)}, 1, "den <= 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := &bench.RegressionReport{NumCPU: tc.numCPU, GoMaxProcs: tc.procs, Results: tc.rows}
			var out strings.Builder
			if got := evaluate(&out, rep, []gate{tc.g}); got != tc.failures {
				t.Errorf("failures = %d, want %d; output:\n%s", got, tc.failures, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output %q does not contain %q", out.String(), tc.want)
			}
		})
	}
}

// TestGateTableReadsDocumentedRows pins the gate table to the rows
// bench.RegressionSuite documents: every num/den is a documented row,
// and every documented row is read by some gate.
func TestGateTableReadsDocumentedRows(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../../internal/bench/regression.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "RegressionSuite" || fn.Doc == nil {
			continue
		}
		for _, line := range strings.Split(fn.Doc.Text(), "\n") {
			if fields := strings.Fields(line); len(fields) > 0 && strings.HasPrefix(fields[0], "e7/") {
				documented[fields[0]] = true
			}
		}
	}
	if len(documented) == 0 {
		t.Fatal("found no rows in the RegressionSuite doc comment")
	}

	read := map[string]bool{}
	names := map[string]bool{}
	for _, g := range gates {
		if names[g.name] {
			t.Errorf("gate name %s repeats", g.name)
		}
		names[g.name] = true
		if g.max <= 0 {
			t.Errorf("gate %s: max %g <= 0 (an integer-division reciprocal?)", g.name, g.max)
		}
		for _, r := range []string{g.num, g.den} {
			read[r] = true
			if !documented[r] {
				t.Errorf("gate %s reads %s, which RegressionSuite does not document", g.name, r)
			}
		}
	}
	for r := range documented {
		if !read[r] {
			t.Errorf("RegressionSuite documents %s, but no gate reads it", r)
		}
	}
}
