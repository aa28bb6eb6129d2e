// Package bench implements the experiment harness: one function per
// experiment E1-E10 (All lists them with the paper claim each tests),
// each returning an aligned table that cmd/benchrunner prints, plus the
// regression suite whose same-run ratios the benchrunner gates bound.
//
// The paper (an EDBT 2017 vision poster) contains no quantitative
// evaluation, so each experiment operationalizes one of its claims or use
// cases, always contrasting a window-based baseline (§2) with the
// explicit-state system (§3). cmd/benchrunner prints every table;
// bench_test.go wraps the same functions as testing.B benchmarks.
package bench

import (
	"fmt"

	"repro/internal/metrics"
)

// Experiment is one runnable experiment.
type Experiment struct {
	// ID is the experiment identifier (E1..E9).
	ID string
	// Claim cites the paper locus the experiment tests.
	Claim string
	// Run executes the experiment and returns its report table. The scale
	// factor shrinks workloads for quick runs (1 = full size).
	Run func(scale float64) *metrics.Table
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Claim: "§1: fixed windows mis-scope sessions", Run: E1SessionScoping},
		{ID: "E2", Claim: "§1: windows infer contradictory positions", Run: E2Contradictions},
		{ID: "E3", Claim: "§3.1: state keeps classifications current", Run: E3Reclassification},
		{ID: "E4", Claim: "§3.2: queryable state (current + historical)", Run: E4StateQuery},
		{ID: "E5", Claim: "§1/§5: state gating limits processed data", Run: E5StateGating},
		{ID: "E6", Claim: "§3: reasoning derives implicit knowledge", Run: E6Reasoning},
		{ID: "E7", Claim: "state repository cost (enabling substrate)", Run: E7StateStore},
		{ID: "E8", Claim: "§3.3: interaction-semantics ablation", Run: E8Semantics},
		{ID: "E9", Claim: "§2/§4: windowing-mechanism landscape", Run: E9WindowBaselines},
		{ID: "E10", Claim: "§3.2: cost of the rule-language abstraction", Run: E10RuleOverhead},
	}
}

// scaleInt shrinks a workload dimension by the scale factor, staying >= 1.
func scaleInt(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		return 1
	}
	return v
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func fmtDur(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	}
	return fmt.Sprintf("%.0fns", ns)
}
