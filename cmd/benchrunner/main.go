// Command benchrunner prints the experiment tables E1-E10 that
// operationalize the paper's claims (bench.All lists each experiment with
// the claim it tests), or runs the regression suite's ratio gates.
//
// Usage:
//
//	benchrunner [-scale 1.0] [-only E2,E5]
//	benchrunner -json FILE [-scale 0.25]
//
// The scale factor shrinks workloads proportionally for quick runs.
//
// With -json, benchrunner runs bench.RegressionSuite instead of the
// experiment tables, writes its rows (ns/op per row) to FILE, and exits
// nonzero when any gate in the table below fails. Every gate is the ratio
// of two rows measured in the same run on the same machine, so no
// committed baseline is involved. The end-to-end benchmark of record is
// the separate benchmark/ module.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		scale   = flag.Float64("scale", 1.0, "workload scale factor (1 = full size)")
		only    = flag.String("only", "", "comma-separated experiment ids to run (e.g. E1,E4)")
		jsonOut = flag.String("json", "", "run the regression suite and its ratio gates, writing the rows to this file (skips the experiment tables)")
	)
	flag.Parse()

	if *jsonOut != "" {
		if err := runRegression(*scale, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		return
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	start := time.Now()
	ran := 0
	for _, e := range bench.All() {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		fmt.Printf("### %s — %s\n\n", e.ID, e.Claim)
		t0 := time.Now()
		tab := e.Run(*scale)
		fmt.Print(tab.String())
		fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "benchrunner: no experiments matched -only")
		os.Exit(1)
	}
	fmt.Printf("ran %d experiments at scale %g in %s\n", ran, *scale, time.Since(start).Round(time.Millisecond))
}

// gate bounds one same-run ratio: row num over row den — ns/op, or Ops
// when byOps — must be at most max. A speedup "num is k times faster
// than den" is written as max 1/k. The gate reports without failing on
// fewer than minCPUs CPUs (the lower of NumCPU and GOMAXPROCS), where
// parallel workers only time-share cores. On enough CPUs, a den row
// whose whole run took less than minElapsed, too brief for the clock to
// resolve, fails the gate: a gate that cannot judge must say so loudly,
// and the fix is more repetitions in the row, not a lower floor.
type gate struct {
	name, num, den string
	max            float64
	byOps          bool
	minCPUs        int
	minElapsed     time.Duration
}

// gates is the whole performance contract benchrunner enforces.
var gates = []gate{
	// Lock striping may never cost more than 1.5x the single-lock layout;
	// on one CPU the 8 goroutines time-share and the ratio sits near 1x.
	{name: "e7/find-par8", num: "e7/find-par8/sharded", den: "e7/find-par8/single-lock", max: 1.5},
	{name: "e7/put-par8", num: "e7/put-par8/sharded", den: "e7/put-par8/single-lock", max: 1.5},
	// Multi-core payoffs: 1k push subscribers (one stalled) cost <= 10%
	// of plain ingest, and a 4-way partitioned gather is >= 2x the
	// serial one.
	{name: "e7/fanout", num: "e7/fanout-1k-subscribers", den: "e7/ingest-serial", max: 1.1, minCPUs: 4},
	{name: "e7/scan-partitioned", num: "e7/scan-par4", den: "e7/scan-serial", max: 1 / 2.0, minCPUs: 4},
	// Value-envelope pruning beats scan-and-filter on a selective query.
	{name: "e7/query-indexed", num: "e7/query-indexed", den: "e7/query-fullscan", max: 1 / 1.5},
	// Cold start: segments + WAL tail >= 3x faster than full-WAL replay,
	// and the parallel frame load >= 2x the serial one.
	{name: "e7/recover", num: "e7/recover-segment", den: "e7/recover-wal", max: 1 / 3.0,
		minElapsed: 10 * time.Millisecond},
	{name: "e7/recover-par", num: "e7/recover-par", den: "e7/recover-serial", max: 1 / 2.0,
		minCPUs: 4, minElapsed: 10 * time.Millisecond},
	// Envelope pruning keeps a fully evicted selective scan within 3x of
	// the all-resident one instead of decaying to a full directory decode.
	{name: "e7/scan-cold", num: "e7/scan-cold", den: "e7/scan-resident", max: 3,
		minElapsed: 5 * time.Millisecond},
	// Whole-file WAL truncation is O(files): the same file count holding
	// 8x the records stays near 1x; an O(records) rewrite would near 8x.
	{name: "e7/wal-truncate", num: "e7/wal-truncate/tail-8x", den: "e7/wal-truncate/tail-1x", max: 3,
		minElapsed: 200 * time.Microsecond},
	// A full merge at least halves the restart frame slots, a
	// deterministic count carried as Ops, so no timing floor applies.
	{name: "e7/compact-reclaim", num: "e7/compact-reclaim/merged", den: "e7/compact-reclaim/unmerged", max: 0.5,
		byOps: true},
	// An idle fault-injection wrap costs <= 5% of flush, and degraded mode
	// (WAL dropping) is a pressure valve, never a new bottleneck.
	{name: "e7/flush-vfs", num: "e7/flush-vfs-overhead", den: "e7/flush-os", max: 1.05,
		minElapsed: 10 * time.Millisecond},
	{name: "e7/ingest-degraded", num: "e7/ingest-degraded", den: "e7/ingest-durable", max: 1.1,
		minElapsed: 10 * time.Millisecond},
}

// runRegression measures the regression suite, writes the JSON report,
// and evaluates the gate table against it.
func runRegression(scale float64, jsonOut string) error {
	start := time.Now()
	rep := bench.RegressionSuite(scale)
	fmt.Printf("regression suite at scale %g (%d rows in %s, GOMAXPROCS=%d, NumCPU=%d)\n",
		scale, len(rep.Results), time.Since(start).Round(time.Millisecond),
		rep.GoMaxProcs, rep.NumCPU)
	for _, m := range rep.Results {
		fmt.Printf("  %-28s %12.1f ns/op %14.0f ops/s\n", m.Name, m.NsPerOp, m.OpsPerSec)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	fmt.Printf("wrote %s\nratio gates (num/den <= max):\n", jsonOut)

	if failures := evaluate(os.Stdout, rep, gates); failures > 0 {
		return fmt.Errorf("%d ratio gate failure(s)", failures)
	}
	fmt.Println("all ratio gates pass")
	return nil
}

// evaluate checks every gate against rep, printing one line per gate to
// w, and returns the failure count. A missing row or a den <= 0 fails
// whatever the hardware: a renamed row must not silently ungate its path.
func evaluate(w io.Writer, rep *bench.RegressionReport, table []gate) int {
	rows := make(map[string]bench.Measurement, len(rep.Results))
	for _, m := range rep.Results {
		rows[m.Name] = m
	}
	cpus := min(rep.NumCPU, rep.GoMaxProcs)
	failures := 0
	for _, g := range table {
		num, okNum := rows[g.num]
		den, okDen := rows[g.den]
		n, d := num.NsPerOp, den.NsPerOp
		if g.byOps {
			n, d = float64(num.Ops), float64(den.Ops)
		}
		if !okNum || !okDen || d <= 0 {
			fmt.Fprintf(w, "  %-20s FAIL: %s or %s missing, or den <= 0\n", g.name, g.num, g.den)
			failures++
			continue
		}
		ratio := n / d
		fmt.Fprintf(w, "  %-20s %7.3f  max %-13s ", g.name, ratio, bound(g.max))
		elapsed := time.Duration(den.NsPerOp * float64(den.Ops))
		switch {
		case cpus < g.minCPUs:
			fmt.Fprintf(w, "not gated: %d CPUs < %d\n", cpus, g.minCPUs)
		case elapsed < g.minElapsed:
			fmt.Fprintf(w, "FAIL: %s ran %s < %s, too brief to judge\n", g.den, elapsed.Round(time.Microsecond), g.minElapsed)
			failures++
		case ratio > g.max:
			fmt.Fprintf(w, "FAIL (%s / %s)\n", g.num, g.den)
			failures++
		default:
			fmt.Fprintln(w, "ok")
		}
	}
	return failures
}

// bound renders a gate's max, with a below-1 bound also shown as the
// reciprocal it was written as.
func bound(v float64) string {
	if v < 1 {
		return fmt.Sprintf("%.3g (1/%.3g)", v, 1/v)
	}
	return fmt.Sprintf("%.3g", v)
}
