// Command benchmark is the end-to-end benchmark of record: it builds the
// whole system in-process from its public constructors, drives it with a
// seeded generator, checks every output against a generator-side
// reference model, and prints the end-to-end metrics (untraced pass) and
// the per-layer metrics (traced pass) by name. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// pass is the outcome of one pass over one workload.
type pass struct {
	workload  string
	traced    bool
	metrics   values
	attempted int64
	failed    int64
	failures  []string
	digest    uint64
	tr        *tracer
}

// runPass runs one workload once, traced or not, and reduces what it
// measured to the named metrics of that pass.
func runPass(wl *workload, o options, traced bool) (*pass, error) {
	x := &env{options: o, runDir: filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid()))}
	defer removeAll(x.runDir)
	if traced {
		x.tr = newTracer()
		x.cfs = newCountFS(x.tr)
	}
	m, err := x.runWorkload(wl)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	p := &pass{workload: wl.name, traced: traced, digest: m.digest, tr: x.tr}
	defs := endToEnd
	if traced {
		p.metrics = x.perLayer(m)
		defs = perLayer
	} else {
		p.metrics = x.endToEnd(m)
	}
	for _, d := range defs {
		if v, ok := p.metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			x.fail("metric %s has no finite value", d.Name)
			p.metrics[d.Name] = 0
		}
	}
	p.attempted, p.failed, p.failures = x.attempted, x.failed, x.failures
	if traced {
		path := filepath.Join(o.out, "trace-"+wl.name+".json")
		if err := x.tr.write(path, machine(o)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// machine records what the numbers were measured on.
func machine(o options) map[string]any {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
		"seed": o.seed, "seconds": o.seconds, "scale": o.scale,
	}
}

// report prints one pass as a table: every metric by name with its unit.
func (p *pass) report(w io.Writer) {
	kind, defs := "end-to-end (untraced)", endToEnd
	if p.traced {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "\n== %s: %s ==\n", p.workload, kind)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-38s %16.4f %s\n", d.Name, p.metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d; state digest %016x\n", p.attempted, p.failed, p.digest)
	for _, f := range p.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if p.traced {
		fmt.Fprintf(w, "  -- self time per layer (span minus its children) --\n")
		p.tr.table(w)
	}
}

// resultLine is the last line of standard output: the contract's result
// object.
func resultLine(w io.Writer, passes []*pass, single bool) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Metrics: map[string]mv{}}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		defs := endToEnd
		if p.traced {
			defs = perLayer
		}
		for _, d := range defs {
			name := d.Name
			if !single {
				name = p.workload + "/" + name
			}
			res.Metrics[name] = mv{p.metrics[d.Name], d.Unit}
		}
	}
	res.Correct = res.Failed == 0
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// agree compares the end-to-end metrics of several sets of the same
// code and reports every workload/metric whose sets differ by more than
// the metric's bound.
func agree(w io.Writer, sets [][]*pass) bool {
	ok := true
	fmt.Fprintf(w, "\n== agreement over %d sets ==\n", len(sets))
	for i := range sets[0] {
		for _, d := range endToEnd {
			var vals []string
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, set := range sets {
				v := set[i].metrics[d.Name]
				vals = append(vals, fmt.Sprintf("%.4f", v))
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			spread := (hi - lo) / lo
			mark := ""
			if spread > d.Bound {
				mark, ok = "  DISAGREE", false
			}
			fmt.Fprintf(w, "  %-15s %-18s %s  spread %.3f bound %.2f%s\n",
				sets[0][i].workload, d.Name, strings.Join(vals, " "), spread, d.Bound, mark)
		}
	}
	return ok
}

func main() {
	var (
		o      options
		name   string
		traced int
		nsets  int
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated input")
	flag.StringVar(&name, "workload", "", "run one workload (default: all four)")
	flag.Float64Var(&o.seconds, "seconds", 24, "length of one workload's timed phase")
	flag.IntVar(&traced, "trace", 0, "with -workload: 1 runs the traced pass instead of the untraced one; without: 1 adds a traced pass per workload")
	flag.IntVar(&nsets, "sets", 1, "run the untraced set this many times, alternating workload order, and fail if two sets disagree by more than a metric's bound")
	flag.Float64Var(&o.scale, "scale", 1, "shrink element counts (the smoke test uses 1/200)")
	flag.StringVar(&o.dir, "dir", ".bench_build/data", "scratch root for durable directories")
	flag.StringVar(&o.out, "out", "benchmark/out", "where the traced pass writes trace-<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.scale <= 0 || nsets < 1 {
		flag.Usage()
		os.Exit(2)
	}

	meta, _ := json.Marshal(machine(o))
	fmt.Printf("machine %s\n", meta)

	if name != "" {
		wl := workloadByName(name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
			os.Exit(2)
		}
		p, err := runPass(wl, o, traced == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		p.report(os.Stdout)
		resultLine(os.Stdout, []*pass{p}, true)
		return
	}

	var sets [][]*pass
	var all []*pass
	for s := 0; s < nsets; s++ {
		order := append([]*workload(nil), workloads...)
		if s%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		set := make([]*pass, len(workloads))
		for _, wl := range order {
			p, err := runPass(wl, o, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			p.report(os.Stdout)
			for i := range workloads {
				if workloads[i] == wl {
					set[i] = p
				}
			}
		}
		sets = append(sets, set)
		if s == 0 {
			all = append(all, set...)
		}
	}
	if traced == 1 {
		for _, wl := range workloads {
			p, err := runPass(wl, o, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			p.report(os.Stdout)
			all = append(all, p)
		}
	}
	if a, b := sets[0][0], sets[0][1]; a.digest != b.digest {
		fmt.Printf("\nFAILED: %s state digest %016x differs from recovered %s %016x\n", a.workload, a.digest, b.workload, b.digest)
		a.failed++
	}
	agreed := nsets < 2 || agree(os.Stdout, sets)
	resultLine(os.Stdout, all, false)
	if !agreed {
		os.Exit(1)
	}
}
