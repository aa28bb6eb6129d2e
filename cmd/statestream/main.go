// Command statestream runs the explicit-state engine over one of the
// paper's three workloads, applies the matching state management rules,
// and answers on-demand queries against the resulting state repository.
//
// Usage:
//
//	statestream -workload security [-policy state-first] [-scale 1.0]
//	            [-rules file.rules] [-dir state.d] [query ...]
//
// Each trailing argument is a temporal query executed after the run, e.g.
//
//	statestream -workload security \
//	    "SELECT entity, value FROM position LIMIT 5" \
//	    "SELECT value, count(*) FROM position HISTORY GROUP BY value"
//
// With -dir, the state repository is durable: mutations go to the
// directory's WAL chain, state flushes to segment files as the watermark
// advances, and the final cut is flushed on exit. cmd/stateql and
// cmd/stateserve open the directory to query it offline or over HTTP.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/stream"
	"repro/internal/workload"
)

// builtinRules maps each workload to its canonical state management rules.
var builtinRules = map[string]string{
	"security": `
RULE position ON RoomEntry AS r THEN REPLACE position(r.visitor) = r.room
RULE exit ON BuildingExit AS r THEN RETRACT position(r.visitor)`,
	"clickstream": `
RULE open ON Enter AS x THEN REPLACE active(x.user) = true
RULE close ON Leave AS x THEN RETRACT active(x.user)`,
	"ecommerce": `
RULE classify ON Reclassify AS c THEN REPLACE class(c.product) = c.class`,
}

func main() {
	var (
		workloadName = flag.String("workload", "security", "workload: security, clickstream, or ecommerce")
		policyName   = flag.String("policy", "state-first", "interaction policy: state-first, stream-first, or snapshot")
		scale        = flag.Float64("scale", 1.0, "workload scale factor")
		rulesFile    = flag.String("rules", "", "rule file overriding the built-in rules")
		dir          = flag.String("dir", "", "persist state in this durable directory")
	)
	flag.Parse()
	if err := run(*workloadName, *policyName, *scale, *rulesFile, *dir, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "statestream:", err)
		os.Exit(1)
	}
}

func run(workloadName, policyName string, scale float64, rulesFile, dir string, queries []string) (err error) {
	policy, err := parsePolicy(policyName)
	if err != nil {
		return err
	}
	els, err := generate(workloadName, scale)
	if err != nil {
		return err
	}
	opts := []core.Option{core.WithPolicy(policy)}
	if dir != "" {
		opts = append(opts, core.WithDurableDir(dir))
	}
	engine := core.New(opts...)
	defer func() {
		if cerr := engine.Close(); err == nil {
			err = cerr
		}
	}()

	src := builtinRules[workloadName]
	if rulesFile != "" {
		b, err := os.ReadFile(rulesFile)
		if err != nil {
			return err
		}
		src = string(b)
	}
	if err := engine.DeployRules(src); err != nil {
		return err
	}

	if err := engine.Run(stream.FromElements(els)); err != nil {
		return err
	}

	st := engine.Store().Stats()
	fmt.Printf("processed %d elements (policy %s); state: %d keys, %d versions, %d current, %d records\n",
		engine.ElementsIn(), policy, st.Keys, st.Versions, st.Current, st.Records)

	for _, q := range queries {
		fmt.Printf("\n> %s\n", q)
		res, err := engine.Query(q)
		if err != nil {
			return err
		}
		fmt.Print(res)
	}
	return nil
}

func parsePolicy(name string) (core.Policy, error) {
	switch name {
	case "state-first":
		return core.StateFirst, nil
	case "stream-first":
		return core.StreamFirst, nil
	case "snapshot":
		return core.Snapshot, nil
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

func generate(name string, scale float64) ([]*element.Element, error) {
	scaleInt := func(n int) int {
		v := int(float64(n) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	switch name {
	case "security":
		cfg := workload.DefaultBuilding()
		cfg.Visitors = scaleInt(cfg.Visitors)
		els, _ := workload.Building(cfg)
		return els, nil
	case "clickstream":
		cfg := workload.DefaultClickstream()
		cfg.Users = scaleInt(cfg.Users)
		els, _ := workload.Clickstream(cfg)
		return renameClickstreamFields(els), nil
	case "ecommerce":
		cfg := workload.DefaultEcommerce()
		cfg.Sales = scaleInt(cfg.Sales)
		els, _ := workload.Ecommerce(cfg)
		return els, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want security, clickstream, or ecommerce)", name)
}

// renameClickstreamFields adapts the generator's "visitor" field to the
// "user" field the built-in clickstream rules use.
func renameClickstreamFields(els []*element.Element) []*element.Element {
	schema := element.NewSchema(
		element.Field{Name: "user", Kind: element.KindString},
		element.Field{Name: "page", Kind: element.KindString},
	)
	out := make([]*element.Element, len(els))
	for i, el := range els {
		user, _ := el.Get("visitor")
		page, _ := el.Get("page")
		ne := element.New(el.Stream, el.Timestamp, element.NewTuple(schema, user, page))
		ne.Seq = el.Seq
		out[i] = ne
	}
	return out
}
