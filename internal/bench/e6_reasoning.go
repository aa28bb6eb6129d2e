package bench

import (
	"fmt"
	"time"

	"repro/internal/element"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/reason"
	"repro/internal/state"
	"repro/internal/temporal"
)

// E6Reasoning measures the reasoning component of Figure 1 on the §3.1
// product-taxonomy scenario: "the ontology might include a taxonomy to
// organize the products according to different classification criteria
// and to automatically derive sub-classes relations". We build complete
// k-ary taxonomies of increasing depth, type products at the leaves, and
// measure materialization cost, derived fact volume, and class-membership
// query latency with and without inference.
func E6Reasoning(scale float64) *metrics.Table {
	tab := metrics.NewTable("E6 — taxonomy reasoning (§3, §3.1)",
		"depth", "fanout", "products", "derived", "materialize", "query", "query+inference")

	products := scaleInt(500, scale)
	for _, shape := range []struct{ depth, fanout int }{
		{2, 4}, {4, 3}, {8, 2},
	} {
		st := state.NewStore()
		ont := reason.NewOntology()
		leaves := buildTaxonomy(ont, shape.depth, shape.fanout)
		r := reason.NewReasoner(st, ont)
		for i := 0; i < products; i++ {
			leaf := leaves[i%len(leaves)]
			st.Replace(fmt.Sprintf("product%05d", i), reason.TypeAttribute,
				element.String(leaf), temporal.Instant(i))
		}
		t0 := time.Now()
		derived := r.Materialize()
		mat := time.Since(t0)

		ex := &query.Executor{Store: st, Reasoner: r, Now: temporal.Instant(products + 1)}
		const probes = 20
		var plain, inferred metrics.Histogram
		for i := 0; i < probes; i++ {
			t0 = time.Now()
			if _, err := ex.Run("SELECT entity FROM type WHERE value = 'root'"); err != nil {
				panic(err)
			}
			plain.Record(time.Since(t0))
			t0 = time.Now()
			if _, err := ex.Run("SELECT entity FROM type WHERE value = 'root' WITH INFERENCE"); err != nil {
				panic(err)
			}
			inferred.Record(time.Since(t0))
		}
		tab.AddRow(shape.depth, shape.fanout, products, derived,
			mat.Round(time.Microsecond).String(),
			plain.Mean().String(), inferred.Mean().String())
	}
	return tab
}

// buildTaxonomy creates a complete taxonomy of the given depth and fanout
// rooted at "root" and returns the leaf class names.
func buildTaxonomy(ont *reason.Ontology, depth, fanout int) []string {
	level := []string{"root"}
	for d := 1; d <= depth; d++ {
		var next []string
		for _, parent := range level {
			for f := 0; f < fanout; f++ {
				child := fmt.Sprintf("%s_%d", parent, f)
				if err := ont.SubClassOf(child, parent); err != nil {
					panic(err)
				}
				next = append(next, child)
			}
		}
		level = next
	}
	return level
}
