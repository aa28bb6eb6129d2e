package statestream_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	statestream "repro"
	"repro/internal/cep"
	"repro/internal/cql"
	"repro/internal/element"
	"repro/internal/reason"
	"repro/internal/rules"
	"repro/internal/state/segment"
	"repro/internal/temporal"
	"repro/internal/window"
)

var schema = statestream.NewSchema(
	statestream.Field{Name: "visitor", Kind: statestream.KindString},
	statestream.Field{Name: "room", Kind: statestream.KindString},
)

func entry(at time.Duration, visitor, room string) *statestream.Element {
	return statestream.NewElement("RoomEntry", statestream.Instant(at),
		statestream.NewTuple(schema, statestream.String(visitor), statestream.String(room)))
}

// TestPublicAPIEndToEnd exercises the README quickstart path through the
// facade only: rules, run, current + historical queries.
func TestPublicAPIEndToEnd(t *testing.T) {
	engine := statestream.New(statestream.StateFirst)
	if err := engine.DeployRules(`
RULE position ON RoomEntry AS r
THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	els := []*statestream.Element{
		entry(1*time.Minute, "ann", "hall"),
		entry(2*time.Minute, "ann", "lab"),
	}
	if err := engine.Run(statestream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Query("SELECT entity, value FROM position")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].MustString() != "lab" {
		t.Fatalf("current: %v", res.Rows)
	}
	res, err = engine.Query("SELECT value FROM position ASOF 90000000000 WHERE entity = 'ann'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("historical: %v", res.Rows)
	}
}

func TestPublicAPIProcessorsAndGates(t *testing.T) {
	engine := statestream.New(statestream.StateFirst)
	if err := engine.DeployRules(`
RULE mark ON RoomEntry AS r WHERE r.room = 'vault'
THEN REPLACE flagged(r.visitor) = true`); err != nil {
		t.Fatal(err)
	}
	gate, err := statestream.ParseExpr("EXISTS flagged(e.visitor)")
	if err != nil {
		t.Fatal(err)
	}
	q := statestream.NewContinuousQuery("Flags", "RoomEntry",
		statestream.NewTumblingTime(statestream.Instant(time.Hour)), false,
		statestream.IStream,
		statestream.Aggregate([]string{"visitor"},
			statestream.AggSpec{Func: statestream.Count, As: "moves"}),
	)
	if err := engine.DeployProcessor(&statestream.Processor{
		Name: "flagged-moves", Source: "RoomEntry", Gate: gate, Op: q,
	}); err != nil {
		t.Fatal(err)
	}
	els := []*statestream.Element{
		entry(1*time.Minute, "ann", "hall"),
		entry(2*time.Minute, "ann", "vault"), // flags ann; passes gate same tick
		entry(3*time.Minute, "ann", "lab"),
		entry(4*time.Minute, "bob", "hall"), // never flagged
	}
	if err := engine.Run(statestream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	if err := engine.Process(statestream.WatermarkMsg(statestream.Instant(time.Hour))); err != nil {
		t.Fatal(err)
	}
	out := engine.Output("flagged-moves")
	if len(out) != 1 || out[0].MustGet("moves").MustInt() != 2 {
		t.Fatalf("gated aggregate: %v", out)
	}
	stats := engine.Stats()
	if stats[0].Gated != 2 { // ann@hall (pre-flag) + bob@hall
		t.Fatalf("stats: %+v", stats)
	}
}

func TestPublicAPIReasoning(t *testing.T) {
	engine := statestream.New(statestream.StateFirst)
	ont := statestream.NewOntology()
	if err := ont.SubClassOf("novel", "books"); err != nil {
		t.Fatal(err)
	}
	r := engine.EnableReasoning(ont)
	if err := r.AddRule(reason.HornRule{
		Name: "promoted",
		Body: []reason.TriplePattern{
			{Attr: "type", Entity: reason.V("x"), Value: reason.C(statestream.String("books"))},
		},
		Head: reason.TriplePattern{
			Attr: "shelf", Entity: reason.V("x"), Value: reason.C(statestream.String("back")),
		},
	}); err != nil {
		t.Fatal(err)
	}
	engine.Store().Replace("p1", "type", statestream.String("novel"), 0)
	engine.Process(statestream.WatermarkMsg(10))
	res, err := engine.Query("SELECT entity FROM shelf WHERE value = 'back' WITH INFERENCE")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "p1" {
		t.Fatalf("chained inference: %v", res.Rows)
	}
}

func TestPublicAPIPatternsAndWindows(t *testing.T) {
	m, err := cep.NewMatcher(&cep.Within{
		P: cep.Sequence(cep.Event("A"), cep.Event("B")),
		D: statestream.Instant(time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := statestream.NewElement("A", 0, statestream.NewTuple(schema, statestream.String("x"), statestream.String("y")))
	b := statestream.NewElement("B", 10, statestream.NewTuple(schema, statestream.String("x"), statestream.String("y")))
	m.Observe(a)
	got := m.Observe(b)
	if len(got) != 1 || got[0].Interval != temporal.NewInterval(0, 11) {
		t.Fatalf("pattern match: %v", got)
	}

	w := statestream.NewSessionWindow(statestream.Instant(time.Minute),
		func(e *statestream.Element) string { return e.MustGet("visitor").MustString() })
	w.Observe(entry(0, "ann", "hall"))
	panes := w.AdvanceTo(statestream.Instant(2 * time.Minute))
	if len(panes) != 1 || panes[0].Key != "ann" {
		t.Fatalf("session window: %v", panes)
	}
}

func TestPublicAPIStoreAndFacts(t *testing.T) {
	st := statestream.NewStore()
	if err := st.Put("e", "a", statestream.Int(1), statestream.WithValidTime(5)); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Find("e", "a"); !ok || got.Value.MustInt() != 1 || got.Validity != temporal.Since(5) {
		t.Fatalf("store: %v %v", got, ok)
	}
	if temporal.FromTime(time.Unix(1, 0)) != statestream.FromMillis(1000) {
		t.Error("time conversions")
	}
	if element.Bool(true).Kind() != statestream.KindBool ||
		statestream.Float(1).Kind() != statestream.KindFloat ||
		element.Time(1).Kind() != statestream.KindTime {
		t.Error("value constructors")
	}
}

func TestPublicAPIRuleSetAndMerge(t *testing.T) {
	set, err := rules.ParseSet(`
RULE a ON RoomEntry AS x THEN REPLACE p(x.visitor) = x.room`)
	if err != nil || set.Len() != 1 {
		t.Fatalf("ParseSet: %v %v", set, err)
	}
	engine := statestream.New(statestream.StreamFirst)
	engine.DeployRuleSet(set)

	a := []*statestream.Element{entry(1, "a", "r")}
	b := []*statestream.Element{entry(2, "b", "r")}
	merged := statestream.MergeSorted(a, b)
	if len(merged) != 2 || merged[0].Timestamp != 1 {
		t.Fatalf("merge: %v", merged)
	}
	msgs := statestream.WithPeriodicWatermarks(merged, 10)
	if err := engine.Run(msgs); err != nil {
		t.Fatal(err)
	}
	if st := engine.Store().Stats(); st.Keys != 2 {
		t.Fatalf("state after run: %+v", st)
	}
	if engine.Policy() != statestream.StreamFirst {
		t.Error("policy accessor")
	}
}

func TestPublicAPIRelationalOps(t *testing.T) {
	// Select + Project compose in a continuous query.
	q := statestream.NewContinuousQuery("Q", "RoomEntry",
		window.NewTumblingCount(2), false, statestream.IStream,
		cql.NewSelect(func(tp *statestream.Tuple) bool {
			return tp.MustGet("room").MustString() != "hall"
		}),
		cql.NewProject("visitor"),
	)
	engine := statestream.New(statestream.StateFirst)
	if err := engine.DeployProcessor(&statestream.Processor{Name: "q", Op: q}); err != nil {
		t.Fatal(err)
	}
	engine.Run(statestream.FromElements([]*statestream.Element{
		entry(1, "ann", "hall"), entry(2, "bob", "lab"),
	}))
	out := engine.Output("q")
	if len(out) != 1 || out[0].Tuple.Schema().Len() != 1 {
		t.Fatalf("relational chain: %v", out)
	}
}

// TestPublicAPIBitemporal exercises the StateDB surface and the SYSTEM
// TIME dialect through the facade only: option-based construction,
// retroactive correction, belief-pinned reads and queries.
func TestPublicAPIBitemporal(t *testing.T) {
	engine := statestream.New(statestream.WithPolicy(statestream.StateFirst))
	if err := engine.DeployRules(`
RULE position ON RoomEntry AS r
THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	els := []*statestream.Element{
		entry(1*time.Minute, "ann", "hall"),
		entry(3*time.Minute, "ann", "lab"),
	}
	if err := engine.Run(statestream.FromElements(els)); err != nil {
		t.Fatal(err)
	}

	// Retroactive correction recorded at t=10m: ann was in the vault over
	// [90s, 150s).
	db := engine.DB()
	if err := db.Put("ann", "position", statestream.String("vault"),
		statestream.WithValidTime(statestream.Instant(90*time.Second)),
		statestream.WithEndValidTime(statestream.Instant(150*time.Second)),
		statestream.WithTransactionTime(statestream.Instant(10*time.Minute))); err != nil {
		t.Fatal(err)
	}

	// Corrected read through Find.
	if f, ok := db.Find("ann", "position",
		statestream.AsOfValidTime(statestream.Instant(2*time.Minute))); !ok || f.Value.MustString() != "vault" {
		t.Fatalf("corrected find: %v %v", f, ok)
	}
	// Belief-pinned read predates the correction.
	if f, ok := db.Find("ann", "position",
		statestream.AsOfValidTime(statestream.Instant(2*time.Minute)),
		statestream.AsOfTransactionTime(statestream.Instant(5*time.Minute))); !ok || f.Value.MustString() != "hall" {
		t.Fatalf("belief-pinned find: %v %v", f, ok)
	}
	// The SYSTEM TIME dialect agrees.
	res, err := engine.Query(fmt.Sprintf(
		"SELECT value FROM position ASOF %d SYSTEM TIME ASOF %d WHERE entity = 'ann'",
		statestream.Instant(2*time.Minute), statestream.Instant(5*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("SYSTEM TIME query: %v", res.Rows)
	}
	// The audit trail retains the superseded record.
	audit := db.History("ann", "position", statestream.AllVersions())
	superseded := 0
	for _, f := range audit {
		if f.Superseded() {
			superseded++
		}
	}
	if superseded == 0 {
		t.Fatal("correction should supersede, not destroy")
	}
}

// TestPublicAPIDurableRecovery exercises the durability surface through
// the facade: a durable engine killed without Close recovers its
// state — current and SYSTEM TIME reads — on the next construction, and
// a standalone durable store round-trips a flush.
func TestPublicAPIDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	engine := statestream.New(statestream.WithDurableDir(dir))
	if err := engine.DeployRules(`
RULE position ON RoomEntry AS r
THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	els := []*statestream.Element{
		entry(1*time.Minute, "ann", "hall"),
		entry(2*time.Minute, "ann", "lab"),
	}
	if err := engine.Run(statestream.FromElements(els)); err != nil {
		t.Fatal(err)
	}
	// Crash: no flush (Abandon drops the directory lock and descriptors
	// exactly as process death would). The WAL tail alone must carry the
	// state. Rules are code, not state: the restarted engine redeploys
	// them.
	engine.Durable().Abandon()
	reborn := statestream.New(statestream.WithDurableDir(dir))
	if err := reborn.DeployRules(`
RULE position ON RoomEntry AS r
THEN REPLACE position(r.visitor) = r.room`); err != nil {
		t.Fatal(err)
	}
	if err := reborn.Run([]statestream.Message{
		statestream.ElementMsg(entry(3*time.Minute, "ann", "vault")),
		statestream.WatermarkMsg(statestream.Instant(4 * time.Minute)),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := reborn.Query("SELECT entity, value FROM position")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].MustString() != "vault" {
		t.Fatalf("current after restart: %v", res.Rows)
	}
	// The pre-crash history survived: ann was in the hall at t=90s.
	res, err = reborn.Query("SELECT value FROM position ASOF 90000000000 WHERE entity = 'ann'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].MustString() != "hall" {
		t.Fatalf("historical after restart: %v", res.Rows)
	}
	if reborn.Durable() == nil {
		t.Fatal("Durable() should expose the segment store")
	}
	if err := reborn.Close(); err != nil {
		t.Fatal(err)
	}

	sdir := t.TempDir()
	ds, err := statestream.OpenDurableStore(sdir, segment.WithFlushEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("ann", "clearance", statestream.String("secret")); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, err := statestream.OpenDurableStore(sdir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	info := ds2.Info()
	if info.Segments == 0 {
		t.Fatalf("close should have flushed a segment: %+v", info)
	}
	if f, ok := ds2.Find("ann", "clearance"); !ok || f.Value.MustString() != "secret" {
		t.Fatalf("standalone durable store lost the fact: %v ok=%v", f, ok)
	}
}

// TestFacadeNamesHaveUsers keeps the facade sized to its users. An
// exported name in statestream.go must be
//  1. written as statestream.<Name> in an example, bench_test.go,
//     README.md, DESIGN.md or examples/README.md;
//  2. a facade type in the parameters or results of a function kept by
//     rule 1, so callers can name it (unused functions keep nothing); or
//  3. a member, or the declared type, of a constant group that rule 1
//     names a member or the type of: an enum is kept whole or not at all.
func TestFacadeNamesHaveUsers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "statestream.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	funcs := map[string]*ast.FuncType{}
	var enums [][]string // each constant group: member names, then type names
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declared[d.Name.Name] = true
			funcs[d.Name.Name] = d.Type
		case *ast.GenDecl:
			var group []string
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declared[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared[n.Name] = true
						group = append(group, n.Name)
					}
					if id, ok := s.Type.(*ast.Ident); ok && d.Tok == token.CONST {
						group = append(group, id.Name)
					}
				}
			}
			if d.Tok == token.CONST {
				enums = append(enums, group)
			}
		}
	}

	used := map[string]bool{}
	sources, _ := filepath.Glob("examples/*/main.go")
	sources = append(sources, "bench_test.go", "README.md", "DESIGN.md", "examples/README.md")
	ref := regexp.MustCompile(`statestream\.([A-Z]\w*)`)
	for _, src := range sources {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(b), -1) {
			if !declared[m[1]] {
				t.Errorf("%s names statestream.%s, which the facade does not export", src, m[1])
			}
			used[m[1]] = true
		}
	}

	kept := map[string]bool{}
	for name := range used {
		kept[name] = true
		if ft, ok := funcs[name]; ok {
			ast.Inspect(ft, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && declared[id.Name] {
					kept[id.Name] = true
				}
				_, qualified := n.(*ast.SelectorExpr)
				return !qualified
			})
		}
	}
	for _, group := range enums {
		for _, name := range group {
			if used[name] {
				for _, member := range group {
					kept[member] = true
				}
				break
			}
		}
	}

	var unused []string
	for name := range declared {
		if ast.IsExported(name) && !kept[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d facade names have no user; delete them or use them in an example: %v", len(unused), unused)
	}
}
