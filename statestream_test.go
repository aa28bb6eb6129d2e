package statestream_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
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
	x := reason.Term{Var: "x", IsVar: true}
	if err := r.AddRule(reason.HornRule{
		Name: "promoted",
		Body: []reason.TriplePattern{
			{Attr: "type", Entity: x, Value: reason.Term{Const: statestream.String("books")}},
		},
		Head: reason.TriplePattern{
			Attr: "shelf", Entity: x, Value: reason.Term{Const: statestream.String("back")},
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
		P: &cep.Seq{Items: []cep.SeqItem{{Pattern: cep.EventAs("A", "A")}, {Pattern: cep.EventAs("B", "B")}}},
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
	if statestream.FromMillis(1000) != statestream.Instant(time.Second) {
		t.Error("time conversions")
	}
	if element.Bool(true).Kind() != statestream.KindBool ||
		statestream.Float(1).Kind() != statestream.KindFloat ||
		element.Time(1).Kind() != statestream.KindTime {
		t.Error("value constructors")
	}
}

func TestPublicAPIRuleSetAndMerge(t *testing.T) {
	const src = `
RULE a ON RoomEntry AS x THEN REPLACE p(x.visitor) = x.room`
	set, err := rules.ParseSet(src)
	if err != nil || set.Len() != 1 {
		t.Fatalf("ParseSet: %v %v", set, err)
	}
	engine := statestream.New(statestream.StreamFirst)
	if err := engine.DeployRules(src); err != nil {
		t.Fatal(err)
	}

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
}

func TestPublicAPIRelationalOps(t *testing.T) {
	// Two aggregates compose in a continuous query: entries per room,
	// then the number of rooms entered.
	q := statestream.NewContinuousQuery("Q", "RoomEntry",
		window.NewTumblingCount(2), false, statestream.IStream,
		cql.NewAggregate([]string{"room"}, cql.AggSpec{Func: cql.Count, As: "n"}),
		cql.NewAggregate(nil, cql.AggSpec{Func: cql.Count, As: "rooms"}),
	)
	engine := statestream.New(statestream.StateFirst)
	if err := engine.DeployProcessor(&statestream.Processor{Name: "q", Op: q}); err != nil {
		t.Fatal(err)
	}
	engine.Run(statestream.FromElements([]*statestream.Element{
		entry(1, "ann", "hall"), entry(2, "bob", "lab"),
	}))
	out := engine.Output("q")
	if len(out) != 1 || out[0].Tuple.Schema().Len() != 1 || out[0].MustGet("rooms").MustInt() != 2 {
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

// reachAllowlist roots declarations that only tests in other packages, or
// an operator verb not yet wired, use. Keys are dir.Name or dir.Type.Method.
var reachAllowlist = map[string]string{
	"internal/vfs.Transient":                 "fault schedule for the segment, server and subscribe chaos tests",
	"internal/vfs.Permanent":                 "fault schedule for the segment, server and subscribe chaos tests",
	"internal/vfs.FaultFS.Injected":          "chaos tests assert that their faults fired",
	"internal/vfs.FaultFS.LiedSyncs":         "chaos tests assert the lost-sync count",
	"internal/state.Store.WriteSnapshot":     "the canonical cut every equivalence suite compares byte for byte",
	"internal/state.Snapshot.WriteSnapshot":  "the canonical cut every equivalence suite compares byte for byte",
	"internal/state.Store.ColdKeys":          "the segment out-of-core test",
	"internal/state.Store.ColdResolutions":   "the segment cold-resolution differential and the cold-frame chaos tests inspect what scans keep",
	"internal/state/segment.WithRetryPolicy": "chaos tests in other packages set it",
	"internal/state/segment.Store.Resume":    "the only exit from degraded mode, to be wired to an operator verb",
	"internal/metrics.Table.Rows":            "TestAllExperimentsRunAtSmallScale and TestE1–TestE8 in internal/bench, and bench_test.go's runExperiment, read the cells",
	"internal/reason.Reasoner.AddRule":       "the only way to install a Horn rule: TestPublicAPIReasoning, and TestHornRuleJoin and four more in internal/reason",
}

// stdlibMethods are methods the standard library calls through its own
// interfaces, so no selector in this module names them.
var stdlibMethods = []string{
	"String", "Error", "Unwrap", "MarshalJSON", "UnmarshalJSON", "ServeHTTP", "RoundTrip",
	"Len", "Less", "Swap", "Push", "Pop", "Read", "Write", "Close",
}

// TestEveryDeclarationIsReached keeps the module sized to its callers: a
// package-level declaration in statestream.go or under internal/ exists
// only if a binary, an example or the facade's documented surface reaches
// it. Every package, benchmark/ included, is type-checked from source with
// go/types, so each identifier and selector resolves to the one object it
// names.
//
//   - Roots: main of every package main (cmd/, examples/, benchmark/),
//     every init and var _, each statestream.<Name> that an example,
//     bench_test.go, README.md, DESIGN.md or examples/README.md writes,
//     and reachAllowlist.
//   - A live declaration, signature and type included, reaches every
//     declaration its identifiers and selectors resolve to: a promoted
//     method resolves to the embedded type's method, and a method of a
//     generic instantiation to its origin.
//   - The interface rule: a method named in a live interface type, or
//     called through one, is live on every live type T where T or *T
//     implements that interface. This keeps sealed-interface markers and
//     the StateDB methods no example calls.
//   - A method of a live type named in stdlibMethods is live. A constant
//     is live when any member of its group is.
//
// It also checks that the docs name only what exists: every statestream.X
// in those sources is a facade declaration, and every backticked pkg.Name
// or Type.Name in README.md and DESIGN.md resolves under internal/.
func TestEveryDeclarationIsReached(t *testing.T) {
	g, err := loadReachGraph(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	g.markEntryPoints()

	// The facade's documented surface, and the check that the docs name
	// only facade declarations.
	facade := g.pkgs["."].Scope()
	sources, _ := filepath.Glob("examples/*/main.go")
	sources = append(sources, "bench_test.go", "README.md", "DESIGN.md", "examples/README.md")
	facadeRef := regexp.MustCompile(`statestream\.([A-Z]\w*)`)
	for _, src := range sources {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range facadeRef.FindAllStringSubmatch(string(b), -1) {
			obj := facade.Lookup(m[1])
			if obj == nil {
				t.Errorf("%s names statestream.%s, which the facade does not export", src, m[1])
				continue
			}
			g.use(obj)
		}
	}
	g.propagate()

	// Allowlisted roots, each of which must exist and be otherwise unreached.
	for key := range reachAllowlist {
		d := g.byKey[key]
		switch {
		case d == nil:
			t.Errorf("reachAllowlist names %s, which is not declared", key)
		case g.live[d]:
			t.Errorf("%s is reached; drop it from reachAllowlist", key)
		default:
			g.mark(d)
		}
	}
	g.propagate()

	if dead := g.unreached(func(dir string) bool { return dir == "." || strings.HasPrefix(dir, "internal/") }); len(dead) > 0 {
		total := 0
		var lines []string
		for _, d := range dead {
			total += d.lines
			lines = append(lines, fmt.Sprintf("%s (%s, %d lines)", d.key, d.at, d.lines))
		}
		t.Errorf("%d declarations are reached by no binary, example or documented facade name; delete them:\n\t%s\n\ttotal: %d lines",
			len(dead), strings.Join(lines, "\n\t"), total)
	}

	// Backticked pkg.Name and Type.Name in the docs resolve under internal/.
	internalPkg := map[string][]*types.Package{} // package clause -> packages
	typeNamed := map[string][]*types.TypeName{}  // type name -> declarations
	for dir, pkg := range g.pkgs {
		if strings.HasPrefix(dir, "internal/") {
			internalPkg[pkg.Name()] = append(internalPkg[pkg.Name()], pkg)
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				typeNamed[name] = append(typeNamed[name], tn)
			}
		}
	}
	spans := regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	ref := regexp.MustCompile(`\b([A-Za-z]\w*)\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range spans.FindAllString(string(b), -1) {
			for _, m := range ref.FindAllStringSubmatch(span, -1) {
				if pkgs, ok := internalPkg[m[1]]; ok {
					found := false
					for _, pkg := range pkgs {
						found = found || pkg.Scope().Lookup(m[2]) != nil
					}
					if !found {
						t.Errorf("%s names %s.%s, which internal/ does not declare", doc, m[1], m[2])
					}
				} else if tns, ok := typeNamed[m[1]]; ok {
					found := false
					for _, tn := range tns {
						obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), m[2])
						found = found || obj != nil
					}
					if !found {
						t.Errorf("%s names %s.%s, which type %s does not have", doc, m[1], m[2], m[1])
					}
				}
			}
		}
	}
}

// TestReachRulesOnFixture pins the guard's rules on testdata/reach, a
// module with one case per rule. Only lib.Store.Contains is unreached.
// A guard that matched selectors by name alone would keep it, because
// lib.Span.Contains is called.
func TestReachRulesOnFixture(t *testing.T) {
	g, err := loadReachGraph("testdata/reach", "reach")
	if err != nil {
		t.Fatal(err)
	}
	g.markEntryPoints()
	g.propagate()
	var got []string
	for _, d := range g.unreached(func(string) bool { return true }) {
		got = append(got, d.key)
	}
	if want := []string{"lib.Store.Contains"}; !slices.Equal(got, want) {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
}

// reachDecl is one package-level declaration: a func or method, a type,
// a var spec, or a whole const group.
type reachDecl struct {
	dir   string
	key   string // dir.Name, dir.Type.Method, or dir.A,B,… for a const group
	nodes []ast.Node
	root  bool   // main of a package main, an init, or a var _
	at    string // file:line
	lines int    // doc comment included
}

// reachGraph is a module type-checked once from source, and the part of
// it reached so far.
type reachGraph struct {
	pkgs  map[string]*types.Package // dir -> package
	info  *types.Info
	decls []*reachDecl
	byObj map[types.Object]*reachDecl
	byKey map[string]*reachDecl

	live        map[*reachDecl]bool
	queue       []*reachDecl
	liveTypes   []*types.Named
	ifaceCalls  []*types.Func // interface methods named or called
	ifaceSeen   map[*types.Func]bool
	implChecked map[[2]types.Object]bool
}

// loadReachGraph parses and type-checks every package under root, whose
// module path is module. Build tags select files as go build would;
// testdata and dot directories are skipped, and the standard library is
// imported from export data.
func loadReachGraph(root, module string) (*reachGraph, error) {
	fset := token.NewFileSet()
	g := &reachGraph{
		pkgs:        map[string]*types.Package{},
		info:        &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		byObj:       map[types.Object]*reachDecl{},
		byKey:       map[string]*reachDecl{},
		live:        map[*reachDecl]bool{},
		ifaceSeen:   map[*types.Func]bool{},
		implChecked: map[[2]types.Object]bool{},
	}
	type source struct {
		dir   string
		name  string // package clause
		files []*ast.File
	}
	sources := map[string]*source{} // import path -> source
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		src := &source{dir: filepath.ToSlash(rel), name: bp.Name}
		importPath := module
		if src.dir != "." {
			importPath += "/" + src.dir
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			src.files = append(src.files, f)
		}
		sources[importPath] = src
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.Default()
	var check func(path string) (*types.Package, error)
	check = func(path string) (*types.Package, error) {
		src, ok := sources[path]
		if !ok {
			return std.Import(path)
		}
		if pkg := g.pkgs[src.dir]; pkg != nil {
			return pkg, nil
		}
		conf := types.Config{Importer: importerFunc(check)}
		pkg, err := conf.Check(path, fset, src.files, g.info)
		if err != nil {
			return nil, err
		}
		g.pkgs[src.dir] = pkg
		return pkg, nil
	}
	for path, src := range sources {
		if _, err := check(path); err != nil {
			return nil, err
		}
		for _, f := range src.files {
			g.addDecls(fset, src.dir, src.name == "main", f)
		}
	}
	return g, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addDecls records the package-level declarations of one checked file.
func (g *reachGraph) addDecls(fset *token.FileSet, dir string, isMain bool, f *ast.File) {
	add := func(d *reachDecl, doc *ast.CommentGroup, span ast.Node, names ...*ast.Ident) {
		d.dir = dir
		start := fset.Position(span.Pos())
		d.at = fmt.Sprintf("%s:%d", start.Filename, start.Line)
		if doc != nil {
			start = fset.Position(doc.Pos())
		}
		d.lines = fset.Position(span.End()).Line - start.Line + 1
		for _, n := range names {
			if obj := g.info.Defs[n]; obj != nil {
				g.byObj[obj] = d
			}
		}
		g.decls = append(g.decls, d)
		g.byKey[d.key] = d
	}
	for _, dl := range f.Decls {
		switch dl := dl.(type) {
		case *ast.FuncDecl:
			d := &reachDecl{key: dir + "." + dl.Name.Name, nodes: []ast.Node{dl.Type}}
			if dl.Body != nil {
				d.nodes = append(d.nodes, dl.Body)
			}
			if dl.Recv != nil {
				d.nodes = append(d.nodes, dl.Recv)
				recv := g.info.Defs[dl.Name].Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				d.key = dir + "." + recv.(*types.Named).Obj().Name() + "." + dl.Name.Name
			} else {
				d.root = dl.Name.Name == "init" || dl.Name.Name == "main" && isMain
			}
			add(d, dl.Doc, dl, dl.Name)
		case *ast.GenDecl:
			single := !dl.Lparen.IsValid()
			if dl.Tok == token.CONST {
				var names []*ast.Ident
				var keys []string
				for _, s := range dl.Specs {
					for _, n := range s.(*ast.ValueSpec).Names {
						names = append(names, n)
						keys = append(keys, n.Name)
					}
				}
				add(&reachDecl{key: dir + "." + strings.Join(keys, ","), nodes: []ast.Node{dl}}, dl.Doc, dl, names...)
				continue
			}
			for _, s := range dl.Specs {
				var doc *ast.CommentGroup
				var span ast.Node = s
				if single {
					doc, span = dl.Doc, dl
				}
				switch s := s.(type) {
				case *ast.TypeSpec:
					if !single {
						doc = s.Doc
					}
					add(&reachDecl{key: dir + "." + s.Name.Name, nodes: []ast.Node{s}}, doc, span, s.Name)
				case *ast.ValueSpec:
					if !single {
						doc = s.Doc
					}
					d := &reachDecl{nodes: []ast.Node{s}}
					var keys []string
					for _, n := range s.Names {
						keys = append(keys, n.Name)
						d.root = d.root || n.Name == "_"
					}
					d.key = dir + "." + strings.Join(keys, ",")
					add(d, doc, span, s.Names...)
				}
			}
		}
	}
}

// markEntryPoints marks every main, init and var _.
func (g *reachGraph) markEntryPoints() {
	for _, d := range g.decls {
		if d.root {
			g.mark(d)
		}
	}
}

func (g *reachGraph) mark(d *reachDecl) {
	if !g.live[d] {
		g.live[d] = true
		g.queue = append(g.queue, d)
	}
}

// use reaches the declaration obj names. An interface method is recorded
// for the interface rule instead.
func (g *reachGraph) use(obj types.Object) {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			g.ifaceMethod(f)
			return
		}
		obj = f.Origin()
	}
	if d := g.byObj[obj]; d != nil {
		g.mark(d)
	}
}

// propagate marks everything the live declarations reach, to a fixed point.
func (g *reachGraph) propagate() {
	for len(g.queue) > 0 {
		for len(g.queue) > 0 {
			d := g.queue[0]
			g.queue = g.queue[1:]
			for _, n := range d.nodes {
				g.walk(n)
			}
		}
		for _, t := range g.liveTypes {
			for _, m := range g.ifaceCalls {
				pair := [2]types.Object{t.Obj(), m}
				if g.implChecked[pair] {
					continue
				}
				g.implChecked[pair] = true
				iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
					obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
					g.use(obj)
				}
			}
		}
	}
}

// walk reaches what one node of a live declaration names. info.Uses
// holds the object each selector selects as well, so x.M resolves to the
// concrete or promoted method, or to the interface method it calls
// through, exactly as info.Selections would give it.
func (g *reachGraph) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			g.use(g.info.Uses[n])
			if tn, ok := g.info.Defs[n].(*types.TypeName); ok {
				g.liveType(tn)
			}
		case *ast.InterfaceType:
			for _, f := range n.Methods.List {
				for _, name := range f.Names {
					g.ifaceMethod(g.info.Defs[name].(*types.Func))
				}
			}
		}
		return true
	})
}

func (g *reachGraph) ifaceMethod(f *types.Func) {
	if !g.ifaceSeen[f] {
		g.ifaceSeen[f] = true
		g.ifaceCalls = append(g.ifaceCalls, f)
	}
}

// liveType enrolls a declared named type in the interface rule and marks
// its methods that the standard library calls. A generic type is left out
// of the interface rule, since types.Implements needs an instantiation.
func (g *reachGraph) liveType(tn *types.TypeName) {
	t, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() || types.IsInterface(t) {
		return
	}
	if t.TypeParams().Len() == 0 {
		g.liveTypes = append(g.liveTypes, t)
	}
	for i := 0; i < t.NumMethods(); i++ {
		if slices.Contains(stdlibMethods, t.Method(i).Name()) {
			g.use(t.Method(i))
		}
	}
}

// unreached lists the declarations in dirs that keep selects and nothing
// reached, sorted by key.
func (g *reachGraph) unreached(keep func(dir string) bool) []*reachDecl {
	var dead []*reachDecl
	for _, d := range g.decls {
		if !g.live[d] && keep(d.dir) {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	return dead
}
