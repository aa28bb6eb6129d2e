package statestream_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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
	"internal/state/segment.WithRetryPolicy": "chaos tests in other packages set it",
	"internal/state/segment.Store.Resume":    "the only exit from degraded mode, to be wired to an operator verb",
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
// it. The scan uses go/parser alone and errs toward keeping code, since a
// name collision counts as a use.
//
//   - Roots: main of every package main (cmd/, examples/, benchmark/),
//     every init and var _, each statestream.<Name> that an example,
//     bench_test.go, README.md, DESIGN.md or examples/README.md writes,
//     and reachAllowlist.
//   - Inside a live declaration, signature and type included, an
//     unqualified identifier reaches the same-package declaration of that
//     name, pkg.Name on an import reaches that package's Name, and any
//     other .Name reaches every method called Name.
//   - A method is live when its receiver type is live and its name is
//     reached: by a selector, by a live interface declaration, or by
//     stdlibMethods. A constant is live when any member of its group is.
//
// It also checks that the docs name only what exists: every statestream.X
// in those sources is a facade declaration, and every backticked pkg.Name
// or Type.Name in README.md and DESIGN.md resolves under internal/.
func TestEveryDeclarationIsReached(t *testing.T) {
	type decl struct {
		dir, recv string
		names     []string // a const group has several
		isType    bool
		nodes     []ast.Node
		imports   map[string]string // import name -> dir, in the declaring file
		pos       token.Pos
	}
	fset := token.NewFileSet()
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	pkgName := map[string]string{} // dir -> package clause
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files = append(files, file{dir, f})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var all, roots []*decl
	byName := map[string]map[string][]*decl{} // dir -> name -> declarations
	methods := map[string][]*decl{}           // method name -> methods
	methodsOf := map[string][]*decl{}         // dir.Type -> methods
	members := map[string]map[string]bool{}   // type name -> fields and methods
	embeds := map[string][]string{}           // type name -> embedded type names
	member := func(typ, name string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][name] = true
	}
	for _, fl := range files {
		imports := map[string]string{}
		for _, is := range fl.f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			if p != "repro" && !strings.HasPrefix(p, "repro/") {
				continue
			}
			dir := strings.TrimPrefix(strings.TrimPrefix(p, "repro"), "/")
			if dir == "" {
				dir = "."
			}
			name := pkgName[dir]
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = dir
		}
		add := func(d *decl, root bool) {
			d.dir, d.imports = fl.dir, imports
			all = append(all, d)
			if root {
				roots = append(roots, d)
			}
			if d.recv != "" {
				methods[d.names[0]] = append(methods[d.names[0]], d)
				methodsOf[d.dir+"."+d.recv] = append(methodsOf[d.dir+"."+d.recv], d)
				member(d.recv, d.names[0])
				return
			}
			if byName[d.dir] == nil {
				byName[d.dir] = map[string][]*decl{}
			}
			for _, n := range d.names {
				byName[d.dir][n] = append(byName[d.dir][n], d)
			}
		}
		for _, dl := range fl.f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				d := &decl{names: []string{dl.Name.Name}, pos: dl.Pos(), nodes: []ast.Node{dl.Type}}
				if dl.Body != nil {
					d.nodes = append(d.nodes, dl.Body)
				}
				if dl.Recv != nil {
					d.nodes = append(d.nodes, dl.Recv)
					d.recv = recvTypeName(dl.Recv.List[0].Type)
				}
				main := dl.Name.Name == "main" && fl.f.Name.Name == "main"
				add(d, d.recv == "" && (main || dl.Name.Name == "init"))
			case *ast.GenDecl:
				if dl.Tok == token.CONST {
					d := &decl{pos: dl.Pos(), nodes: []ast.Node{dl}}
					for _, s := range dl.Specs {
						for _, n := range s.(*ast.ValueSpec).Names {
							d.names = append(d.names, n.Name)
						}
					}
					add(d, false)
					continue
				}
				for _, s := range dl.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						d := &decl{names: []string{s.Name.Name}, isType: true, pos: s.Pos(), nodes: []ast.Node{s}}
						add(d, false)
						var fields *ast.FieldList
						switch tt := s.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields
						case *ast.InterfaceType:
							fields = tt.Methods
						}
						if fields != nil {
							for _, f := range fields.List {
								for _, n := range f.Names {
									member(s.Name.Name, n.Name)
								}
								if len(f.Names) == 0 {
									embeds[s.Name.Name] = append(embeds[s.Name.Name], recvTypeName(f.Type))
								}
							}
						}
					case *ast.ValueSpec:
						d := &decl{pos: s.Pos(), nodes: []ast.Node{s}}
						blank := false
						for _, n := range s.Names {
							d.names = append(d.names, n.Name)
							blank = blank || n.Name == "_"
						}
						add(d, blank)
					}
				}
			}
		}
	}

	live := map[*decl]bool{}
	liveType := map[string]bool{} // dir.Type
	reached := map[string]bool{}  // method names
	var queue []*decl
	mark := func(d *decl) {
		if !live[d] {
			live[d] = true
			queue = append(queue, d)
		}
	}
	reachName := func(dir, name string) {
		for _, d := range byName[dir][name] {
			mark(d)
		}
	}
	reachMethod := func(name string) {
		if reached[name] {
			return
		}
		reached[name] = true
		for _, m := range methods[name] {
			if liveType[m.dir+"."+m.recv] {
				mark(m)
			}
		}
	}
	var walk func(d *decl, n ast.Node)
	walk = func(d *decl, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if dir, ok := d.imports[id.Name]; ok {
						reachName(dir, n.Sel.Name)
						return false
					}
				}
				reachMethod(n.Sel.Name)
				walk(d, n.X)
				return false
			case *ast.InterfaceType:
				for _, f := range n.Methods.List {
					for _, name := range f.Names {
						reachMethod(name.Name)
					}
				}
			case *ast.Ident:
				reachName(d.dir, n.Name)
			}
			return true
		})
	}
	drain := func() {
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			if d.isType {
				liveType[d.dir+"."+d.names[0]] = true
				for _, m := range methodsOf[d.dir+"."+d.names[0]] {
					if reached[m.names[0]] {
						mark(m)
					}
				}
			}
			for _, n := range d.nodes {
				walk(d, n)
			}
		}
	}
	for _, name := range stdlibMethods {
		reachMethod(name)
	}
	for _, d := range roots {
		mark(d)
	}

	// The facade's documented surface, and the check that the docs name
	// only facade declarations.
	sources, _ := filepath.Glob("examples/*/main.go")
	sources = append(sources, "bench_test.go", "README.md", "DESIGN.md", "examples/README.md")
	facadeRef := regexp.MustCompile(`statestream\.([A-Z]\w*)`)
	for _, src := range sources {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range facadeRef.FindAllStringSubmatch(string(b), -1) {
			if len(byName["."][m[1]]) == 0 {
				t.Errorf("%s names statestream.%s, which the facade does not export", src, m[1])
			}
			reachName(".", m[1])
		}
	}
	drain()

	// Allowlisted roots, each of which must exist and be otherwise unreached.
	keyOf := func(d *decl) string {
		if d.recv != "" {
			return d.dir + "." + d.recv + "." + d.names[0]
		}
		return d.dir + "." + strings.Join(d.names, ",")
	}
	allowed := map[string]bool{}
	for _, d := range all {
		if _, ok := reachAllowlist[keyOf(d)]; ok {
			allowed[keyOf(d)] = true
			if live[d] {
				t.Errorf("%s is reached; drop it from reachAllowlist", keyOf(d))
			}
			mark(d)
		}
	}
	for key := range reachAllowlist {
		if !allowed[key] {
			t.Errorf("reachAllowlist names %s, which is not declared", key)
		}
	}
	drain()

	var dead []string
	for _, d := range all {
		if !live[d] && (d.dir == "." || strings.HasPrefix(d.dir, "internal/")) {
			dead = append(dead, fmt.Sprintf("%s (%s)", keyOf(d), fset.Position(d.pos)))
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declarations are reached by no binary, example or documented facade name; delete them:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}

	// Backticked pkg.Name and Type.Name in the docs resolve under internal/.
	internalPkg := map[string][]string{} // package clause -> dirs
	for dir, name := range pkgName {
		if strings.HasPrefix(dir, "internal/") {
			internalPkg[name] = append(internalPkg[name], dir)
		}
	}
	var hasMember func(typ, name string, depth int) bool
	hasMember = func(typ, name string, depth int) bool {
		if members[typ][name] {
			return true
		}
		for _, e := range embeds[typ] {
			if depth < 4 && hasMember(e, name, depth+1) {
				return true
			}
		}
		return false
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
				if dirs, ok := internalPkg[m[1]]; ok {
					found := false
					for _, dir := range dirs {
						found = found || len(byName[dir][m[2]]) > 0
						for _, d := range methods[m[2]] {
							found = found || d.dir == dir
						}
					}
					if !found {
						t.Errorf("%s names %s.%s, which internal/ does not declare", doc, m[1], m[2])
					}
				} else if _, ok := members[m[1]]; ok && !hasMember(m[1], m[2], 0) {
					t.Errorf("%s names %s.%s, which type %s does not have", doc, m[1], m[2], m[1])
				}
			}
		}
	}
}

// recvTypeName is the type name in a receiver or embedded field: T, *T,
// T[P] or pkg.T.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
