package segment

// Out-of-core equivalence suite: the spine of the larger-than-RAM
// contract. Residency is unobservable: a store whose residency budget
// forces some or every durable lineage out of RAM must answer every read
// shape — point reads, histories, serial scans, partitioned scans at
// every parallelism, full snapshot serialization, and re-reads of
// snapshots pinned before the eviction — byte-identically to an
// unbudgeted store that kept everything resident. The suite runs the
// recovery tests' mutation schedule against all-resident, partially and
// fully evicted stores and compares, including across write fault-in,
// crash-restart, merges, degraded mode and concurrent eviction.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/element"
	"repro/internal/query"
	"repro/internal/state"
	"repro/internal/temporal"
)

// outOfCoreShapes is the read-shape table every equivalence check runs:
// current belief, attribute-scoped, valid-time pins, belief pins,
// intervals, and the audit shapes.
var outOfCoreShapes = []struct {
	name string
	opts []state.ReadOpt
}{
	{"current", nil},
	{"attr-value", []state.ReadOpt{state.WithAttribute("value")}},
	{"attr-batch", []state.ReadOpt{state.WithAttribute("batch")}},
	{"asof-valid", []state.ReadOpt{state.AsOfValidTime(1500)}},
	{"asof-tx", []state.ReadOpt{state.AsOfTransactionTime(1500)}},
	{"during", []state.ReadOpt{state.DuringValidTime(200, 2600)}},
	{"all-versions", []state.ReadOpt{state.AllVersions()}},
	{"audit", []state.ReadOpt{state.AllVersions(), state.AsOfTransactionTime(1500)}},
	{"attr-pinned", []state.ReadOpt{state.WithAttribute("audit"), state.AsOfValidTime(1005)}},
}

// outOfCoreBounds are the value bounds the equivalence checks push into
// partitioned scans. mutate writes "value" in 0..239 across rounds,
// "batch" in 0..19, and string "audit" values: bounds below and above
// all data, straddling one round's range, and exclusive edges sitting
// exactly on written values.
var outOfCoreBounds = []struct {
	name string
	b    state.ValueBounds
}{
	{"below", state.ValueBounds{Max: -1, HasMax: true}},
	{"above", state.ValueBounds{Min: 1000, HasMin: true}},
	{"straddle", state.ValueBounds{Min: 90, HasMin: true, Max: 150, HasMax: true}},
	{"excl-edges", state.ValueBounds{Min: 139, HasMin: true, MinExcl: true, Max: 200, HasMax: true, MaxExcl: true}},
	{"excl-top", state.ValueBounds{Min: 239, HasMin: true, MinExcl: true}},
	{"incl-top", state.ValueBounds{Min: 239, HasMin: true}},
	{"batch-low", state.ValueBounds{Max: 5, HasMax: true, MaxExcl: true}},
}

// outOfCoreQueries are the prepared queries assertSameCut executes on
// both handles. The EXISTS residual makes Exec point-read the cut in
// the middle of its scan, through the cold loader on a budgeted twin.
var outOfCoreQueries = []string{
	"SELECT entity, value FROM value",
	"SELECT entity, value FROM value WHERE EXISTS audit(entity)",
	"SELECT entity, value FROM value ASOF 1500",
	"SELECT entity, start, end, recorded, superseded FROM value HISTORY SYSTEM TIME ASOF 1500",
	"SELECT count(*), sum(value) FROM batch",
}

// keepBounds is b as a row predicate: numeric values inside the bounds.
func keepBounds(b state.ValueBounds) func(*element.Fact) bool {
	return func(f *element.Fact) bool {
		v, ok := f.Value.AsFloat()
		return ok && !b.Excludes(v, v)
	}
}

// filterFacts returns the facts keep accepts, in order.
func filterFacts(facts []*element.Fact, keep func(*element.Fact) bool) []*element.Fact {
	var out []*element.Fact
	for _, f := range facts {
		if keep(f) {
			out = append(out, f)
		}
	}
	return out
}

// sameFacts is reflect.DeepEqual with nil and empty results equal.
func sameFacts(a, b []*element.Fact) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// mutateKeys enumerates every (entity, attribute) pair the mutate
// schedule touches — the point-read corpus of the equivalence checks.
func mutateKeys() []element.FactKey {
	var keys []element.FactKey
	for i := 0; i < 10; i++ {
		keys = append(keys, element.FactKey{Entity: fmt.Sprintf("k%02d", i), Attribute: "value"})
	}
	for i := 0; i < 5; i++ {
		keys = append(keys, element.FactKey{Entity: fmt.Sprintf("k%02d", i), Attribute: "audit"})
	}
	for i := 0; i < 7; i++ {
		keys = append(keys, element.FactKey{Entity: fmt.Sprintf("b%02d", i), Attribute: "batch"})
	}
	keys = append(keys, element.FactKey{Entity: "nope", Attribute: "value"}) // absent everywhere
	return keys
}

// pointOpts are the pins of the per-key Find/History checks.
var pointOpts = [][]state.ReadOpt{
	nil,
	{state.AsOfValidTime(1500)},
	{state.AsOfTransactionTime(1500)},
	{state.AllVersions()},
}

// keyReader is the read surface a live store and a pinned snapshot
// share.
type keyReader interface {
	Find(entity, attr string, opts ...state.ReadOpt) (*element.Fact, bool)
	History(entity, attr string, opts ...state.ReadOpt) []*element.Fact
	List(opts ...state.ReadOpt) []*element.Fact
}

// assertSameReads compares List over every shape and per-key
// Find/History under every point pin.
func assertSameReads(t *testing.T, leg string, got, want keyReader) {
	t.Helper()
	for _, sh := range outOfCoreShapes {
		if g, w := got.List(sh.opts...), want.List(sh.opts...); !sameFacts(g, w) {
			t.Fatalf("%s: List(%s) diverged: %d vs %d facts", leg, sh.name, len(g), len(w))
		}
	}
	for _, key := range mutateKeys() {
		for _, opts := range pointOpts {
			gf, gok := got.Find(key.Entity, key.Attribute, opts...)
			wf, wok := want.Find(key.Entity, key.Attribute, opts...)
			if gok != wok || !reflect.DeepEqual(gf, wf) {
				t.Fatalf("%s: Find(%s) diverged: (%v,%v) vs (%v,%v)", leg, key, gf, gok, wf, wok)
			}
			if gh, wh := got.History(key.Entity, key.Attribute, opts...), want.History(key.Entity, key.Attribute, opts...); !sameFacts(gh, wh) {
				t.Fatalf("%s: History(%s) diverged: %d vs %d", leg, key, len(gh), len(wh))
			}
		}
	}
}

// pinnedCut is a snapshot handle and the store it pins. A handle has no
// History, so the store answers it at the pin.
type pinnedCut struct {
	*state.Snapshot
	store *state.Store
}

func (c pinnedCut) History(entity, attr string, opts ...state.ReadOpt) []*element.Fact {
	return c.store.History(entity, attr, append([]state.ReadOpt{state.AsOfTransactionTime(c.At())}, opts...)...)
}

// assertSameCut compares two pinned cuts across the whole read surface:
// the dump, every scan shape serially and partitioned at several
// parallelisms, the per-key reads, and prepared queries.
func assertSameCut(t *testing.T, leg string, got, want pinnedCut) {
	t.Helper()
	var gb, wb bytes.Buffer
	if err := got.WriteSnapshot(&gb); err != nil {
		t.Fatalf("%s: WriteSnapshot: %v", leg, err)
	}
	if err := want.WriteSnapshot(&wb); err != nil {
		t.Fatalf("%s: WriteSnapshot: %v", leg, err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: WriteSnapshot diverged (%d vs %d bytes)", leg, gb.Len(), wb.Len())
	}
	assertSameReads(t, leg, got, want)
	for _, src := range outOfCoreQueries {
		p, err := query.Prepare(src)
		if err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}
		for _, par := range []int{1, 4} {
			g, gerr := p.Exec(query.ExecEnv{Store: got.Snapshot, Parallelism: par})
			w, werr := p.Exec(query.ExecEnv{Store: want.Snapshot, Parallelism: par})
			if gerr != nil || werr != nil {
				t.Fatalf("%s: Exec(%q, par=%d): %v / %v", leg, src, par, gerr, werr)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: Exec(%q, par=%d) diverged:\n got %v\nwant %v", leg, src, par, g, w)
			}
		}
	}
	for _, sh := range outOfCoreShapes {
		for _, par := range []int{1, 2, 4, 8} {
			if g := got.ScanShards(par, sh.opts...); !sameFacts(g, want.List(sh.opts...)) {
				t.Fatalf("%s: ScanShards(%d, %s) diverged", leg, par, sh.name)
			}
		}
		// Value-bounded scans: cold frames are pruned by their persisted
		// envelopes, resident heads by theirs, so the unfiltered output
		// (which lineages survive pruning) must match too, and the
		// filtered output must equal the unbounded scan filtered by the
		// same predicate.
		for _, vb := range outOfCoreBounds {
			keep := keepBounds(vb.b)
			filtered := filterFacts(want.List(sh.opts...), keep)
			for _, par := range []int{1, 2, 4, 8} {
				spec := state.ScanSpec{Opts: sh.opts, Parallelism: par, Bounds: vb.b}
				g, _ := got.ScanPartitioned(spec)
				if w, _ := want.ScanPartitioned(spec); !sameFacts(g, w) {
					t.Fatalf("%s: ScanPartitioned(%d, %s, %s) diverged: %d vs %d facts", leg, par, sh.name, vb.name, len(g), len(w))
				}
				spec.Keep = keep
				if g, _ := got.ScanPartitioned(spec); !sameFacts(g, filtered) {
					t.Fatalf("%s: filtered ScanPartitioned(%d, %s, %s) diverged: %d vs %d facts", leg, par, sh.name, vb.name, len(g), len(filtered))
				}
			}
		}
	}
}

// assertEquivalent compares a budgeted (possibly fully evicted) store
// against the all-resident oracle across the whole read surface: the
// live store's reads, then a fresh snapshot of each.
func assertEquivalent(t *testing.T, leg string, cold, oracle *Store) {
	t.Helper()
	assertSameReads(t, leg, cold, oracle)
	assertSameCut(t, leg, pinnedCut{cold.Mem().Snapshot(), cold.Mem()}, pinnedCut{oracle.Mem().Snapshot(), oracle.Mem()})
}

// assertColdSeam checks the seam identity the resident-first gather
// rests on: every catalog key whose newest frame holds records is either
// resident or published cold. Stale cold marks (keys resident again) are
// allowed; a live frame that is neither would vanish from every scan. A
// scan lists exactly the resident and the cold keys, so a key that is not
// cold is resident when a scan lists it.
func assertColdSeam(t *testing.T, d *Store) {
	t.Helper()
	cold := map[element.FactKey]bool{}
	for _, key := range d.Mem().ColdKeys() {
		cold[key] = true
	}
	listed := map[element.FactKey]bool{}
	for _, f := range d.Mem().List(state.AllVersions()) {
		listed[f.Key()] = true
	}
	cat := d.cat.Load()
	seen := map[element.FactKey]bool{}
	for i := len(cat.segments) - 1; i >= 0; i-- {
		r := cat.segments[i]
		for key, ref := range r.index {
			if seen[key] {
				continue
			}
			seen[key] = true
			records, err := r.readLineage(key, ref.off, new(state.ColdBuf))
			if err != nil {
				t.Fatalf("seam: read %s: %v", key, err)
			}
			if len(records) > 0 && !cold[key] && !listed[key] {
				t.Fatalf("seam: %s has a live frame but is neither resident nor cold", key)
			}
		}
	}
}

// evicted reports whether (entity, attr) is in st's evicted set: out of
// RAM, answered from its frame, and faulted in by the next write. A
// lineage leaves RAM only by eviction, so a written key that is not
// evicted is resident.
func evicted(st *state.Store, entity, attr string) bool {
	return slices.Contains(evictedKeys(st), element.FactKey{Entity: entity, Attribute: attr})
}

// TestOutOfCoreEquivalence: residency is unobservable. The same
// mutation schedule drives an unbudgeted oracle and two budgeted twins:
// one evicts every durable lineage after each flush, the other evicts
// down to an eighth of the oracle's resident bytes, so its gathers mix
// resident and cold lineages. Each twin must stay byte-identical to the
// oracle across scans, point reads, snapshots, write fault-in (including
// a delete to an evicted key), a crash-restart that reopens at the
// twin's budget, and a merge of the whole chain; the
// fully evicted twin must also answer identically while degraded.
// Snapshots pinned on every store at each step — before the first
// flush, after each flush, eviction and merge — are re-read at the end
// and must still equal the oracle's handle from the same step.
func TestOutOfCoreEquivalence(t *testing.T) {
	const rounds = 3
	oracle, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open oracle: %v", err)
	}
	defer oracle.Close()
	// A twin is one budgeted store; budget is the residency target its
	// evictions aim at, and 0 evicts every durable lineage.
	type twin struct {
		name   string
		dir    string
		budget func() int64
		d      *Store
	}
	open := func(tw *twin) *Store {
		d, err := Open(tw.dir, WithResidencyBudget(max(tw.budget(), 1)))
		if err != nil {
			t.Fatalf("open %s: %v", tw.name, err)
		}
		return d
	}
	twins := []*twin{
		{name: "evicted", budget: func() int64 { return 0 }},
		{name: "partial", budget: func() int64 { return oracle.Mem().ResidentBytes() / 8 }},
	}
	for _, tw := range twins {
		tw.dir = t.TempDir()
		tw.d = open(tw)
	}
	defer func() {
		for _, tw := range twins {
			tw.d.Close()
		}
	}()
	all := func() []*Store { return []*Store{oracle, twins[0].d, twins[1].d} }
	evict := func() {
		for _, tw := range twins {
			tw.d.EvictToBudget(tw.budget())
			assertColdSeam(t, tw.d)
		}
	}
	flush := func(step string) {
		for _, d := range all() {
			if err := d.Flush(); err != nil {
				t.Fatalf("%s: flush: %v", step, err)
			}
		}
	}

	// Each pin holds one step's handles: the oracle's first, then each
	// twin's. Every store's clock advances identically, so the handles
	// of one step share their instant.
	type pinned struct {
		step    string
		handles []*state.Snapshot
	}
	var pins []pinned
	pin := func(step string) {
		want := oracle.Mem().Snapshot()
		p := pinned{step: step, handles: []*state.Snapshot{want}}
		for _, tw := range twins {
			sn := tw.d.Mem().Snapshot()
			if sn.At() != want.At() {
				t.Fatalf("%s: %s pinned at %d, oracle at %d", step, tw.name, sn.At(), want.At())
			}
			p.handles = append(p.handles, sn)
		}
		pins = append(pins, p)
	}

	for r := 0; r < rounds; r++ {
		mutate(t, storeBatch{oracle}, r)
		for _, tw := range twins {
			mutate(t, storeBatch{tw.d}, r)
		}
		if r == 0 {
			pin("pre-flush")
		}
		flush(fmt.Sprintf("round %d", r))
		pin(fmt.Sprintf("flush-%d", r))
		evict()
		pin(fmt.Sprintf("evict-%d", r))
	}
	for _, tw := range twins {
		if n := tw.d.Info().EvictedLineages; n == 0 {
			t.Fatalf("%s: budgeted store evicted nothing — the suite is not testing the cold path", tw.name)
		}
	}
	if n := twins[0].d.Info().ResidentLineages; n != 0 {
		t.Fatalf("full eviction left %d lineages resident", n)
	}
	if n := twins[1].d.Info().ResidentLineages; n == 0 {
		t.Fatal("partial eviction left nothing resident — gathers are not mixing")
	}
	for _, tw := range twins {
		assertEquivalent(t, tw.name, tw.d, oracle)
		if tw.d.Info().ScanFrames == 0 {
			t.Fatalf("%s: equivalence checks never read a cold frame — the cold path did not run", tw.name)
		}
	}

	// Degraded mode stops flushes and WAL appends, never reads: the
	// committed segments answer exactly as they did while healthy.
	cold := twins[0].d
	cold.enterDegraded(errors.New("scripted"), false)
	assertEquivalent(t, "degraded", cold, oracle)
	cold.exitDegraded()

	// Write fault-in: a put AND a delete against evicted keys must
	// restore the full history before mutating — a delete applied to a
	// missing lineage would silently no-op and diverge.
	for _, d := range all() {
		if err := d.Put("k01", "value", element.Int(4242)); err != nil {
			t.Fatalf("fault-in put: %v", err)
		}
		if err := d.Delete("k02", "value"); err != nil {
			t.Fatalf("fault-in delete: %v", err)
		}
	}
	for _, tw := range twins {
		assertEquivalent(t, tw.name+" fault-in", tw.d, oracle)
		assertColdSeam(t, tw.d)
	}

	// Crash-restart: flush, evict again, flush, kill, reopen. The
	// reopened store must both stay byte-identical and honour its
	// budget: the load stops once the budget is reached, so it comes
	// back out-of-core with at least the budget resident. A handle is its
	// store plus its pin, so the reopened store answers for the handles
	// the killed one issued.
	flush("pre-restart")
	evict()
	flush("post-evict")
	for i, tw := range twins {
		tw.d.Abandon()
		tw.d = open(tw)
		if info := tw.d.Info(); info.EvictedLineages == 0 || info.ResidentBytes < tw.d.budget {
			t.Fatalf("%s: reopen at budget %d kept %d bytes resident and %d lineages cold",
				tw.name, tw.d.budget, info.ResidentBytes, info.EvictedLineages)
		}
		for _, p := range pins {
			p.handles[i+1] = tw.d.Mem().SnapshotAt(p.handles[i+1].At())
		}
		assertEquivalent(t, tw.name+" restart", tw.d, oracle)
		assertColdSeam(t, tw.d)
	}
	pin("restart")

	// Merge: fold the whole chain into one segment, evict again, and
	// compare — the merged frames carry their envelopes, so bounded
	// scans keep pruning per key after the merge.
	for _, tw := range twins {
		compactAll(t, tw.d)
	}
	pin("merge")
	evict()
	pin("merge-evict")
	if n := twins[0].d.Info().ResidentLineages; n != 0 {
		t.Fatalf("post-merge eviction left %d lineages resident", n)
	}
	for _, tw := range twins {
		assertEquivalent(t, tw.name+" merged", tw.d, oracle)
	}

	// Every pinned snapshot still reads as the oracle's from its step:
	// neither eviction, restart nor merge changed a cut.
	for _, p := range pins {
		for i, tw := range twins {
			assertSameCut(t, tw.name+" pinned at "+p.step, pinnedCut{p.handles[i+1], tw.d.Mem()}, pinnedCut{p.handles[0], oracle.Mem()})
		}
	}
}

// compactAll merges d's whole chain into one segment; Compact waits for
// any merge step in flight instead of failing busy.
func compactAll(t testing.TB, d *Store) {
	t.Helper()
	if err := d.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if n := d.Info().Segments; n != 1 {
		t.Fatalf("compact left %d segments, want 1", n)
	}
}

// TestOutOfCoreMergedFramePruning: N keys with value = i, flushed as
// value-disjoint segments and merged into one, then fully evicted. The
// merged segment's value envelope covers every key, so only per-frame
// envelopes can prune: a `value > N-10` scan must return the resident
// answer while reading exactly the 9 matching frames and pruning the
// other N-9 unread.
func TestOutOfCoreMergedFramePruning(t *testing.T) {
	const n, flushes = 512, 8
	d, err := Open(t.TempDir(), WithResidencyBudget(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	for i := 0; i < n; i++ {
		if err := d.Put(fmt.Sprintf("k%04d", i), "value", element.Int(int64(i)),
			state.WithValidTime(temporal.Instant(i+1)),
			state.WithTransactionTime(temporal.Instant(i+1))); err != nil {
			t.Fatalf("put: %v", err)
		}
		if (i+1)%(n/flushes) == 0 {
			if err := d.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
		}
	}
	compactAll(t, d)
	spec := state.ScanSpec{Parallelism: 4, Bounds: state.ValueBounds{Min: n - 10, HasMin: true, MinExcl: true}}
	want, _ := d.Mem().Snapshot().ScanPartitioned(spec)
	if len(want) != 9 {
		t.Fatalf("resident scan returned %d facts, want 9", len(want))
	}
	d.EvictToBudget(0)
	if r := d.Info().ResidentLineages; r != 0 {
		t.Fatalf("eviction left %d lineages resident", r)
	}
	before := d.Info()
	got, _ := d.Mem().Snapshot().ScanPartitioned(spec)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cold scan diverged from the resident answer: %d vs %d facts", len(got), len(want))
	}
	after := d.Info()
	if read := after.ScanFrames - before.ScanFrames; read != 9 {
		t.Fatalf("cold scan read %d frames, want 9", read)
	}
	if pruned := after.ScanFramesPruned - before.ScanFramesPruned; pruned != n-9 {
		t.Fatalf("cold scan pruned %d frames, want %d", pruned, n-9)
	}
}

// TestOutOfCoreColdStartBudget: reopening a directory larger than the
// budget must come up within it — older frames stay on disk, marked
// evicted — while every read still resolves.
func TestOutOfCoreColdStartBudget(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for r := 0; r < 3; r++ {
		mutate(t, storeBatch{d}, r)
		// Widen the key space well past one cold-start load chunk so the
		// budget can actually cut the load short mid-segment.
		var puts []state.BatchPut
		for i := 0; i < 150; i++ {
			puts = append(puts, state.BatchPut{
				Entity: fmt.Sprintf("wide%03d", i), Attr: "w",
				Value: element.Int(int64(r)), At: temporal.Instant(r*1000 + 600 + i),
			})
		}
		if err := d.Mem().PutBatch(puts); err != nil {
			t.Fatalf("putbatch: %v", err)
		}
		if err := d.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	full := snapshotBytes(t, d.Mem())
	resident := d.Mem().ResidentBytes()
	d.Abandon()

	budget := resident / 4
	rec, err := Open(dir, WithResidencyBudget(budget))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	info := rec.Info()
	if info.EvictedLineages == 0 {
		t.Fatalf("budget %d of %d bytes loaded everything resident: %+v", budget, resident, info)
	}
	if got := snapshotBytes(t, rec.Mem()); !bytes.Equal(got, full) {
		t.Fatalf("budgeted cold start diverged (%d vs %d bytes)", len(got), len(full))
	}
}

// TestOutOfCoreSteadyStateBounded: under continuous ingest with flush
// pulses, the resident working set stays near the budget instead of
// growing with total state — the "ingest keeps serving while history
// spills to disk" contract.
func TestOutOfCoreSteadyStateBounded(t *testing.T) {
	const budget = 16 << 10
	d, err := Open(t.TempDir(), WithResidencyBudget(budget), WithFlushEvery(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	peak := int64(0)
	for r := 0; r < 60; r++ {
		var puts []state.BatchPut
		for i := 0; i < 64; i++ {
			puts = append(puts, state.BatchPut{
				Entity: fmt.Sprintf("s%04d", r*64+i), Attr: "v",
				Value: element.Int(int64(r)), At: temporal.Instant(r*100 + i + 1),
			})
		}
		if err := d.Mem().PutBatch(puts); err != nil {
			t.Fatalf("putbatch: %v", err)
		}
		if err := d.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		d.EvictToBudget(budget)
		if b := d.Mem().ResidentBytes(); b > peak {
			peak = b
		}
	}
	// Steady state: resident bytes bounded by the budget plus one
	// round's worth of not-yet-durable writes, not by total state.
	if got := d.Mem().ResidentBytes(); got > budget {
		t.Fatalf("resident %d bytes after evictions, budget %d", got, budget)
	}
	if info := d.Info(); info.EvictedLineages == 0 {
		t.Fatalf("nothing evicted at steady state: %+v", info)
	}
	// Everything still answers: the full key range, resident or not.
	if n := len(d.List(state.WithAttribute("v"))); n != 60*64 {
		t.Fatalf("List sees %d of %d ingested keys", n, 60*64)
	}
}

// TestOutOfCoreRaceStress drives ingest, flush+evict pulses, partitioned
// scans, and point reads concurrently (run under -race in CI), then
// compares the settled state byte for byte with a serially built oracle —
// eviction racing everything must never lose or duplicate a write.
func TestOutOfCoreRaceStress(t *testing.T) {
	const workers, roundsPer, keysPer = 4, 25, 8
	d, err := Open(t.TempDir(), WithResidencyBudget(2048), WithFlushEvery(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Transaction times must be globally monotonic at commit time: a
	// write whose explicit At lands at or below an already-flushed cut
	// forfeits durability by contract (see FlushCut), which would make
	// the oracle comparison meaningless. Each batch draws a fresh block
	// from seq, and flushMu keeps a flush from pinning its cut while a
	// drawn block is still uncommitted. The issued batches are collected
	// so the oracle can replay exactly what the raced store ingested.
	var seq atomic.Int64
	var flushMu sync.RWMutex
	var issuedMu sync.Mutex
	var issued [][]state.BatchPut

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < roundsPer; r++ {
				flushMu.RLock()
				base := seq.Add(keysPer) - keysPer
				puts := make([]state.BatchPut, 0, keysPer)
				for i := 0; i < keysPer; i++ {
					puts = append(puts, state.BatchPut{
						Entity: fmt.Sprintf("w%d-k%02d", w, i), Attr: "v",
						Value: element.Int(int64(r*10 + i)), At: temporal.Instant(base + int64(i) + 1),
					})
				}
				err := d.Mem().PutBatch(puts)
				flushMu.RUnlock()
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				issuedMu.Lock()
				issued = append(issued, puts)
				issuedMu.Unlock()
			}
		}(w)
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // flush + evict pulser
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				flushMu.Lock()
				err := d.Flush()
				flushMu.Unlock()
				if err != nil {
					t.Errorf("flush: %v", err)
					return
				}
				d.EvictToBudget(0)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	go func() { // scans and point reads racing ingest and eviction
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// No equality asserts here: BatchPut's explicit At is a
				// transaction time, so racing ingest legally lands records
				// below a pin taken moments earlier — two reads of the
				// same snapshot may differ while writers run. This phase
				// only exercises the paths under -race.
				sn := d.Mem().Snapshot()
				sn.List(state.WithAttribute("v"))
				sn.ScanShards(4, state.WithAttribute("v"))
				d.Find("w0-k00", "v")
				d.History("w1-k01", "v", state.AllVersions())
			}
		}
	}()
	wg.Wait()
	// Writes quiesced, pulser still evicting: now snapshots are stable,
	// so serial and partitioned scans of one snapshot must agree even as
	// eviction keeps yanking lineages out of RAM beneath them.
	for i := 0; i < 50 && !t.Failed(); i++ {
		sn := d.Mem().Snapshot()
		serial := sn.List(state.WithAttribute("v"))
		if par := sn.ScanShards(4, state.WithAttribute("v")); !reflect.DeepEqual(par, serial) {
			t.Fatalf("iter %d: partitioned scan diverged from serial under eviction race (%d vs %d facts)", i, len(par), len(serial))
		}
	}
	close(stop)
	aux.Wait()
	if t.Failed() {
		return
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	d.EvictToBudget(0)

	// The oracle: the exact batches the raced store ingested, replayed
	// serially in transaction-time order into a store with no durability
	// and no eviction.
	sort.Slice(issued, func(i, j int) bool { return issued[i][0].At < issued[j][0].At })
	om := state.NewStore()
	for _, puts := range issued {
		if err := om.PutBatch(puts); err != nil {
			t.Fatalf("oracle: %v", err)
		}
	}
	var want bytes.Buffer
	if err := om.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, d.Mem()); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("raced store diverged from serial oracle (%d vs %d bytes)", len(got), want.Len())
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
