package segment

// Open-value pruning differential: a value-bounded read that selects the
// open version skips lineages (resident heads) and frames (cold keys)
// whose open value the bounds exclude. The skip must be unobservable:
// every bounded partitioned scan equals the store's own unpruned gather
// filtered by the bounds — resident, evicted at budget 0, and evicted
// from segments whose footers carry no open values, at snapshots pinned
// before, at and after each flush, whatever the lineage's history
// (retroactive corrections, deletes that leave no open version,
// non-numeric values, out-of-order explicit transaction times).

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/element"
	"repro/internal/frame"
	"repro/internal/state"
	"repro/internal/temporal"
)

// openPruneBounds straddle the generated values (0..99 and strings) in
// every way the envelope and open-value tests can split them.
var openPruneBounds = []state.ValueBounds{
	{Min: 50, HasMin: true, MinExcl: true},
	{Max: 20, HasMax: true},
	{Min: 30, HasMin: true, Max: 60, HasMax: true, MaxExcl: true},
	{Min: 97, HasMin: true},
	{Min: 42, HasMin: true, Max: 42, HasMax: true},
}

// openPruneOp is one generated write.
type openPruneOp struct {
	entity, attr string
	value        element.Value
	del          bool
	from, to     temporal.Instant // to == 0: open-ended
	tx           temporal.Instant
}

// apply runs op against d.
func (op openPruneOp) apply(t *testing.T, d *Store) {
	t.Helper()
	opts := []state.WriteOpt{state.WithValidTime(op.from), state.WithTransactionTime(op.tx)}
	if op.to != 0 {
		opts = append(opts, state.WithEndValidTime(op.to))
	}
	var err error
	if op.del {
		err = d.Delete(op.entity, op.attr, opts...)
	} else {
		err = d.Put(op.entity, op.attr, op.value, opts...)
	}
	if err != nil {
		t.Fatalf("%+v: %v", op, err)
	}
}

// genOpenPruneOps draws n writes with transaction times in (base,
// base+n*10], shuffled so that a lineage's writes often arrive out of
// transaction order. Most writes are current updates; the rest are
// retroactive corrections of a closed past interval, deletes from a
// valid instant on, and string values.
func genOpenPruneOps(rng *rand.Rand, base temporal.Instant, n int) []openPruneOp {
	txs := rng.Perm(n)
	ops := make([]openPruneOp, n)
	for i := range ops {
		op := openPruneOp{
			entity: fmt.Sprintf("e%02d", rng.Intn(24)),
			attr:   []string{"v", "w"}[rng.Intn(2)],
			value:  element.Int(int64(rng.Intn(100))),
			tx:     base + temporal.Instant(10*txs[i]+1+rng.Intn(9)),
		}
		op.from = op.tx
		switch k := rng.Intn(10); {
		case k < 2:
			op.from = temporal.Instant(rng.Int63n(int64(op.tx)))
			op.to = op.from + temporal.Instant(1+rng.Intn(200))
		case k < 3:
			op.del = true
		case k < 4:
			op.value = element.String(fmt.Sprint("s", rng.Intn(3)))
		case k < 5:
			op.value = element.Float(float64(rng.Intn(1000)) / 10)
		}
		ops[i] = op
	}
	return ops
}

// pruneVariant is one store the differential reads: resident, or
// evicted at budget 0 after each flush; legacy stores also reopen after
// each flush from footers stripped of their open values.
type pruneVariant struct {
	name         string
	cold, legacy bool
	dir          string
	d            *Store
}

func (v *pruneVariant) open(t *testing.T) {
	t.Helper()
	var opts []Option
	if v.cold {
		opts = append(opts, WithResidencyBudget(1))
	}
	d, err := Open(v.dir, opts...)
	if err != nil {
		t.Fatalf("open %s: %v", v.name, err)
	}
	v.d = d
}

// TestOpenValuePruneUnobservable: see the file comment.
func TestOpenValuePruneUnobservable(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkOpenPrune(t, seed, 3, 160)
		})
	}
}

func checkOpenPrune(t *testing.T, seed int64, rounds, n int) {
	rng := rand.New(rand.NewSource(seed))
	vs := []*pruneVariant{
		{name: "resident"},
		{name: "evicted", cold: true},
		{name: "legacy", cold: true, legacy: true},
	}
	for _, v := range vs {
		v.dir = t.TempDir()
		v.open(t)
	}
	defer func() {
		for _, v := range vs {
			v.d.Close()
		}
	}()
	apply := func(ops []openPruneOp) {
		for _, op := range ops {
			for _, v := range vs {
				op.apply(t, v.d)
			}
		}
	}
	var pins []temporal.Instant
	pin := func() {
		at := vs[0].d.Mem().Snapshot().At()
		for _, v := range vs[1:] {
			if got := v.d.Mem().Snapshot().At(); got != at {
				t.Fatalf("%s pinned at %d, resident at %d", v.name, got, at)
			}
		}
		pins = append(pins, at)
	}
	base := temporal.Instant(1000)
	for r := 0; r < rounds; r++ {
		ops := genOpenPruneOps(rng, base, n)
		apply(ops[:n/2])
		pin() // before the flush, with half the window's writes still to come below it
		apply(ops[n/2:])
		pin()
		for _, v := range vs {
			if err := v.d.Flush(); err != nil {
				t.Fatalf("%s: flush: %v", v.name, err)
			}
		}
		pin() // at the flush
		for _, v := range vs {
			if v.legacy {
				if err := v.d.Close(); err != nil {
					t.Fatalf("%s: close: %v", v.name, err)
				}
				stripOpenValues(t, v.dir)
				v.open(t)
			}
			if v.cold {
				v.d.EvictToBudget(0)
				if n := v.d.Info().ResidentLineages; n != 0 {
					t.Fatalf("%s: %d lineages resident after eviction", v.name, n)
				}
			}
		}
		base = vs[0].d.Mem().Snapshot().At()
		apply(genOpenPruneOps(rng, base, n/8)) // faults some evicted lineages back in
		pin()                                  // after the flush
		base = vs[0].d.Mem().Snapshot().At()
		for _, v := range vs {
			checkOpenPrunePins(t, fmt.Sprintf("round %d %s", r, v.name), v.d, pins)
		}
	}
	if info := vs[1].d.Info(); info.ScanFramesPruned == 0 || info.ScanFrames == 0 {
		t.Fatalf("evicted store read %d and pruned %d cold frames: the cold path did not run", info.ScanFrames, info.ScanFramesPruned)
	}
}

// checkOpenPrunePins compares, at every pin, each bounded partitioned
// scan with d's unpruned gather filtered by the bounds, alone and
// composed with Keep.
func checkOpenPrunePins(t *testing.T, leg string, d *Store, pins []temporal.Instant) {
	t.Helper()
	for _, at := range pins {
		sn := d.Mem().SnapshotAt(at)
		for _, sh := range []struct {
			name string
			opts []state.ReadOpt
		}{
			{"current", nil},
			{"attr", []state.ReadOpt{state.WithAttribute("v")}},
			{"asof-tx", []state.ReadOpt{state.AsOfTransactionTime(at - 400)}},
			{"asof-valid", []state.ReadOpt{state.AsOfValidTime(at - 300)}},
			{"during", []state.ReadOpt{state.DuringValidTime(at-900, at-500)}},
			{"all", []state.ReadOpt{state.AllVersions()}},
		} {
			name, opts := sh.name, sh.opts
			all := sn.List(opts...)
			for _, b := range openPruneBounds {
				admitted := filterFacts(all, func(f *element.Fact) bool {
					v, ok := f.Value.AsFloat()
					return !ok || !b.Excludes(v, v)
				})
				keep := keepBounds(b)
				kept := filterFacts(all, keep)
				for _, par := range []int{1, 4} {
					got, st := sn.ScanPartitioned(state.ScanSpec{Opts: opts, Bounds: b, Parallelism: par})
					if st.Err != nil || !sameFacts(got, admitted) {
						t.Fatalf("%s: pin %d, %s, bounds %+v, par %d: %d rows (err %v), want %d:\n got %v\nwant %v",
							leg, at, name, b, par, len(got), st.Err, len(admitted), got, admitted)
					}
					got, _ = sn.ScanPartitioned(state.ScanSpec{Opts: opts, Bounds: b, Keep: keep, Parallelism: par})
					if !sameFacts(got, kept) {
						t.Fatalf("%s: pin %d, %s, bounds %+v, par %d, with Keep: %d rows, want %d",
							leg, at, name, b, par, len(got), len(kept))
					}
				}
			}
		}
	}
}

// stripOpenValues rewrites every segment footer in dir without its
// open-value tail, as a build that predates the tail wrote it. The
// directory's store must be closed.
func stripOpenValues(t *testing.T, dir string) {
	t.Helper()
	for _, s := range readFooterSeeds(t, dir) {
		r := &reader{size: s.off + 1<<40}
		if err := r.decodeFooter(s.payload, s.off); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		tail := openTailLen(r)
		if tail == 0 {
			continue
		}
		path := filepath.Join(dir, s.name)
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b := frame.Begin(img[:s.off:s.off])
		b = append(b, s.payload[:len(s.payload)-tail]...)
		if err := frame.Seal(b, int(s.off)); err != nil {
			t.Fatal(err)
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(s.off))
		b = append(b, trailerMagic...)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
