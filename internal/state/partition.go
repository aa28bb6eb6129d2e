// Partitioned cross-shard scans: the parallel gather behind the query
// planner (internal/query). A partitioned scan collects and orders the
// candidate lineages exactly as the serial gather does, splits the
// ordered list into contiguous chunks, gathers each chunk on its own
// worker from the same pinned snapshot, and concatenates the chunk
// results in order — so the output is byte-identical to the serial
// gather by construction, for every temporal shape and pin. Predicates
// the planner pushes below the merge (the numeric ValueBounds, which also
// prune lineages by their published value envelopes before the gather,
// and Keep) run inside the workers, before any row reaches the
// single-threaded query executor.

package state

import (
	"runtime"
	"sync"

	"repro/internal/element"
)

// ValueBounds is a numeric constraint on fact values, extracted by the
// query planner from pushed equality/range predicates over the `value`
// pseudo-column (e.g. `value > 10` or `value = 42`). A scan drops every
// selected row whose numeric value the bounds exclude, and so may skip
// a lineage that can select no other row: one whose whole-history value
// envelope is disjoint from the bounds (head.skipByBounds), or, for a
// read that selects the open version, one whose open value is absent or
// excluded (head.skipOpen, ColdSource.ColdFrames). The zero value
// constrains nothing.
type ValueBounds struct {
	// Min is the lower bound, meaningful when HasMin; MinExcl makes it
	// exclusive (value > Min) instead of inclusive (value >= Min).
	Min     float64
	HasMin  bool
	MinExcl bool
	// Max is the upper bound, meaningful when HasMax; MaxExcl makes it
	// exclusive (value < Max) instead of inclusive (value <= Max).
	Max     float64
	HasMax  bool
	MaxExcl bool
}

// Constrained reports whether the bounds constrain anything.
func (b ValueBounds) Constrained() bool { return b.HasMin || b.HasMax }

// Excludes reports whether the closed interval [lo, hi] cannot contain
// any value satisfying the bounds — the exported form of the envelope
// test the scan paths use. Backends prune durable frames against their
// persisted per-frame and per-segment value envelopes with it, so frame
// pruning and head pruning share one definition of "disjoint".
func (b ValueBounds) Excludes(lo, hi float64) bool { return b.disjoint(lo, hi) }

// ExcludesOpen reports whether a read that selects at most a lineage's
// open version, whose open value is o, selects no row the bounds admit:
// the lineage has no open version, or its numeric value is excluded. A
// non-numeric open value is the pushed predicate's to decide, and an
// unknown one (a frame stored without it) proves nothing. The zero
// bounds exclude nothing.
func (b ValueBounds) ExcludesOpen(o OpenValue) bool {
	switch o.Kind {
	case OpenNone:
		return b.Constrained()
	case OpenNumeric:
		return b.disjoint(o.V, o.V)
	}
	return false
}

// admits reports whether the bounds keep a selected row of value v:
// every non-numeric value, and every numeric one inside the bounds.
func (b ValueBounds) admits(v element.Value) bool {
	f, ok := v.AsFloat()
	return !ok || !b.disjoint(f, f)
}

// OpenValue is what a read that selects the open version can return
// from one lineage: nothing, a numeric value, or another value. Durable
// backends persist it per frame, so such a read with value bounds drops
// an evicted lineage whose open value they exclude before its frame is
// read, however wide the lineage's history.
type OpenValue struct {
	Kind OpenKind
	// V is the open version's value, meaningful when Kind is OpenNumeric.
	V float64
}

// OpenKind classifies an OpenValue.
type OpenKind uint8

const (
	// OpenUnknown is the zero kind: not recorded, so never pruned.
	OpenUnknown OpenKind = iota
	// OpenNone: the lineage has no open version.
	OpenNone
	// OpenNumeric: the open version's value is numeric (V).
	OpenNumeric
	// OpenOther: the open version's value is not numeric.
	OpenOther
)

// openValueOf summarizes an open version, nil when there is none.
func openValueOf(f *element.Fact) OpenValue {
	if f == nil {
		return OpenValue{Kind: OpenNone}
	}
	if v, ok := f.Value.AsFloat(); ok {
		return OpenValue{Kind: OpenNumeric, V: v}
	}
	return OpenValue{Kind: OpenOther}
}

// disjoint reports whether the closed interval [lo, hi] cannot contain
// any value satisfying the bounds.
func (b ValueBounds) disjoint(lo, hi float64) bool {
	if b.HasMin && (hi < b.Min || (b.MinExcl && hi <= b.Min)) {
		return true
	}
	if b.HasMax && (lo > b.Max || (b.MaxExcl && lo >= b.Max)) {
		return true
	}
	return false
}

// ScanSpec describes one partitioned gather against a snapshot.
type ScanSpec struct {
	// Opts is the temporal shape and attribute scope of the scan — the
	// same ReadOpt list List accepts.
	Opts []ReadOpt
	// Parallelism bounds the gather workers. Values <= 0 pick a default
	// scaled to GOMAXPROCS and capped so each worker keeps at least
	// minLineagesPerPartition lineages (small scans run serially rather
	// than paying goroutine fan-out). Explicit values are honored up to
	// the candidate lineage count. The result is independent of the
	// worker count.
	Parallelism int
	// Bounds filters the selected rows: a row whose value is numeric and
	// outside the bounds is dropped, and every other row is left for
	// Keep. Lineages that can select no row the bounds admit are pruned
	// before partitioning, unread, which the filter makes unobservable.
	// The zero value filters nothing.
	Bounds ValueBounds
	// Keep is the pushed row predicate, run inside the gather workers on
	// each selected (already cloned) fact the bounds admit; nil keeps
	// every such fact. It must be safe for concurrent calls.
	Keep func(*element.Fact) bool
}

// ScanStats reports what a partitioned scan did — the planner surfaces
// these decisions through PreparedQuery.Explain.
type ScanStats struct {
	// Lineages is the candidate lineage count after attribute scoping,
	// resident and cold alike.
	Lineages int
	// IndexPruned counts resident candidates skipped by the bounds: by
	// their value envelope or, on a read that selects the open version,
	// by their open value. (Cold candidates arrive pre-pruned by their
	// persisted frame summaries and are not counted here; the source
	// counts them.)
	IndexPruned int
	// Partitions is the number of gather partitions actually used.
	Partitions int
	// ColdLineages is the number of durable-only candidates the gather
	// unioned in — lineages served from segment frames, not RAM.
	ColdLineages int
	// Err reports the first cold frame, in gather order, that the scan
	// could not read or verify (it wraps ErrColdFrame). The scan then
	// returns no facts rather than an answer missing that lineage.
	Err error
}

// minLineagesPerPartition is the smallest per-worker chunk the default
// parallelism will create: below it, goroutine hand-off costs more than
// the gather itself, so small scans stay serial.
const minLineagesPerPartition = 64

// ScanShards is List executed as a partitioned parallel gather: workers
// gather disjoint contiguous ranges of the ordered lineage list from
// this snapshot's pin and the chunks are concatenated in order, so the
// result is exactly Snapshot.List(opts...) for any parallelism. Like
// List, it has no error to report an unreadable cold frame through
// (ScanPartitioned does).
func (sn *Snapshot) ScanShards(parallelism int, opts ...ReadOpt) []*element.Fact {
	out, _ := sn.ScanPartitioned(ScanSpec{Opts: opts, Parallelism: parallelism})
	return out
}

// ScanPartitioned runs one partitioned gather with pushed predicates and
// envelope pruning, returning the selected facts (serial gather order)
// and the scan's execution stats.
func (sn *Snapshot) ScanPartitioned(spec ScanSpec) ([]*element.Fact, ScanStats) {
	return sn.s.gatherPartitioned(sn.clamp(newReadCfg(spec.Opts)), spec)
}

// gatherPartitioned is the partitioned counterpart of gatherList: the
// same candidates in the same order, and the per-lineage selection is the
// shared pickInto, so the output is byte-identical to the serial gather
// for any parallelism and any residency state. Cold frames are decoded
// inside the gather workers, each into its own coldScratch: a scan over
// mostly-cold data parallelizes its preads and decodes, not just its
// selection, and allocates for the rows it returns, not for the frames
// it reads.
func (s *Store) gatherPartitioned(cfg readCfg, spec ScanSpec) ([]*element.Fact, ScanStats) {
	cands, stats := s.candidates(cfg, spec.Bounds)
	par := spec.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
		if lim := len(cands) / minLineagesPerPartition; par > lim {
			par = lim
		}
	}
	if par > len(cands) {
		par = len(cands)
	}
	if par < 1 {
		par = 1
	}
	stats.Partitions = par

	if par == 1 {
		out, err := gatherChunk(cands, cfg, &spec)
		stats.Err = err
		return out, stats
	}

	parts := make([][]*element.Fact, par)
	errs := make([]error, par)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		lo, hi := w*len(cands)/par, (w+1)*len(cands)/par
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w], errs[w] = gatherChunk(cands[lo:hi], cfg, &spec)
		}(w, lo, hi)
	}
	wg.Wait()

	total := 0
	for w, p := range parts {
		if errs[w] != nil {
			stats.Err = errs[w]
			return nil, stats
		}
		total += len(p)
	}
	out := make([]*element.Fact, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, stats
}

// gatherChunk gathers one contiguous run of candidates: a resident head
// runs the shared pickInto directly; a cold candidate is loaded here —
// pread + decode on the worker that owns the chunk, into the chunk's
// scratch. The chunk's rows then face the pushed filters (see
// ScanSpec.filter).
func gatherChunk(chunk []scanCand, cfg readCfg, spec *ScanSpec) ([]*element.Fact, error) {
	var sc *coldScratch // allocated at the chunk's first cold candidate
	var out []*element.Fact
	for _, c := range chunk {
		if c.h == nil && sc == nil {
			sc = new(coldScratch)
		}
		h, err := c.load(sc)
		if err != nil {
			return nil, err
		}
		if h != nil {
			out = pickInto(h, cfg, out)
		}
	}
	return spec.filter(out), nil
}

// filter applies the pushed row filters in place: Bounds to each row's
// numeric value, then Keep to the rows the bounds admit.
func (spec *ScanSpec) filter(facts []*element.Fact) []*element.Fact {
	bounded := spec.Bounds.Constrained()
	if !bounded && spec.Keep == nil {
		return facts
	}
	kept := facts[:0]
	for _, f := range facts {
		if (!bounded || spec.Bounds.admits(f.Value)) && (spec.Keep == nil || spec.Keep(f)) {
			kept = append(kept, f)
		}
	}
	return kept
}
