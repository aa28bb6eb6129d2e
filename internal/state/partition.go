// Partitioned cross-shard scans: the parallel gather behind the query
// planner (internal/query). A partitioned scan collects and orders the
// candidate lineages exactly as the serial gather does, splits the
// ordered list into contiguous chunks, gathers each chunk on its own
// worker from the same pinned snapshot, and concatenates the chunk
// results in order — so the output is byte-identical to the serial
// gather by construction, for every temporal shape and pin. Predicates
// the planner pushes below the merge (Keep, plus the numeric ValueBounds
// resolved against each head's published value envelope) run inside the
// workers, before any row reaches the single-threaded query executor.

package state

import (
	"runtime"
	"sync"

	"repro/internal/element"
)

// ValueBounds is a numeric constraint on fact values, extracted by the
// query planner from pushed equality/range predicates over the `value`
// pseudo-column (e.g. `value > 10` or `value = 42`). A scan skips a
// lineage whose published value envelope is disjoint from the bounds —
// see head.skipByBounds for the exact soundness conditions. The zero
// value constrains nothing.
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
	// Bounds prunes lineages by their published numeric value envelope
	// before partitioning. The zero value prunes nothing.
	Bounds ValueBounds
	// Keep is the pushed row predicate, run inside the gather workers on
	// each selected (already cloned) fact; nil keeps every fact. It must
	// be safe for concurrent calls.
	Keep func(*element.Fact) bool
}

// ScanStats reports what a partitioned scan did — the planner surfaces
// these decisions through PreparedQuery.Explain.
type ScanStats struct {
	// Lineages is the candidate lineage count after attribute scoping,
	// resident and cold alike.
	Lineages int
	// IndexPruned counts resident candidates skipped by the value
	// envelope. (Cold candidates arrive pre-pruned by their persisted
	// frame envelopes and are not counted here; the source counts them.)
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
// scratch — and the decoded head re-runs the envelope test. A source
// that persists frame envelopes has already applied the same test before
// the read, so the re-test only prunes frames stored without one.
func gatherChunk(chunk []scanCand, cfg readCfg, spec *ScanSpec) ([]*element.Fact, error) {
	prune := spec.Bounds.Constrained()
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
		if h == nil || (c.h == nil && prune && h.skipByBounds(spec.Bounds)) {
			continue
		}
		out = pickInto(h, cfg, out)
	}
	return keepFiltered(out, spec.Keep), nil
}

// keepFiltered applies the pushed row predicate in place.
func keepFiltered(facts []*element.Fact, keep func(*element.Fact) bool) []*element.Fact {
	if keep == nil {
		return facts
	}
	kept := facts[:0]
	for _, f := range facts {
		if keep(f) {
			kept = append(kept, f)
		}
	}
	return kept
}
