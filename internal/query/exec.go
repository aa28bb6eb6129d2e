// Prepared execution: the per-call half of the planner. Exec binds a
// Prepared to one store view and runs it — partitioned, with the pushed
// predicates and value bounds inside the gather workers, when the view
// is a pinned state.Snapshot; serially (the classic Executor path)
// against any other Reader. Both paths produce identical results for
// the same view: the partitioned gather is order-preserving and the
// pushed/residual split distributes the WHERE conjunction.

package query

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/element"
	"repro/internal/lang"
	"repro/internal/reason"
	"repro/internal/state"
	"repro/internal/temporal"
)

// ExecEnv binds one execution of a prepared query: the store view, the
// clock anchor, and per-call overrides. The zero value of the optional
// fields means "as planned".
type ExecEnv struct {
	// Store is the read surface. A *state.Snapshot enables the
	// partitioned gather; any other Reader runs the serial path.
	Store state.Reader
	// Reasoner may be nil; WITH INFERENCE executions then fail.
	Reasoner *reason.Reasoner
	// Now anchors now() in temporal expressions.
	Now temporal.Instant
	// Parallelism bounds the gather workers; <= 0 uses the scan's
	// default (GOMAXPROCS, degraded to serial for small scans).
	Parallelism int
	// SysTime overrides the query's SYSTEM TIME ASOF clause when
	// HasSysTime is set, pinning the belief without re-planning.
	SysTime    temporal.Instant
	HasSysTime bool
	// Ctx, when non-nil, bounds the execution: cancellation or deadline
	// expiry aborts the scan between row batches and Exec returns the
	// context's error. Nil means no deadline.
	Ctx context.Context
}

// ctxCheckStride is how many rows pass between context checks: frequent
// enough to abort a runaway scan promptly, rare enough that Err()'s lock
// never shows up in a scan profile.
const ctxCheckStride = 1024

// Exec runs the prepared query against env. It performs no parsing and
// no planning — only the temporal header expressions are evaluated per
// call (they may reference now()).
func (p *Prepared) Exec(env ExecEnv) (*Result, error) {
	q := p.q
	ex := Executor{Store: env.Store, Reasoner: env.Reasoner, Now: env.Now}

	var tx *temporal.Instant
	if env.HasSysTime {
		tt := env.SysTime
		tx = &tt
	} else {
		var err error
		if tx, err = ex.systemTime(q); err != nil {
			return nil, err
		}
	}
	at, iv, err := ex.scanBounds(q)
	if err != nil {
		return nil, err
	}

	var derived []*element.Fact
	if q.Inference {
		if env.Reasoner == nil {
			return nil, fmt.Errorf("query: WITH INFERENCE requires a reasoner")
		}
		if derived, err = ex.derivedFor(q, at, iv); err != nil {
			return nil, err
		}
	}

	opts := scanOpts(q, tx, at, iv)
	var facts []*element.Fact
	// rowFilter is what still has to run above the gather on scanned
	// facts; derived facts always face the full WHERE.
	rowFilter := q.Where
	if sn, ok := env.Store.(*state.Snapshot); ok {
		keep, keepErr := p.keepFunc(env, tx)
		var stats state.ScanStats
		facts, stats = sn.ScanPartitioned(state.ScanSpec{
			Opts:        opts,
			Parallelism: env.Parallelism,
			Bounds:      p.bounds,
			Keep:        keep,
		})
		if stats.Err != nil {
			return nil, stats.Err
		}
		if err := keepErr(); err != nil {
			return nil, err
		}
		rowFilter = p.residual
	} else {
		facts = env.Store.List(opts...)
	}
	if err := ctxErr(env.Ctx); err != nil {
		return nil, err
	}

	rows := make([]rowEnv, 0, len(facts)+len(derived))
	for _, f := range facts {
		rows = append(rows, rowEnv{fact: f, now: env.Now, store: env.Store, tx: tx})
	}
	if rowFilter != nil {
		kept := rows[:0]
		for i := range rows {
			if i%ctxCheckStride == ctxCheckStride-1 {
				if err := ctxErr(env.Ctx); err != nil {
					return nil, err
				}
			}
			r := rows[i]
			ok, err := lang.EvalBool(rowFilter, &r)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	for _, f := range derived {
		r := rowEnv{fact: f, now: env.Now, store: env.Store, tx: tx}
		if q.Where != nil {
			ok, err := lang.EvalBool(q.Where, &r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		rows = append(rows, r)
	}

	if err := ctxErr(env.Ctx); err != nil {
		return nil, err
	}
	res, err := ex.projectRows(q, rows)
	if err != nil {
		return nil, err
	}
	ex.orderAndLimit(q, res)
	return res, nil
}

// ctxErr reports the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	return nil
}

// keepFunc builds the pushed row predicate for the gather workers, plus
// a getter for the first evaluation error (workers run concurrently; the
// scan's completion orders the error read after every write).
func (p *Prepared) keepFunc(env ExecEnv, tx *temporal.Instant) (func(*element.Fact) bool, func() error) {
	if len(p.pushed) == 0 && env.Ctx == nil {
		return nil, func() error { return nil }
	}
	var once sync.Once
	var firstErr error
	var seen atomic.Int64
	keep := func(f *element.Fact) bool {
		// Deadline checks ride the pushed predicate every stride rows;
		// the counter is shared across gather workers.
		if env.Ctx != nil && seen.Add(1)%ctxCheckStride == 0 {
			if err := ctxErr(env.Ctx); err != nil {
				once.Do(func() { firstErr = err })
				return false
			}
		}
		r := rowEnv{fact: f, now: env.Now, store: env.Store, tx: tx}
		for _, c := range p.pushed {
			ok, err := lang.EvalBool(c, &r)
			if err != nil {
				once.Do(func() { firstErr = err })
				return false
			}
			if !ok {
				return false
			}
		}
		return true
	}
	return keep, func() error { return firstErr }
}
