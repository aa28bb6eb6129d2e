// Prepared on-demand queries: the engine-level face of the query
// planner (internal/query). Prepare parses and plans once; the returned
// handle executes many times — each execution pins a fresh snapshot (or
// an explicitly supplied one) and runs the partitioned gather with the
// plan's pushed predicates and value bounds.

package core

import (
	"repro/internal/query"
	"repro/internal/temporal"
)

// PreparedQuery is a query parsed and planned once against this engine,
// executable many times without re-parsing or re-planning. Handles are
// immutable and safe for concurrent Exec calls.
type PreparedQuery struct {
	e *Engine
	p *query.Prepared
}

// QueryOpt configures one execution of a prepared query.
type QueryOpt func(*queryCfg)

type queryCfg struct {
	sysTime     temporal.Instant
	hasSysTime  bool
	parallelism int
}

// AsOfSystemTime pins the execution's belief (transaction time) to t,
// overriding any SYSTEM TIME ASOF clause in the query text.
func AsOfSystemTime(t temporal.Instant) QueryOpt {
	return func(c *queryCfg) { c.sysTime, c.hasSysTime = t, true }
}

// WithQueryParallelism bounds the partitioned gather's workers for this
// execution; n <= 0 restores the default (GOMAXPROCS, with small scans
// degrading to serial). 1 forces a serial gather.
func WithQueryParallelism(n int) QueryOpt {
	return func(c *queryCfg) { c.parallelism = n }
}

// Prepare parses and plans an on-demand query against this engine.
// Exec runs it; Explain reports the physical plan.
func (e *Engine) Prepare(src string) (*PreparedQuery, error) {
	p, err := query.Prepare(src)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{e: e, p: p}, nil
}

// Exec runs the prepared query. By default it pins a fresh snapshot
// handle — one consistent cut of every committed write, read without
// shard locks — and anchors now() at the current watermark, exactly as
// Engine.Query does; options override the belief instant and the gather
// parallelism.
func (pq *PreparedQuery) Exec(opts ...QueryOpt) (*query.Result, error) {
	var cfg queryCfg
	for _, o := range opts {
		o(&cfg)
	}
	return pq.p.Exec(query.ExecEnv{
		Store:       pq.e.store.Snapshot(),
		Reasoner:    pq.e.reasoner,
		Now:         pq.e.Watermark(),
		Parallelism: cfg.parallelism,
		SysTime:     cfg.sysTime,
		HasSysTime:  cfg.hasSysTime,
	})
}

// Explain returns the physical plan computed at Prepare time. Callers
// must not mutate it.
func (pq *PreparedQuery) Explain() *query.Plan { return pq.p.Explain() }
