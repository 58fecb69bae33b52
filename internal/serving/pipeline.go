package serving

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/sqlparse"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// Pipeline-stage names, in execution order. They key the per-stage
// latency maps in DatabaseStats.
const (
	StageParse     = "parse"
	StageOptimize  = "optimize"
	StageFeaturize = "featurize"
	StageEncode    = "encode"
	StagePredict   = "predict"
)

// prepareStages is the SQL→PlanInput stage chain every statement runs
// (unless the plan cache short-circuits it). Stages are named funcs over
// a shared carrier so the chain stays recomposable — inserting a rewrite
// stage or dropping one is a slice edit, not a refactor.
var prepareStages = []stage{
	{StageParse, (*dbSession).parseStage},
	{StageOptimize, (*dbSession).optimizeStage},
	{StageFeaturize, (*dbSession).featurizeStage},
}

// stage is one named pipeline step.
type stage struct {
	name string
	fn   func(*dbSession, *pipelineQuery) error
}

// pipelineQuery carries one statement through the stage chain; each stage
// fills the fields the next one reads.
type pipelineQuery struct {
	sql string
	q   *query.Query
	p   *plan.Node
	in  costmodel.PlanInput
}

// dbSession is the per-attached-database pipeline state, built once at
// AttachDatabase: collected statistics, the optimizer over them, the plan
// cache, and per-stage latency recorders. Hoisting this out of the
// request path is what makes handlers read-only and lock-free — the old
// server rebuilt nothing per request but could serve only one database;
// a Session keeps one of these per attached database.
type dbSession struct {
	name  string
	db    *storage.Database
	st    *stats.DBStats
	opt   *optimizer.Optimizer
	cache *costmodel.PlanCache
	lat   map[string]*metrics.LatencyRecorder

	// hypo is the what-if layer: a copy-on-write hypothetical catalog
	// sharing this database's statistics, built lazily on the first
	// sweep so databases that never see an advise request pay nothing.
	// (Atomic rather than once-guarded field access so Stats can peek
	// without synchronizing with a concurrent first sweep.)
	hypoOnce sync.Once
	hypo     atomic.Pointer[whatif.Catalog]
}

func newDBSession(name string, db *storage.Database, cacheSize int) *dbSession {
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	d := &dbSession{
		name:  name,
		db:    db,
		st:    st,
		opt:   optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams()),
		cache: costmodel.NewPlanCache(cacheSize),
		lat:   map[string]*metrics.LatencyRecorder{},
	}
	for _, s := range prepareStages {
		d.lat[s.name] = &metrics.LatencyRecorder{}
	}
	return d
}

// prepare turns one SQL text into a prediction input, consulting the plan
// cache first. The returned bool reports a cache hit; the returned string
// is the statement's fingerprint (the plan-cache key, echoed to clients
// so feedback can join back to the retained plan). The plan is NOT
// executed: predictions see exactly what a database would know before
// running the query. The caller's ctx is checked between stages so an
// impatient client stops paying for optimization it no longer wants; a
// ctx error is returned bare (not wrapped in ErrBadQuery — the statement
// was fine, the client gave up).
func (d *dbSession) prepare(ctx context.Context, sql string) (costmodel.PlanInput, bool, string, error) {
	fp := costmodel.Fingerprint(sql)
	in, cached, err := d.prepareTraced(ctx, sql, fp, nil)
	return in, cached, fp, err
}

// prepareTraced is prepare for a statement already fingerprinted (fp),
// with an optional sampled trace: each executed stage records a span
// alongside its latency observation (tr is usually nil — span recording
// is nil-safe and free).
func (d *dbSession) prepareTraced(ctx context.Context, sql, fp string, tr *obs.Trace) (costmodel.PlanInput, bool, error) {
	if in, ok := d.cache.Get(fp); ok {
		return in, true, nil
	}
	pq := &pipelineQuery{sql: sql}
	for _, s := range prepareStages {
		if err := ctx.Err(); err != nil {
			return costmodel.PlanInput{}, false, err
		}
		start := time.Now()
		err := s.fn(d, pq)
		d.lat[s.name].Observe(time.Since(start))
		tr.Span(s.name, start)
		if err != nil {
			// Both the stage's own error and ErrBadQuery stay in the
			// chain, so callers can match either.
			return costmodel.PlanInput{}, false, fmt.Errorf("%s: %w: %w", s.name, err, ErrBadQuery)
		}
	}
	d.cache.Put(fp, pq.in)
	return pq.in, false, nil
}

// prepareBatch prepares many statements across the cores, with the
// outcome a one-at-a-time prepare loop would give: ins[i] and errs[i]
// belong to sqls[i]. A statement repeated within the batch (by
// fingerprint) is parsed and planned once, by its first occurrence, and
// every repeat shares that PlanInput, so the encoder dedups them as
// well. Each repeat still makes the plan-cache lookup the serial loop
// would have made — a hit behind a prepared first occurrence, a miss
// behind a failed one — so the cache's hit and miss counts match it.
func (d *dbSession) prepareBatch(ctx context.Context, sqls []string) ([]costmodel.PlanInput, []error) {
	fps := make([]string, len(sqls))
	parallelEach(len(sqls), func(i int) { fps[i] = costmodel.Fingerprint(sqls[i]) })
	first := make(map[string]int, len(sqls)) // fingerprint -> first occurrence
	var firsts []int
	for i, fp := range fps {
		if _, ok := first[fp]; !ok {
			first[fp] = i
			firsts = append(firsts, i)
		}
	}
	ins := make([]costmodel.PlanInput, len(sqls))
	errs := make([]error, len(sqls))
	parallelEach(len(firsts), func(j int) {
		i := firsts[j]
		ins[i], _, errs[i] = d.prepareTraced(ctx, sqls[i], fps[i], nil)
	})
	for i, fp := range fps {
		if f := first[fp]; f != i {
			d.cache.Get(fp) // the serial loop's lookup, for the counts
			ins[i], errs[i] = ins[f], errs[f]
		}
	}
	return ins, errs
}

// parseStage resolves the SQL text against the database's schema.
func (d *dbSession) parseStage(pq *pipelineQuery) error {
	q, err := sqlparse.Parse(pq.sql, d.db.Schema)
	if err != nil {
		return err
	}
	pq.q = q
	return nil
}

// optimizeStage plans the parsed query with the database's hoisted
// optimizer and statistics.
func (d *dbSession) optimizeStage(pq *pipelineQuery) error {
	p, err := d.opt.Plan(pq.q)
	if err != nil {
		return err
	}
	pq.p = p
	return nil
}

// featurizeStage assembles the estimator-facing prediction input. The
// deep featurization (graph encoding, set featurization, ...) is owned by
// each estimator adapter and memoized per database in costmodel's
// featCache; this stage builds the shared context they all consume.
func (d *dbSession) featurizeStage(pq *pipelineQuery) error {
	pq.in = costmodel.PlanInput{
		DB:            d.db,
		Query:         pq.q,
		Plan:          pq.p,
		OptimizerCost: optimizer.TotalCost(pq.p),
		// The encoding memo lives and dies with the plan-cache entry:
		// the first prediction of this shape encodes the graph, every
		// repeat skips PlanEncoder.Encode entirely.
		Enc: costmodel.NewEncodedPlan(),
	}
	return nil
}

// catalog returns the database's what-if layer, building it on first
// use. The catalog shares the session's collected statistics; its
// prepared-plan cache is sized like the main plan cache.
func (d *dbSession) catalog(cacheSize int) *whatif.Catalog {
	d.hypoOnce.Do(func() {
		d.hypo.Store(whatif.NewCatalog(d.db, d.st, optimizer.DefaultCostParams(), cacheSize))
	})
	return d.hypo.Load()
}

// stats snapshots the database's stage latencies and plan caches.
func (d *dbSession) stats() DatabaseStats {
	stages := make(map[string]metrics.LatencySummary, len(d.lat))
	for name, l := range d.lat {
		stages[name] = l.Snapshot()
	}
	ds := DatabaseStats{
		Database:  d.name,
		PlanCache: d.cache.Stats(),
		Stages:    stages,
	}
	if c := d.hypo.Load(); c != nil {
		cs := c.CacheStats()
		ds.WhatIfCache = &cs
	}
	return ds
}
