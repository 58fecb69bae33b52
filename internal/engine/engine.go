// Package engine executes physical plans over the storage layer.
//
// Execution serves three purposes in the reproduction pipeline:
//
//  1. It produces the *true* output cardinality of every plan operator
//     (plan.Node.TrueRows), which is both the paper's "exact cardinalities"
//     model input and the reference for evaluating estimates.
//  2. It records work counters (pages read, tuples processed, hash probes,
//     index descents, ...) that the hardware simulator converts into the
//     simulated runtimes acting as the paper's measured query runtimes.
//  3. It computes actual aggregate results, which the test suite verifies
//     against brute-force evaluation — keeping the whole substrate honest.
//
// Every product that feeds an add is written float64(a*b): the explicit
// conversion forbids gc from fusing it into one multiply-add on arm64 and
// ppc64le, so the work counters round the same on every architecture.
package engine

import (
	"errors"
	"fmt"
	"math"

	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// ErrTooLarge is returned when an intermediate result exceeds the
// configured tuple limit; callers (the training-data collector) skip such
// queries, as one would discard runaway training queries in practice.
var ErrTooLarge = errors.New("engine: intermediate result exceeds tuple limit")

// Config bounds execution.
type Config struct {
	// MaxIntermediate caps the tuple count of any intermediate result.
	// Zero means DefaultMaxIntermediate.
	MaxIntermediate int
}

// DefaultMaxIntermediate is the default intermediate-result cap.
const DefaultMaxIntermediate = 20_000_000

// Executor runs plans against one database. Executors are not safe for
// concurrent use; create one per goroutine.
type Executor struct {
	db  *storage.Database
	max int
	// aggValues holds the aggregate outputs of the most recently executed
	// HashAggregate (exec passes row-id batches only).
	aggValues [][]float64
}

// New creates an executor for the database.
func New(db *storage.Database, cfg Config) *Executor {
	max := cfg.MaxIntermediate
	if max <= 0 {
		max = DefaultMaxIntermediate
	}
	return &Executor{db: db, max: max}
}

// Result summarizes one plan execution.
type Result struct {
	// Rows is the number of tuples the root operator emitted.
	Rows int
	// Aggregates holds, per output group, the computed aggregate values in
	// the order of the plan's aggregate list. Empty for non-aggregate plans.
	Aggregates [][]float64
}

// batch is a materialized intermediate result: for each involved base
// table, the row ids contributing to each output tuple.
type batch struct {
	tables []string       // base tables in this batch
	pos    map[string]int // table -> column position in rows
	rows   [][]int32      // rows[i][j] = row id of tables[j] in tuple i
}

func newBatch(tables ...string) *batch {
	b := &batch{tables: tables, pos: map[string]int{}}
	for i, t := range tables {
		b.pos[t] = i
	}
	return b
}

// Execute runs the plan, filling TrueRows and Work on every node, and
// returns the root result. The plan must come from the optimizer (scans
// carry their filters; nested-loop inners are lookup index scans).
func (e *Executor) Execute(p *plan.Node) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	b, err := e.exec(p)
	if err != nil {
		return nil, err
	}
	res := &Result{Rows: len(b.rows)}
	if p.Op == plan.HashAggregate {
		res.Aggregates = e.aggValues
		e.aggValues = nil
	}
	return res, nil
}

func (e *Executor) exec(n *plan.Node) (*batch, error) {
	switch n.Op {
	case plan.SeqScan:
		return e.execSeqScan(n)
	case plan.IndexScan:
		if n.LookupJoin {
			return nil, errors.New("engine: lookup index scan executed outside nested-loop join")
		}
		return e.execIndexScan(n)
	case plan.HashJoin:
		return e.execHashJoin(n)
	case plan.NestedLoopJoin:
		return e.execNLJoin(n)
	case plan.HashAggregate:
		return e.execAggregate(n)
	default:
		return nil, fmt.Errorf("engine: unknown operator %v", n.Op)
	}
}

// evalFilter applies one predicate to a base-table row.
func evalFilter(col *storage.ColumnData, row int, f query.Filter) bool {
	if col.IsNull(row) {
		return false
	}
	v := col.AsFloat(row)
	switch f.Op {
	case query.OpEq:
		return v == f.Value
	case query.OpNeq:
		return v != f.Value
	case query.OpLt:
		return v < f.Value
	case query.OpLe:
		return v <= f.Value
	case query.OpGt:
		return v > f.Value
	case query.OpGe:
		return v >= f.Value
	default:
		return false
	}
}

func (e *Executor) execSeqScan(n *plan.Node) (*batch, error) {
	tab := e.db.Table(n.Table)
	if tab == nil {
		return nil, fmt.Errorf("engine: unknown table %s", n.Table)
	}
	cols := make([]*storage.ColumnData, len(n.Filters))
	for i, f := range n.Filters {
		cols[i] = tab.Col(f.Col.Column)
		if cols[i] == nil {
			return nil, fmt.Errorf("engine: unknown column %s", f.Col)
		}
	}
	out := newBatch(n.Table)
	rows := tab.Rows()
	evals := 0.0
	for r := 0; r < rows; r++ {
		match := true
		for i, f := range n.Filters {
			evals++
			if !evalFilter(cols[i], r, f) {
				match = false
				break
			}
		}
		if match {
			out.rows = append(out.rows, []int32{int32(r)})
		}
	}
	n.Work = plan.Counters{
		PagesRead: float64(tab.Meta.PageCount),
		TuplesIn:  float64(rows),
		TuplesOut: float64(len(out.rows)),
		PredEvals: evals,
		BytesOut:  float64(len(out.rows)) * n.Width,
	}
	n.TrueRows = float64(len(out.rows))
	return out, nil
}

// execIndexScan runs a constant-range index scan: the first filter is on
// the index column (optimizer convention) and drives the index range; all
// filters are then re-checked as residuals for exactness.
func (e *Executor) execIndexScan(n *plan.Node) (*batch, error) {
	tab := e.db.Table(n.Table)
	if tab == nil {
		return nil, fmt.Errorf("engine: unknown table %s", n.Table)
	}
	ix, err := e.db.EnsureIndex(n.Table, n.IndexColumn)
	if err != nil {
		return nil, err
	}
	if len(n.Filters) == 0 || n.Filters[0].Col.Column != n.IndexColumn {
		return nil, fmt.Errorf("engine: index scan on %s.%s without driving predicate", n.Table, n.IndexColumn)
	}
	lead := n.Filters[0]
	var cand []int32
	switch lead.Op {
	case query.OpEq:
		cand = ix.Lookup(lead.Value)
	case query.OpLt, query.OpLe:
		cand = ix.Range(math.Inf(-1), lead.Value)
	case query.OpGt, query.OpGe:
		cand = ix.Range(lead.Value, math.Inf(1))
	default: // OpNeq cannot use the index range; scan all entries
		cand = ix.Range(math.Inf(-1), math.Inf(1))
	}
	cols := make([]*storage.ColumnData, len(n.Filters))
	for i, f := range n.Filters {
		cols[i] = tab.Col(f.Col.Column)
		if cols[i] == nil {
			return nil, fmt.Errorf("engine: unknown column %s", f.Col)
		}
	}
	out := newBatch(n.Table)
	evals := 0.0
	pages := map[int32]struct{}{}
	rowsPerPage := int32(schema.PageSize / tab.Meta.RowWidth())
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	for _, r := range cand {
		match := true
		for i, f := range n.Filters {
			evals++
			if !evalFilter(cols[i], int(r), f) {
				match = false
				break
			}
		}
		if match {
			out.rows = append(out.rows, []int32{r})
			pages[r/rowsPerPage] = struct{}{}
		}
	}
	n.Work = plan.Counters{
		PagesRead:    float64(len(pages)) + float64(ix.EstimateHeight()),
		TuplesIn:     float64(len(cand)),
		TuplesOut:    float64(len(out.rows)),
		PredEvals:    evals,
		IndexLookups: 1,
		IndexEntries: float64(len(cand)),
		BytesOut:     float64(len(out.rows)) * n.Width,
	}
	n.TrueRows = float64(len(out.rows))
	return out, nil
}

// joinKey returns the join value of a tuple for the side of the condition
// belonging to the batch, and whether it is non-null.
func joinValue(db *storage.Database, b *batch, tuple []int32, side query.ColumnRef) (float64, bool) {
	pos, ok := b.pos[side.Table]
	if !ok {
		return 0, false
	}
	col := db.Table(side.Table).Col(side.Column)
	r := int(tuple[pos])
	if col.IsNull(r) {
		return 0, false
	}
	return col.AsFloat(r), true
}

// sides orients the join condition: returns the ColumnRef belonging to
// batch a and the one belonging to batch b.
func sides(j *query.Join, a, b *batch) (query.ColumnRef, query.ColumnRef, error) {
	if _, ok := a.pos[j.Left.Table]; ok {
		if _, ok2 := b.pos[j.Right.Table]; ok2 {
			return j.Left, j.Right, nil
		}
	}
	if _, ok := a.pos[j.Right.Table]; ok {
		if _, ok2 := b.pos[j.Left.Table]; ok2 {
			return j.Right, j.Left, nil
		}
	}
	return query.ColumnRef{}, query.ColumnRef{}, fmt.Errorf("engine: join %s does not connect its inputs", j)
}

func concatTuple(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

func (e *Executor) execHashJoin(n *plan.Node) (*batch, error) {
	probe, err := e.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	build, err := e.exec(n.Children[1])
	if err != nil {
		return nil, err
	}
	probeSide, buildSide, err := sides(n.Join, probe, build)
	if err != nil {
		return nil, err
	}
	ht := make(map[float64][]int, len(build.rows))
	for i, tuple := range build.rows {
		v, ok := joinValue(e.db, build, tuple, buildSide)
		if !ok {
			continue
		}
		ht[v] = append(ht[v], i)
	}
	out := newBatch(append(append([]string{}, probe.tables...), build.tables...)...)
	for _, tuple := range probe.rows {
		v, ok := joinValue(e.db, probe, tuple, probeSide)
		if !ok {
			continue
		}
		for _, bi := range ht[v] {
			out.rows = append(out.rows, concatTuple(tuple, build.rows[bi]))
			if len(out.rows) > e.max {
				return nil, ErrTooLarge
			}
		}
	}
	n.Work = plan.Counters{
		TuplesIn:   float64(len(probe.rows) + len(build.rows)),
		TuplesOut:  float64(len(out.rows)),
		HashBuild:  float64(len(build.rows)),
		HashProbes: float64(len(probe.rows)),
		BytesOut:   float64(len(out.rows)) * n.Width,
	}
	n.TrueRows = float64(len(out.rows))
	return out, nil
}

// execNLJoin runs an index-nested-loop join: per outer tuple, descend the
// inner index on the join key and apply the inner's residual filters.
func (e *Executor) execNLJoin(n *plan.Node) (*batch, error) {
	outer, err := e.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	inner := n.Children[1]
	if inner.Op != plan.IndexScan || !inner.LookupJoin {
		return nil, errors.New("engine: nested-loop inner must be a lookup index scan")
	}
	tab := e.db.Table(inner.Table)
	if tab == nil {
		return nil, fmt.Errorf("engine: unknown table %s", inner.Table)
	}
	ix, err := e.db.EnsureIndex(inner.Table, inner.IndexColumn)
	if err != nil {
		return nil, err
	}
	outerSide, innerSide, err := sidesNL(n.Join, outer, inner.Table)
	if err != nil {
		return nil, err
	}
	if innerSide.Column != inner.IndexColumn {
		return nil, fmt.Errorf("engine: lookup index on %s but join column is %s", inner.IndexColumn, innerSide.Column)
	}
	cols := make([]*storage.ColumnData, len(inner.Filters))
	for i, f := range inner.Filters {
		cols[i] = tab.Col(f.Col.Column)
		if cols[i] == nil {
			return nil, fmt.Errorf("engine: unknown column %s", f.Col)
		}
	}
	out := newBatch(append(append([]string{}, outer.tables...), inner.Table)...)
	lookups, entries, evals := 0.0, 0.0, 0.0
	pages := map[int32]struct{}{}
	rowsPerPage := int32(schema.PageSize / tab.Meta.RowWidth())
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	innerOut := 0.0
	for _, tuple := range outer.rows {
		v, ok := joinValue(e.db, outer, tuple, outerSide)
		if !ok {
			continue
		}
		lookups++
		matches := ix.Lookup(v)
		entries += float64(len(matches))
		for _, r := range matches {
			ok := true
			for i, f := range inner.Filters {
				evals++
				if !evalFilter(cols[i], int(r), f) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			innerOut++
			pages[r/rowsPerPage] = struct{}{}
			out.rows = append(out.rows, concatTuple(tuple, []int32{r}))
			if len(out.rows) > e.max {
				return nil, ErrTooLarge
			}
		}
	}
	inner.Work = plan.Counters{
		PagesRead:    float64(len(pages)) + float64(lookups*float64(ix.EstimateHeight())*0.1),
		TuplesIn:     entries,
		TuplesOut:    innerOut,
		PredEvals:    evals,
		IndexLookups: lookups,
		IndexEntries: entries,
		BytesOut:     innerOut * inner.Width,
	}
	inner.TrueRows = innerOut / math.Max(lookups, 1)
	n.Work = plan.Counters{
		TuplesIn:  float64(len(outer.rows)) + innerOut,
		TuplesOut: float64(len(out.rows)),
		BytesOut:  float64(len(out.rows)) * n.Width,
	}
	n.TrueRows = float64(len(out.rows))
	return out, nil
}

// sidesNL orients a join for a nested-loop whose inner is a base table.
func sidesNL(j *query.Join, outer *batch, innerTable string) (query.ColumnRef, query.ColumnRef, error) {
	if j.Left.Table == innerTable {
		if _, ok := outer.pos[j.Right.Table]; !ok {
			return query.ColumnRef{}, query.ColumnRef{}, fmt.Errorf("engine: join %s does not connect outer", j)
		}
		return j.Right, j.Left, nil
	}
	if j.Right.Table == innerTable {
		if _, ok := outer.pos[j.Left.Table]; !ok {
			return query.ColumnRef{}, query.ColumnRef{}, fmt.Errorf("engine: join %s does not connect outer", j)
		}
		return j.Left, j.Right, nil
	}
	return query.ColumnRef{}, query.ColumnRef{}, fmt.Errorf("engine: join %s does not involve inner table %s", j, innerTable)
}
