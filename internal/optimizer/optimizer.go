package optimizer

import (
	"fmt"
	"math"
	"sort"

	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/stats"
)

// IndexSet names the secondary indexes visible to the planner, keyed
// "table.column". Hypothetical ("what-if") indexes are expressed by simply
// adding keys that do not exist in storage; the engine materializes them on
// demand when such a plan is executed.
type IndexSet map[string]bool

// Key builds the canonical IndexSet key.
func Key(table, column string) string { return table + "." + column }

// Has reports whether table.column is indexed.
func (s IndexSet) Has(table, column string) bool { return s[Key(table, column)] }

// Optimizer plans queries against one database's schema and statistics.
type Optimizer struct {
	sch     *schema.Schema
	stats   *stats.DBStats
	indexes IndexSet
	params  CostParams
}

// New creates an optimizer. indexes may be nil (no secondary indexes).
func New(sch *schema.Schema, st *stats.DBStats, indexes IndexSet, params CostParams) *Optimizer {
	if indexes == nil {
		indexes = IndexSet{}
	}
	return &Optimizer{sch: sch, stats: st, indexes: indexes, params: params}
}

// Plan produces the cheapest physical plan for the query under the
// analytical cost model. The returned plan carries estimated
// cardinalities, widths and cumulative costs on every node.
func (o *Optimizer) Plan(q *query.Query) (*plan.Node, error) {
	return o.plan(q, nil)
}

// PlanWith plans with an external cost function ranking candidate join
// subplans — the paper's Section 4.2 "naïve approach": use the zero-shot
// cost model to evaluate candidate plans and steer the optimizer. Access
// paths are still chosen analytically; join order and join algorithm are
// ranked by costFn.
func (o *Optimizer) PlanWith(q *query.Query, costFn func(*plan.Node) float64) (*plan.Node, error) {
	if costFn == nil {
		return nil, fmt.Errorf("optimizer: PlanWith requires a cost function")
	}
	return o.plan(q, costFn)
}

func (o *Optimizer) plan(q *query.Query, costFn func(*plan.Node) float64) (*plan.Node, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	if len(q.Tables) > 20 {
		return nil, fmt.Errorf("optimizer: %d tables exceed DP limit", len(q.Tables))
	}
	tables := append([]string(nil), q.Tables...)
	sort.Strings(tables) // canonical order for the bitmask DP

	tableIdx := map[string]int{}
	for i, t := range tables {
		tableIdx[t] = i
	}

	key := func(n *plan.Node) float64 {
		if costFn == nil {
			return n.EstCost
		}
		return costFn(n)
	}

	// Best plan (and its ranking key) per connected table subset.
	type entry struct {
		node *plan.Node
		key  float64
	}
	best := map[uint32]entry{}
	for i, t := range tables {
		ap := o.bestAccessPath(t, q.FiltersOn(t))
		best[1<<uint(i)] = entry{node: ap, key: key(ap)}
	}

	n := len(tables)
	full := uint32(1)<<uint(n) - 1
	// DP over subset sizes. For each subset, try every split into two
	// connected halves joined by at least one join condition.
	for size := 2; size <= n; size++ {
		for s := uint32(1); s <= full; s++ {
			if popcount(s) != size {
				continue
			}
			// Enumerate proper non-empty subsets l of s (r = s \ l).
			for l := (s - 1) & s; l > 0; l = (l - 1) & s {
				r := s &^ l
				if r == 0 || l > r { // each unordered split once; orders tried below
					continue
				}
				pl, okL := best[l]
				pr, okR := best[r]
				if !okL || !okR {
					continue
				}
				joins := connectingJoins(q, tableIdx, l, r)
				if len(joins) == 0 {
					continue
				}
				for _, cand := range o.joinCandidates(q, pl.node, pr.node, joins[0], joins) {
					k := key(cand)
					if cur, ok := best[s]; !ok || k < cur.key {
						best[s] = entry{node: cand, key: k}
					}
				}
			}
		}
	}

	rootEntry, ok := best[full]
	if !ok {
		return nil, fmt.Errorf("optimizer: no plan connects all tables of %q", q.SQL())
	}
	root := o.addAggregate(rootEntry.node, q)
	if err := root.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: produced invalid plan: %w", err)
	}
	return root, nil
}

// bestAccessPath picks the cheaper of a sequential scan and any applicable
// index scan for a base table with its pushed-down filters.
func (o *Optimizer) bestAccessPath(table string, filters []query.Filter) *plan.Node {
	tm := o.sch.Table(table)
	rows := float64(tm.RowCount)
	pages := float64(tm.PageCount)
	width := float64(tm.RowWidth())
	sel := o.stats.ScanSelectivity(filters)
	outRows := math.Max(rows*sel, 1)

	seq := plan.NewNode(plan.SeqScan)
	seq.Table = table
	seq.Filters = filters
	seq.EstRows = outRows
	seq.Width = width
	seq.EstCost = o.params.costSeqScan(pages, rows, len(filters))

	bestPlan := seq
	// Try an index scan per filter whose column is indexed. The indexed
	// predicate drives the range; remaining filters are residual.
	for i, f := range filters {
		if !o.indexes.Has(table, f.Col.Column) {
			continue
		}
		idxSel := o.stats.FilterSelectivity(f)
		matched := math.Max(rows*idxSel, 1)
		ix := plan.NewNode(plan.IndexScan)
		ix.Table = table
		ix.IndexColumn = f.Col.Column
		// Order filters so the index-driving predicate comes first; the
		// engine relies on this convention.
		ix.Filters = append([]query.Filter{f}, removeFilter(filters, i)...)
		ix.EstRows = outRows
		ix.Width = width
		ix.EstCost = o.params.costIndexScan(rows, matched, len(filters)-1)
		if ix.EstCost < bestPlan.EstCost {
			bestPlan = ix
		}
	}
	return bestPlan
}

func removeFilter(fs []query.Filter, i int) []query.Filter {
	out := make([]query.Filter, 0, len(fs)-1)
	out = append(out, fs[:i]...)
	out = append(out, fs[i+1:]...)
	return out
}

// connectingJoins returns the query joins with one side in subset l and the
// other in subset r.
func connectingJoins(q *query.Query, tableIdx map[string]int, l, r uint32) []query.Join {
	var out []query.Join
	for _, j := range q.Joins {
		li, ri := uint32(1)<<uint(tableIdx[j.Left.Table]), uint32(1)<<uint(tableIdx[j.Right.Table])
		if (li&l != 0 && ri&r != 0) || (li&r != 0 && ri&l != 0) {
			out = append(out, j)
		}
	}
	return out
}

// joinCandidates builds the physical join alternatives for combining two
// subplans: hash joins in both orders, and index-nested-loop joins when one
// side is a base-table scan with an index on its join column.
func (o *Optimizer) joinCandidates(q *query.Query, a, b *plan.Node, j query.Join, all []query.Join) []*plan.Node {
	outRows := o.joinOutputRows(a, b, all)
	width := a.Width + b.Width

	var cands []*plan.Node
	for _, ord := range [][2]*plan.Node{{a, b}, {b, a}} {
		probe, build := ord[0], ord[1]
		hj := plan.NewNode(plan.HashJoin)
		cond := j
		hj.Join = &cond
		hj.Children = []*plan.Node{probe, build}
		hj.EstRows = outRows
		hj.Width = width
		hj.EstCost = probe.EstCost + build.EstCost +
			o.params.costHashJoin(build.EstRows, probe.EstRows, outRows)
		cands = append(cands, hj)

		// Index nested-loop: inner must be a bare scan of one table with an
		// index on its join-side column.
		inner := build
		var innerCol string
		switch {
		case inner.Op != plan.SeqScan && inner.Op != plan.IndexScan:
			continue
		case j.Left.Table == inner.Table:
			innerCol = j.Left.Column
		case j.Right.Table == inner.Table:
			innerCol = j.Right.Column
		default:
			continue
		}
		if !o.indexes.Has(inner.Table, innerCol) {
			continue
		}
		innerRows := float64(o.sch.Table(inner.Table).RowCount)
		lookup := plan.NewNode(plan.IndexScan)
		lookup.Table = inner.Table
		lookup.IndexColumn = innerCol
		lookup.LookupJoin = true
		lookup.Filters = inner.Filters
		avgMatches := outRows / math.Max(probe.EstRows, 1)
		lookup.EstRows = math.Max(avgMatches, 1)
		lookup.Width = inner.Width
		lookup.EstCost = o.params.costIndexLookup(innerRows, avgMatches, len(inner.Filters))

		nl := plan.NewNode(plan.NestedLoopJoin)
		cond2 := j
		nl.Join = &cond2
		nl.Children = []*plan.Node{probe, lookup}
		nl.EstRows = outRows
		nl.Width = width
		nl.EstCost = probe.EstCost + float64(probe.EstRows*lookup.EstCost) + float64(outRows*o.params.CPUTuple)
		cands = append(cands, nl)
	}
	return cands
}

// joinOutputRows estimates the join result size: product of input
// cardinalities times the selectivity of every connecting join condition.
func (o *Optimizer) joinOutputRows(a, b *plan.Node, joins []query.Join) float64 {
	rows := a.EstRows * b.EstRows
	for _, j := range joins {
		rows *= o.stats.JoinSelectivity(j)
	}
	return math.Max(rows, 1)
}

// addAggregate wraps the join tree in a HashAggregate if the query
// aggregates.
func (o *Optimizer) addAggregate(child *plan.Node, q *query.Query) *plan.Node {
	if len(q.Aggregates) == 0 && len(q.GroupBy) == 0 {
		return child
	}
	agg := plan.NewNode(plan.HashAggregate)
	agg.Aggregates = q.Aggregates
	agg.GroupBy = q.GroupBy
	agg.Children = []*plan.Node{child}
	groups := o.stats.EstimateGroupCount(q.GroupBy, child.EstRows)
	agg.EstRows = groups
	agg.Width = float64(16 * (len(q.Aggregates) + len(q.GroupBy)))
	agg.EstCost = child.EstCost + o.params.costAggregate(child.EstRows, groups, len(q.Aggregates))
	return agg
}

func popcount(x uint32) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}
