// Package optimizer implements a cost-based query optimizer: access-path
// selection, dynamic-programming join enumeration over connected subgraphs,
// join-algorithm choice and aggregate placement.
//
// It substitutes for the PostgreSQL planner in the paper's prototype. Its
// three outputs are exactly what the paper's pipeline consumes: physical
// plans, per-operator estimated cardinalities, and a total optimizer cost
// (the input of the Scaled Optimizer Cost baseline). Hypothetical indexes
// make the planner "what-if"-capable for the index-tuning experiment.
//
// Every product that feeds an add is written float64(a*b): the explicit
// conversion forbids gc from fusing it into one multiply-add on arm64 and
// ppc64le, so cost and cardinality estimates round the same on every
// architecture.
package optimizer

import (
	"math"

	"github.com/zeroshot-db/zeroshot/internal/plan"
)

// CostParams are the abstract cost-unit constants of the analytical cost
// model. Defaults mirror PostgreSQL's planner constants.
type CostParams struct {
	SeqPage    float64 // cost of a sequentially fetched page
	RandomPage float64 // cost of a randomly fetched page
	CPUTuple   float64 // cost of processing one tuple
	CPUIndex   float64 // cost of processing one index entry
	CPUOper    float64 // cost of one operator/predicate evaluation
	// HeapFetchFrac discounts per-match random heap fetches of index scans
	// for buffer caching.
	HeapFetchFrac float64
}

// DefaultCostParams returns PostgreSQL's default planner constants.
func DefaultCostParams() CostParams {
	return CostParams{
		SeqPage:       1.0,
		RandomPage:    4.0,
		CPUTuple:      0.01,
		CPUIndex:      0.005,
		CPUOper:       0.0025,
		HeapFetchFrac: 0.2,
	}
}

// btreeHeight estimates the descent depth of a B-tree with n entries
// (fanout 256), matching storage.Index.EstimateHeight.
func btreeHeight(n float64) float64 {
	if n <= 1 {
		return 1
	}
	h := math.Ceil(math.Log(n) / math.Log(256))
	if h < 1 {
		h = 1
	}
	return h
}

// costSeqScan returns the cost of scanning `pages` pages of `rows` tuples
// and evaluating `nFilters` predicates per tuple.
func (p CostParams) costSeqScan(pages, rows float64, nFilters int) float64 {
	return float64(pages*p.SeqPage) + float64(rows*p.CPUTuple) + float64(rows*float64(nFilters)*p.CPUOper)
}

// costIndexScan returns the cost of an index range scan matching
// `matched` of `total` entries, then applying `remFilters` residual
// predicates per fetched row.
func (p CostParams) costIndexScan(total, matched float64, remFilters int) float64 {
	descent := float64(btreeHeight(total) * p.RandomPage)
	entries := float64(matched * p.CPUIndex)
	heap := float64(matched * p.RandomPage * p.HeapFetchFrac)
	resid := float64(matched * float64(remFilters) * p.CPUOper)
	return descent + entries + heap + resid + float64(matched*p.CPUTuple)
}

// costIndexLookup returns the per-execution cost of a parameterized index
// lookup (inner side of a nested-loop join) expecting `avgMatches` matches
// from an index of `total` entries.
func (p CostParams) costIndexLookup(total, avgMatches float64, remFilters int) float64 {
	descent := float64(btreeHeight(total) * p.CPUOper * 4)
	perMatch := float64(avgMatches * (p.CPUIndex + float64(p.RandomPage*p.HeapFetchFrac) + float64(float64(remFilters)*p.CPUOper) + p.CPUTuple))
	return descent + perMatch
}

// costHashJoin returns the cost of building on `buildRows` and probing with
// `probeRows`, emitting `outRows`.
func (p CostParams) costHashJoin(buildRows, probeRows, outRows float64) float64 {
	build := float64(buildRows * (float64(p.CPUOper*1.5) + p.CPUTuple))
	probe := float64(probeRows * p.CPUOper)
	emit := float64(outRows * p.CPUTuple)
	return build + probe + emit
}

// costAggregate returns the cost of aggregating `inRows` into `groups`
// groups with `nAggs` aggregate expressions.
func (p CostParams) costAggregate(inRows, groups float64, nAggs int) float64 {
	if nAggs < 1 {
		nAggs = 1
	}
	return float64(inRows*float64(nAggs)*p.CPUOper) + float64(inRows*p.CPUOper) + float64(groups*p.CPUTuple)
}

// TotalCost returns the plan's root cumulative cost estimate; exposed for
// the Scaled Optimizer Cost baseline.
func TotalCost(root *plan.Node) float64 { return root.EstCost }
