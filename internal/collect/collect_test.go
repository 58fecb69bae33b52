package collect

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
)

func TestRunCollectsRequestedCount(t *testing.T) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Run(db, Options{Queries: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 40 {
		t.Fatalf("got %d records, want 40", len(recs))
	}
	for i, r := range recs {
		if r.DB != "imdb" {
			t.Fatalf("record %d DB = %s", i, r.DB)
		}
		if r.RuntimeSec <= 0 {
			t.Fatalf("record %d runtime = %v", i, r.RuntimeSec)
		}
		if r.OptimizerCost <= 0 {
			t.Fatalf("record %d optimizer cost = %v", i, r.OptimizerCost)
		}
		if r.Plan == nil || r.Plan.TrueRows < 0 {
			t.Fatalf("record %d plan not executed", i)
		}
	}
}

func TestRunDeterministicRuntimes(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	a, err := Run(db, Options{Queries: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(db, Options{Queries: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].RuntimeSec != b[i].RuntimeSec {
			t.Fatalf("record %d runtime differs: %v vs %v", i, a[i].RuntimeSec, b[i].RuntimeSec)
		}
		if a[i].Query.SQL() != b[i].Query.SQL() {
			t.Fatalf("record %d query differs", i)
		}
	}
}

func TestRunWithCustomWorkload(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	recs, err := Run(db, Options{Queries: 15, Seed: 2, Workload: query.JOBLight})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if len(r.Query.Aggregates) != 1 || r.Query.Aggregates[0].Func != query.AggCount {
			t.Fatalf("JOB-light record has aggregates %v", r.Query.Aggregates)
		}
	}
}

func TestRunWithIndexesProducesIndexPlans(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	idx := RandomIndexes(db, 3, 1.0, 0.5)
	if len(idx) == 0 {
		t.Fatal("RandomIndexes produced nothing at high probabilities")
	}
	recs, err := Run(db, Options{Queries: 60, Seed: 3, Indexes: idx})
	if err != nil {
		t.Fatal(err)
	}
	indexScans := 0
	for _, r := range recs {
		r.Plan.Walk(func(n *plan.Node) {
			if n.Op == plan.IndexScan {
				indexScans++
			}
		})
	}
	if indexScans == 0 {
		t.Fatal("no index scans in any collected plan despite indexes everywhere")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	if _, err := Run(db, Options{Queries: 0}); err == nil {
		t.Fatal("accepted zero queries")
	}
}

func TestRandomIndexesDeterministicAndProbabilistic(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	a := RandomIndexes(db, 7, 0.8, 0.3)
	b := RandomIndexes(db, 7, 0.8, 0.3)
	if len(a) != len(b) {
		t.Fatal("not deterministic")
	}
	for k := range a {
		if !b[k] {
			t.Fatal("index sets differ for equal seeds")
		}
	}
	none := RandomIndexes(db, 7, 0, 0)
	if len(none) != 0 {
		t.Fatalf("zero probabilities produced %d indexes", len(none))
	}
	// Primary keys never get secondary indexes.
	all := RandomIndexes(db, 7, 1, 1)
	for k := range all {
		if k == "title.id" {
			t.Fatal("indexed a primary key")
		}
	}
}

func TestRunAllMatchesSerialLoop(t *testing.T) {
	dbs, err := datagen.TrainingCorpus(3, 1, datagen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := func(i int) Options { return Options{Queries: 20, Seed: 1 + int64(i*1000)} }
	want := make([][]Record, len(dbs)) // the plain loop RunAll replaces
	for i, db := range dbs {
		if want[i], err = Run(db, opts(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got, err := RunAll(dbs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d databases, want %d", len(got), len(want))
			}
			for d := range want {
				if len(got[d]) != len(want[d]) {
					t.Fatalf("db %d: %d records, want %d", d, len(got[d]), len(want[d]))
				}
				for r, w := range want[d] {
					g := got[d][r]
					if g.DB != w.DB || g.Query.SQL() != w.Query.SQL() || g.RuntimeSec != w.RuntimeSec ||
						g.OptimizerCost != w.OptimizerCost || g.PeakMemBytes != w.PeakMemBytes {
						t.Fatalf("db %d record %d differs:\n got %s %q %v %v %v\nwant %s %q %v %v %v", d, r,
							g.DB, g.Query.SQL(), g.RuntimeSec, g.OptimizerCost, g.PeakMemBytes,
							w.DB, w.Query.SQL(), w.RuntimeSec, w.OptimizerCost, w.PeakMemBytes)
					}
					var gn, wn []*plan.Node
					g.Plan.Walk(func(n *plan.Node) { gn = append(gn, n) })
					w.Plan.Walk(func(n *plan.Node) { wn = append(wn, n) })
					if len(gn) != len(wn) {
						t.Fatalf("db %d record %d: %d plan nodes, want %d", d, r, len(gn), len(wn))
					}
					for n := range wn {
						if gn[n].TrueRows != wn[n].TrueRows || gn[n].Work != wn[n].Work {
							t.Fatalf("db %d record %d node %d: rows %v work %+v, want rows %v work %+v",
								d, r, n, gn[n].TrueRows, gn[n].Work, wn[n].TrueRows, wn[n].Work)
						}
					}
				}
			}
		})
	}
}

func TestRunAllReturnsLowestFailingDatabase(t *testing.T) {
	dbs, err := datagen.TrainingCorpus(3, 1, datagen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, bad := range [][]int{{1}, {1, 2}} {
		recs, err := RunAll(dbs, func(i int) Options {
			for _, b := range bad {
				if i == b {
					return Options{Queries: 0}
				}
			}
			return Options{Queries: 5, Seed: int64(i)}
		})
		if err == nil {
			t.Fatalf("bad options on %v: no error (records %d)", bad, len(recs))
		}
		if recs != nil {
			t.Fatalf("bad options on %v: records returned alongside %v", bad, err)
		}
		if msg := err.Error(); !strings.Contains(msg, dbs[1].Schema.Name) || !strings.Contains(msg, "Queries must be positive") {
			t.Fatalf("bad options on %v: error %q does not name %s and its cause", bad, msg, dbs[1].Schema.Name)
		}
	}
}
