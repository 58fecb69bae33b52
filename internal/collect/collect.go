// Package collect implements the training-data collection pipeline of the
// paper's learning phase: generate a workload against a database, plan
// every query, execute the plans to obtain true cardinalities and work
// counters, and simulate the runtime measurement.
//
// One Record corresponds to one "executed training query" of the paper;
// collecting records across many databases is the one-time effort that
// zero-shot training amortizes.
package collect

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/zeroshot-db/zeroshot/internal/engine"
	"github.com/zeroshot-db/zeroshot/internal/hwsim"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// Record is one executed training/evaluation query.
type Record struct {
	DB         string
	Query      *query.Query
	Plan       *plan.Node // executed: TrueRows and Work filled
	RuntimeSec float64
	// OptimizerCost is the analytical total cost estimate, the input of
	// the Scaled Optimizer Cost baseline.
	OptimizerCost float64
	// PeakMemBytes is the simulated peak working-set size of the
	// execution — the resource-consumption target of Section 4.3.
	PeakMemBytes float64
}

// WorkloadFunc produces n queries against a database (the signatures of
// query.JOBLight / Scale / Synthetic).
type WorkloadFunc func(db *storage.Database, n int, seed int64) ([]*query.Query, error)

// Options configures a collection run.
type Options struct {
	// Queries is the number of records to collect.
	Queries int
	// Seed drives workload generation and runtime noise.
	Seed int64
	// Workload generates the queries; nil means query.Synthetic.
	Workload WorkloadFunc
	// Indexes are the secondary indexes visible to the planner (nil: none).
	Indexes optimizer.IndexSet
	// Profile is the simulated machine; zero value means hwsim.DefaultProfile.
	Profile hwsim.Profile
	// MaxIntermediate caps intermediate result sizes (0: engine default).
	MaxIntermediate int
}

// Run collects records from one database. Queries whose execution exceeds
// the intermediate cap are skipped and replaced (more are generated), so
// the returned slice has exactly opts.Queries records unless generation
// stalls.
func Run(db *storage.Database, opts Options) ([]Record, error) {
	if opts.Queries <= 0 {
		return nil, fmt.Errorf("collect: Queries must be positive")
	}
	workload := opts.Workload
	if workload == nil {
		workload = query.Synthetic
	}
	prof := opts.Profile
	if prof.Name == "" {
		prof = hwsim.DefaultProfile()
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	opt := optimizer.New(db.Schema, st, opts.Indexes, optimizer.DefaultCostParams())
	ex := engine.New(db, engine.Config{MaxIntermediate: opts.MaxIntermediate})
	sim := hwsim.New(prof, opts.Seed+1)

	var out []Record
	// Generate in rounds: some queries are skipped (too-large results), so
	// over-generate until the target count is reached.
	seed := opts.Seed
	const maxRounds = 12
	for round := 0; round < maxRounds && len(out) < opts.Queries; round++ {
		need := opts.Queries - len(out)
		qs, err := workload(db, need+need/4+4, seed)
		if err != nil {
			return nil, fmt.Errorf("collect: workload on %s: %w", db.Schema.Name, err)
		}
		seed += int64(len(qs)) + 7
		for _, q := range qs {
			if len(out) >= opts.Queries {
				break
			}
			p, err := opt.Plan(q)
			if err != nil {
				return nil, fmt.Errorf("collect: plan %q: %w", q.SQL(), err)
			}
			if _, err := ex.Execute(p); err != nil {
				if errors.Is(err, engine.ErrTooLarge) {
					continue
				}
				return nil, fmt.Errorf("collect: execute %q: %w", q.SQL(), err)
			}
			out = append(out, Record{
				DB:            db.Schema.Name,
				Query:         q,
				Plan:          p,
				RuntimeSec:    sim.Runtime(p),
				OptimizerCost: optimizer.TotalCost(p),
				PeakMemBytes:  hwsim.PeakMemoryBytes(p),
			})
		}
	}
	if len(out) < opts.Queries {
		return nil, fmt.Errorf("collect: only %d of %d queries executable on %s", len(out), opts.Queries, db.Schema.Name)
	}
	return out, nil
}

// RunAll collects records from every database, Run on each with
// opts(i), on at most GOMAXPROCS goroutines that each take the next
// database as they finish the last (databases differ in size, so static
// blocks would leave a core idle). out[i] holds database i's records,
// exactly as a serial loop of Run calls would produce them. The returned
// error is that of the lowest failing index, naming its database. opts
// may be called from several goroutines at once.
func RunAll(dbs []*storage.Database, opts func(i int) Options) ([][]Record, error) {
	out := make([][]Record, len(dbs))
	errs := make([]error, len(dbs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(dbs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(dbs) {
					return
				}
				recs, err := Run(dbs[i], opts(i))
				if err != nil {
					errs[i] = fmt.Errorf("collect: database %s: %w", dbs[i].Schema.Name, err)
					continue
				}
				out[i] = recs
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RandomIndexes builds "a random but fixed set of indexes" for a database,
// as the paper does before running the index-tuning training queries:
// every FK join column is indexed with probability fkProb and every other
// non-PK column with probability colProb.
func RandomIndexes(db *storage.Database, seed int64, fkProb, colProb float64) optimizer.IndexSet {
	rng := rand.New(rand.NewSource(seed))
	set := optimizer.IndexSet{}
	isFK := map[string]bool{}
	for _, fk := range db.Schema.ForeignKeys {
		isFK[fk.FromTable+"."+fk.FromColumn] = true
	}
	for _, tm := range db.Schema.Tables {
		for _, cm := range tm.Columns {
			if cm.PrimaryKey {
				continue
			}
			key := optimizer.Key(tm.Name, cm.Name)
			p := colProb
			if isFK[key] {
				p = fkProb
			}
			if rng.Float64() < p {
				set[key] = true
			}
		}
	}
	return set
}
