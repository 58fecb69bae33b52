package serving

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// fakeEstimator is a deterministic, instant Estimator so serving tests
// exercise the pipeline, cache and scheduler without training a model.
// Predictions are a fixed function of the optimizer cost.
type fakeEstimator struct {
	name       string
	bias       float64                         // distinguishes model generations
	delay      time.Duration                   // simulated per-batch inference time
	hold       chan struct{}                   // when non-nil, PredictBatch waits until it is closed
	poison     func(costmodel.PlanInput) error // per-input failure injection
	batchCalls atomic.Int64
	batchMax   atomic.Int64
}

func (f *fakeEstimator) Name() string { return f.name }

func (f *fakeEstimator) Fit(ctx context.Context, samples []costmodel.Sample) (*costmodel.FitReport, error) {
	return &costmodel.FitReport{Samples: len(samples)}, nil
}

func (f *fakeEstimator) Predict(ctx context.Context, in costmodel.PlanInput) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if f.poison != nil {
		if err := f.poison(in); err != nil {
			return 0, err
		}
	}
	return 0.001 + f.bias + in.OptimizerCost*1e-9, nil
}

func (f *fakeEstimator) PredictBatch(ctx context.Context, ins []costmodel.PlanInput) ([]float64, error) {
	f.batchCalls.Add(1)
	for {
		cur := f.batchMax.Load()
		if int64(len(ins)) <= cur || f.batchMax.CompareAndSwap(cur, int64(len(ins))) {
			break
		}
	}
	if f.hold != nil {
		<-f.hold
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	out := make([]float64, len(ins))
	for i, in := range ins {
		v, err := f.Predict(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

func (f *fakeEstimator) Save(w io.Writer) error { return nil }

// testDB is one generated database plus valid SQL texts for it.
type testDB struct {
	db   *storage.Database
	sqls []string
}

var (
	fixOnce sync.Once
	fixIMDB testDB
	fixSSB  testDB
	fixErr  error
)

// fixtures builds two small schemas (IMDB-like and SSB-like) with a
// handful of executable SQL statements each, shared across tests.
func fixtures(t testing.TB) (testDB, testDB) {
	t.Helper()
	fixOnce.Do(func() {
		build := func(gen func(float64) (*storage.Database, error)) (testDB, error) {
			db, err := gen(0.05)
			if err != nil {
				return testDB{}, err
			}
			recs, err := collect.Run(db, collect.Options{Queries: 12, Seed: 11})
			if err != nil {
				return testDB{}, err
			}
			sqls := make([]string, len(recs))
			for i, r := range recs {
				sqls[i] = r.Query.SQL()
			}
			return testDB{db: db, sqls: sqls}, nil
		}
		if fixIMDB, fixErr = build(datagen.IMDBLike); fixErr != nil {
			return
		}
		fixSSB, fixErr = build(datagen.SSBLike)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixIMDB, fixSSB
}

func TestSessionPredictPipeline(t *testing.T) {
	imdb, _ := fixtures(t)
	sess := NewSession(Config{})
	defer sess.Close()
	if err := sess.AttachDatabase("imdb", imdb.db); err != nil {
		t.Fatal(err)
	}
	est := &fakeEstimator{name: "fake"}
	if err := sess.AttachModel(est); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	sql := imdb.sqls[0]
	// Empty db/model names resolve when unambiguous.
	p1, err := sess.Predict(ctx, "", "", sql)
	if err != nil {
		t.Fatal(err)
	}
	if p1.RuntimeSec <= 0 || p1.Database != "imdb" || p1.Model != "fake" {
		t.Fatalf("prediction = %+v", p1)
	}
	if p1.PlanCached {
		t.Fatal("first statement claims a plan-cache hit")
	}
	// Same statement, reformatted: plan cache must hit.
	p2, err := sess.Predict(ctx, "imdb", "fake", "   "+sql+"  ")
	if err != nil {
		t.Fatal(err)
	}
	if !p2.PlanCached {
		t.Fatal("repeated statement missed the plan cache")
	}
	if p2.RuntimeSec != p1.RuntimeSec || p2.OptimizerCost != p1.OptimizerCost {
		t.Fatalf("cached prediction diverged: %+v vs %+v", p1, p2)
	}

	st := sess.Stats()
	if st.Requests != 2 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Databases) != 1 || st.Databases[0].PlanCache.Hits != 1 {
		t.Fatalf("database stats = %+v", st.Databases)
	}
	if st.Databases[0].Stages[StageParse].Count != 1 {
		t.Fatalf("parse stage should have run exactly once: %+v", st.Databases[0].Stages)
	}
	if st.Predict.Count != 2 || st.Scheduler.Items != 2 {
		t.Fatalf("predict/scheduler stats = %+v / %+v", st.Predict, st.Scheduler)
	}
	if got := sess.Models(); len(got) != 1 || got[0] != "fake" {
		t.Fatalf("models = %v", got)
	}
	if dbs := sess.Databases(); len(dbs) != 1 || dbs[0].Name != "imdb" || dbs[0].Tables == 0 {
		t.Fatalf("databases = %+v", dbs)
	}
}

func TestSessionResolutionAndPipelineErrors(t *testing.T) {
	imdb, ssb := fixtures(t)
	sess := NewSession(Config{})
	defer sess.Close()
	for name, db := range map[string]*storage.Database{"imdb": imdb.db, "ssb": ssb.db} {
		if err := sess.AttachDatabase(name, db); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.AttachDatabase("imdb", imdb.db); err == nil {
		t.Fatal("duplicate database attach accepted")
	}
	sess.AttachModel(&fakeEstimator{name: "a"})
	sess.AttachModel(&fakeEstimator{name: "b"})

	ctx := context.Background()
	tests := []struct {
		name          string
		db, model, q  string
		wantErrTarget error
	}{
		{"ambiguous db", "", "a", imdb.sqls[0], ErrNotFound},
		{"unknown db", "nope", "a", imdb.sqls[0], ErrNotFound},
		{"ambiguous model", "imdb", "", imdb.sqls[0], ErrNotFound},
		{"unknown model", "imdb", "nope", imdb.sqls[0], ErrNotFound},
		{"malformed sql", "imdb", "a", "DROP TABLE title", ErrBadQuery},
		{"unknown table", "imdb", "a", "SELECT COUNT(*) FROM nope", ErrBadQuery},
		{"wrong db for table", "ssb", "a", imdb.sqls[0], ErrBadQuery},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := sess.Predict(ctx, tt.db, tt.model, tt.q)
			if !errors.Is(err, tt.wantErrTarget) {
				t.Fatalf("err = %v, want %v", err, tt.wantErrTarget)
			}
		})
	}
	if st := sess.Stats(); st.Errors != int64(len(tests)) {
		t.Fatalf("error counter = %d, want %d", st.Errors, len(tests))
	}
}

func TestSessionPredictBatchPerItemErrors(t *testing.T) {
	imdb, _ := fixtures(t)
	sess := NewSession(Config{})
	defer sess.Close()
	sess.AttachDatabase("imdb", imdb.db)
	sess.AttachModel(&fakeEstimator{name: "fake"})

	sqls := []string{
		imdb.sqls[0],
		"not even sql",
		imdb.sqls[1],
		"SELECT COUNT(*) FROM missing_table",
	}
	res, err := sess.PredictBatch(context.Background(), "imdb", "fake", sqls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Database != "imdb" || res.Model != "fake" {
		t.Fatalf("resolved names = %q/%q", res.Database, res.Model)
	}
	items := res.Items
	if len(items) != len(sqls) {
		t.Fatalf("%d items for %d statements", len(items), len(sqls))
	}
	for i, wantOK := range []bool{true, false, true, false} {
		if wantOK && (items[i].Err != nil || items[i].RuntimeSec <= 0) {
			t.Fatalf("item %d should have predicted: %+v", i, items[i])
		}
		if !wantOK && !errors.Is(items[i].Err, ErrBadQuery) {
			t.Fatalf("item %d should carry a bad-query error: %+v", i, items[i])
		}
	}

	// Request-level failures stay top-level.
	if _, err := sess.PredictBatch(context.Background(), "imdb", "nope", sqls); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown model err = %v", err)
	}
}

// TestSessionBatchFallbackIsolation poisons one input at the estimator
// level: PredictBatch aborts wholesale, and the session must fall back to
// per-item prediction so only the poisoned statement errors.
func TestSessionBatchFallbackIsolation(t *testing.T) {
	imdb, _ := fixtures(t)
	poisonSQL := costmodel.Fingerprint(imdb.sqls[2])
	est := &fakeEstimator{
		name: "fake",
		poison: func(in costmodel.PlanInput) error {
			if costmodel.Fingerprint(in.Query.SQL()) == poisonSQL {
				return fmt.Errorf("poisoned input")
			}
			return nil
		},
	}
	sess := NewSession(Config{})
	defer sess.Close()
	sess.AttachDatabase("imdb", imdb.db)
	sess.AttachModel(est)

	sqls := []string{imdb.sqls[0], imdb.sqls[2], imdb.sqls[1]}
	res, err := sess.PredictBatch(context.Background(), "", "", sqls)
	if err != nil {
		t.Fatal(err)
	}
	// Omitted names come back resolved.
	if res.Database != "imdb" || res.Model != "fake" {
		t.Fatalf("resolved names = %q/%q", res.Database, res.Model)
	}
	items := res.Items
	if items[1].Err == nil {
		t.Fatal("poisoned item reported no error")
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("healthy items poisoned by batch abort: %+v", items)
	}
	if items[0].RuntimeSec <= 0 || items[2].RuntimeSec <= 0 {
		t.Fatalf("healthy items missing predictions: %+v", items)
	}
}

func TestSessionPredictPlanned(t *testing.T) {
	imdb, _ := fixtures(t)
	recs, err := collect.Run(imdb.db, collect.Options{Queries: 8, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	ins := costmodel.Inputs(costmodel.FromRecords(imdb.db, recs))
	sess := NewSession(Config{})
	defer sess.Close()
	// PredictPlanned takes the estimator directly: no attach needed.
	preds, err := sess.PredictPlanned(context.Background(), &fakeEstimator{name: "fake"}, ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(ins) {
		t.Fatalf("%d predictions for %d inputs", len(preds), len(ins))
	}
	if st := sess.Stats(); st.Predict.Count != 1 || st.Requests != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSessionConcurrentMultiDB hammers one Session from many goroutines
// across two attached databases and two models — the -race regression
// test for the serving layer's concurrency story.
func TestSessionConcurrentMultiDB(t *testing.T) {
	imdb, ssb := fixtures(t)
	sess := NewSession(Config{MaxWait: 200 * time.Microsecond})
	sess.AttachDatabase("imdb", imdb.db)
	sess.AttachDatabase("ssb", ssb.db)
	estA := &fakeEstimator{name: "a"}
	estB := &fakeEstimator{name: "b"}
	sess.AttachModel(estA)
	sess.AttachModel(estB)

	dbs := []testDB{imdb, ssb}
	dbNames := []string{"imdb", "ssb"}
	models := []string{"a", "b"}
	const goroutines = 12
	const iters = 30
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d := (g + i) % 2
				model := models[i%2]
				switch i % 4 {
				case 0, 1:
					sql := dbs[d].sqls[(g+i)%len(dbs[d].sqls)]
					if _, err := sess.Predict(ctx, dbNames[d], model, sql); err != nil {
						errCh <- fmt.Errorf("goroutine %d predict: %w", g, err)
						return
					}
				case 2:
					if _, err := sess.PredictBatch(ctx, dbNames[d], model, dbs[d].sqls[:4]); err != nil {
						errCh <- fmt.Errorf("goroutine %d batch: %w", g, err)
						return
					}
				case 3:
					_ = sess.Stats()
					_ = sess.Databases()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := sess.Stats()
	if st.Errors != 0 {
		t.Fatalf("hammer produced %d errors", st.Errors)
	}
	if st.Scheduler.Items == 0 || st.Predict.Count == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Predict(ctx, "imdb", "a", imdb.sqls[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("predict after close = %v, want ErrClosed", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
}

// TestSessionHotSwap replaces an attached model repeatedly and checks a
// long-lived server accumulates no scheduler queues (one per model name,
// ever) and that predictions drain through the newest generation — even
// for a request that resolved the old estimator just before the swap.
func TestSessionHotSwap(t *testing.T) {
	imdb, _ := fixtures(t)
	sess := NewSession(Config{})
	defer sess.Close()
	sess.AttachDatabase("imdb", imdb.db)

	for gen := 0; gen < 3; gen++ {
		est := &fakeEstimator{name: "fake", bias: float64(gen)}
		if err := sess.AttachModel(est); err != nil {
			t.Fatal(err)
		}
		p, err := sess.Predict(context.Background(), "imdb", "fake", imdb.sqls[gen%len(imdb.sqls)])
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if p.RuntimeSec < float64(gen) {
			t.Fatalf("generation %d: prediction %v served by an old generation", gen, p.RuntimeSec)
		}
	}
	sess.sched.mu.RLock()
	queues := len(sess.sched.queues)
	sess.sched.mu.RUnlock()
	if queues != 1 {
		t.Fatalf("%d scheduler queues after 3 hot-swaps, want 1 per model name", queues)
	}

	// A stale estimator reference still lands on the name's queue and
	// drains through the current generation.
	stale := &fakeEstimator{name: "fake", bias: 0}
	v, err := sess.sched.predictOne(context.Background(), stale, costmodel.PlanInput{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v < 2 {
		t.Fatalf("stale reference predicted %v, want the latest generation (bias 2)", v)
	}
}

// cancelAfterN is a context whose Err() starts reporting Canceled after
// n calls — the pipeline checks ctx between stages, so n selects exactly
// where mid-pipeline the cancellation lands (0 = before parse, 1 =
// between parse and optimize, 2 = between optimize and featurize).
type cancelAfterN struct {
	context.Context
	remaining atomic.Int32
}

func newCancelAfterN(n int32) *cancelAfterN {
	c := &cancelAfterN{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *cancelAfterN) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSessionCancellationMidPipeline cancels the caller's context at
// each point of the parse→optimize→featurize chain and checks the
// pipeline stops where it should: earlier stages ran, later stages never
// did, the error is the bare ctx error (not ErrBadQuery — the statement
// was fine), and client cancellations stay out of the Errors stat.
func TestSessionCancellationMidPipeline(t *testing.T) {
	imdb, _ := fixtures(t)
	tests := []struct {
		name       string
		checks     int32
		wantStages []string // stages that must have run exactly once
	}{
		{"before parse", 0, nil},
		{"between parse and optimize", 1, []string{StageParse}},
		{"between optimize and featurize", 2, []string{StageParse, StageOptimize}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sess := NewSession(Config{})
			defer sess.Close()
			sess.AttachDatabase("imdb", imdb.db)
			sess.AttachModel(&fakeEstimator{name: "fake"})
			_, err := sess.Predict(newCancelAfterN(tt.checks), "imdb", "fake", imdb.sqls[0])
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if errors.Is(err, ErrBadQuery) {
				t.Fatal("cancellation wrapped in ErrBadQuery: the statement was fine")
			}
			st := sess.Stats()
			if st.Errors != 0 {
				t.Fatalf("client cancellation counted as a serving error: %+v", st)
			}
			ran := map[string]bool{}
			for _, s := range tt.wantStages {
				ran[s] = true
			}
			for _, stage := range []string{StageParse, StageOptimize, StageFeaturize} {
				got := st.Databases[0].Stages[stage].Count
				var want int64
				if ran[stage] {
					want = 1
				}
				if got != want {
					t.Fatalf("stage %s ran %d times, want %d", stage, got, want)
				}
			}
		})
	}
}

// TestSessionCancellationDuringPredictStage cancels while the predict
// stage is in flight (a slow estimator): the pipeline stages all ran,
// the caller gets its ctx error, and Errors stays zero.
func TestSessionCancellationDuringPredictStage(t *testing.T) {
	imdb, _ := fixtures(t)
	sess := NewSession(Config{})
	defer sess.Close()
	sess.AttachDatabase("imdb", imdb.db)
	sess.AttachModel(&fakeEstimator{name: "fake", delay: 100 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond) // parse/optimize are µs-fast; predict holds for 100ms
		cancel()
	}()
	_, err := sess.Predict(ctx, "imdb", "fake", imdb.sqls[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := sess.Stats()
	if st.Errors != 0 {
		t.Fatalf("mid-predict cancellation counted as a serving error: %+v", st)
	}
	if st.Databases[0].Stages[StageParse].Count != 1 {
		t.Fatalf("parse never ran: %+v", st.Databases[0].Stages)
	}
}

// TestSessionBatchCancellation checks PredictBatch's prepare loop also
// honors the caller's context and keeps cancellations off the error
// counter.
func TestSessionBatchCancellation(t *testing.T) {
	imdb, _ := fixtures(t)
	sess := NewSession(Config{})
	defer sess.Close()
	sess.AttachDatabase("imdb", imdb.db)
	sess.AttachModel(&fakeEstimator{name: "fake"})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sess.PredictBatch(ctx, "imdb", "fake", imdb.sqls[:3])
	if err != nil {
		t.Fatalf("request-level err = %v; cancellation is per item", err)
	}
	for i, item := range res.Items {
		if !errors.Is(item.Err, context.Canceled) {
			t.Fatalf("item %d err = %v, want context.Canceled", i, item.Err)
		}
	}
	if st := sess.Stats(); st.Errors != 0 {
		t.Fatalf("canceled batch counted as serving errors: %+v", st)
	}
}

// TestSessionStatsGenerations checks the per-model generation counters
// and the uptime field: attach bumps to 1, every hot-swap increments and
// refreshes the swap time.
func TestSessionStatsGenerations(t *testing.T) {
	imdb, _ := fixtures(t)
	sess := NewSession(Config{})
	defer sess.Close()
	sess.AttachDatabase("imdb", imdb.db)
	if err := sess.AttachModel(&fakeEstimator{name: "fake"}); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if len(st.Models) != 1 || st.Models[0].Name != "fake" || st.Models[0].Generation != 1 {
		t.Fatalf("models = %+v, want fake at generation 1", st.Models)
	}
	if st.Models[0].LastSwap.IsZero() {
		t.Fatal("attach did not record a swap time")
	}
	if st.UptimeSec <= 0 {
		t.Fatalf("uptime = %v, want > 0", st.UptimeSec)
	}
	firstSwap := st.Models[0].LastSwap

	time.Sleep(time.Millisecond)
	if err := sess.AttachModel(&fakeEstimator{name: "fake", bias: 1}); err != nil {
		t.Fatal(err)
	}
	sess.AttachModel(&fakeEstimator{name: "other"})
	st = sess.Stats()
	if len(st.Models) != 2 {
		t.Fatalf("models = %+v", st.Models)
	}
	// Sorted by name: fake then other.
	if st.Models[0].Generation != 2 || !st.Models[0].LastSwap.After(firstSwap) {
		t.Fatalf("hot-swap not reflected: %+v", st.Models[0])
	}
	if st.Models[1].Name != "other" || st.Models[1].Generation != 1 {
		t.Fatalf("models = %+v", st.Models)
	}
	gen, swapped, err := sess.ModelGeneration("fake")
	if err != nil || gen != 2 || swapped != st.Models[0].LastSwap {
		t.Fatalf("ModelGeneration = %d/%v (err %v)", gen, swapped, err)
	}
	if _, _, err := sess.ModelGeneration("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown model generation err = %v", err)
	}
}

// TestSessionCachedPlan checks the feedback join surface: a predicted
// statement's fingerprint resolves to its retained PlanInput without
// touching the cache's traffic stats.
func TestSessionCachedPlan(t *testing.T) {
	imdb, _ := fixtures(t)
	sess := NewSession(Config{})
	defer sess.Close()
	sess.AttachDatabase("imdb", imdb.db)
	sess.AttachModel(&fakeEstimator{name: "fake"})

	p, err := sess.Predict(context.Background(), "imdb", "fake", imdb.sqls[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint == "" {
		t.Fatal("prediction carries no fingerprint")
	}
	in, ok, err := sess.CachedPlan("imdb", p.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("cached plan lookup: ok=%v err=%v", ok, err)
	}
	if in.Plan == nil || in.Query == nil || in.OptimizerCost != p.OptimizerCost {
		t.Fatalf("retained input incomplete: %+v", in)
	}
	if _, ok, _ := sess.CachedPlan("imdb", "never-predicted"); ok {
		t.Fatal("lookup hit for an unknown fingerprint")
	}
	if _, _, err := sess.CachedPlan("nope", p.Fingerprint); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown db err = %v", err)
	}
	hits := sess.Stats().Databases[0].PlanCache.Hits
	if hits != 0 {
		t.Fatalf("CachedPlan counted as cache traffic: %d hits", hits)
	}
}

// TestSessionCanceledClientNotAnError checks an impatient client's
// context expiry is surfaced as a ctx error but kept out of the Errors
// stat — operators alert on Errors, and a healthy server under client
// timeouts is not erroring.
func TestSessionCanceledClientNotAnError(t *testing.T) {
	imdb, _ := fixtures(t)
	sess := NewSession(Config{})
	defer sess.Close()
	sess.AttachDatabase("imdb", imdb.db)
	sess.AttachModel(&fakeEstimator{name: "fake", delay: 50 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := sess.Predict(ctx, "imdb", "fake", imdb.sqls[0])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if st := sess.Stats(); st.Errors != 0 {
		t.Fatalf("client timeout counted as a serving error: %+v", st)
	}
}

// TestSessionCloseDrains checks shutdown semantics: requests accepted
// before Close still get answers; requests after Close are rejected.
func TestSessionCloseDrains(t *testing.T) {
	imdb, _ := fixtures(t)
	sess := NewSession(Config{MaxWait: 5 * time.Millisecond})
	sess.AttachDatabase("imdb", imdb.db)
	est := &fakeEstimator{name: "fake", delay: 2 * time.Millisecond}
	sess.AttachModel(est)

	const n = 16
	var wg sync.WaitGroup
	results := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := sess.Predict(context.Background(), "imdb", "fake", imdb.sqls[i%len(imdb.sqls)])
			results[i] = err
		}(i)
	}
	time.Sleep(time.Millisecond)
	sess.Close()
	wg.Wait()
	for i, err := range results {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("request %d: %v (want success or ErrClosed)", i, err)
		}
	}
}
