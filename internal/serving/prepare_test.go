package serving

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

// capturingEstimator is a fakeEstimator that keeps the inputs of its
// last PredictBatch call. Session.PredictBatch calls it on the caller's
// goroutine, so the test reads them without a lock.
type capturingEstimator struct {
	*fakeEstimator
	ins []costmodel.PlanInput
}

func (c *capturingEstimator) PredictBatch(ctx context.Context, ins []costmodel.PlanInput) ([]float64, error) {
	c.ins = append([]costmodel.PlanInput(nil), ins...)
	return c.fakeEstimator.PredictBatch(ctx, ins)
}

// serialPrepare runs the one-statement-at-a-time prepare loop over a
// fresh pipeline for db: the reference a batch's parallel prepare stage
// must reproduce.
func serialPrepare(t *testing.T, db testDB, sqls []string) (*dbSession, []costmodel.PlanInput, []error) {
	t.Helper()
	d := newDBSession("ref", db.db, 0)
	ins := make([]costmodel.PlanInput, len(sqls))
	errs := make([]error, len(sqls))
	for i, sql := range sqls {
		ins[i], _, _, errs[i] = d.prepare(context.Background(), sql)
	}
	return d, ins, errs
}

// TestPredictBatchRepeatPreparesOnce sends batches that repeat one
// statement (also reformatted, so only the fingerprint matches) next to
// a repeated malformed one. The repeat is parsed and planned once, its
// items share one PlanInput, and the plan cache's hits and misses equal
// the serial loop's.
func TestPredictBatchRepeatPreparesOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	imdb, _ := fixtures(t)
	est := &capturingEstimator{fakeEstimator: &fakeEstimator{name: "fake"}}
	sess := NewSession(Config{})
	defer sess.Close()
	sess.AttachDatabase("imdb", imdb.db)
	sess.AttachModel(est)

	rep := imdb.sqls[0]
	batches := [][]string{
		{rep, "garbage", "  " + rep + "\n", imdb.sqls[1], rep, "garbage", rep},
		{imdb.sqls[1], rep, rep}, // both already cached
	}
	var all []string
	for _, sqls := range batches {
		res, err := sess.PredictBatch(context.Background(), "imdb", "fake", sqls)
		if err != nil {
			t.Fatal(err)
		}
		for i, item := range res.Items {
			if (sqls[i] == "garbage") != (item.Err != nil) {
				t.Fatalf("item %d (%q): err = %v", i, sqls[i], item.Err)
			}
		}
		// Items of one statement reach the estimator as one PlanInput.
		enc := map[string]*costmodel.EncodedPlan{}
		for _, in := range est.ins {
			key := in.Query.SQL()
			if e, ok := enc[key]; ok && e != in.Enc {
				t.Fatalf("repeats of %q carry different PlanInputs", key)
			}
			enc[key] = in.Enc
		}
		if len(enc) != 2 {
			t.Fatalf("estimator saw %d distinct statements, want 2", len(enc))
		}
		all = append(all, sqls...)
	}

	d, err := sess.database("imdb")
	if err != nil {
		t.Fatal(err)
	}
	// The three distinct statements parse once each, the repeated
	// malformed one too; the two valid ones plan once each.
	if n := d.lat[StageParse].Snapshot().Count; n != 3 {
		t.Fatalf("parse ran %d times, want 3", n)
	}
	if n := d.lat[StageOptimize].Snapshot().Count; n != 2 {
		t.Fatalf("optimize ran %d times, want 2", n)
	}
	ref, _, _ := serialPrepare(t, imdb, all)
	got, want := d.cache.Stats(), ref.cache.Stats()
	if got.Hits != want.Hits || got.Misses != want.Misses || got.Size != want.Size {
		t.Fatalf("plan cache %+v, serial loop %+v", got, want)
	}
}

// TestPredictBatchMixedErrorsAligned prices a 256-statement batch mixing
// valid, malformed and unknown-table statements. Every item carries the
// serial loop's outcome in its own slot, and Errors counts the failures.
func TestPredictBatchMixedErrorsAligned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	imdb, _ := fixtures(t)
	est := &fakeEstimator{name: "fake"}
	sess := NewSession(Config{})
	defer sess.Close()
	sess.AttachDatabase("imdb", imdb.db)
	sess.AttachModel(est)

	sqls := make([]string, 256)
	for i := range sqls {
		switch i % 5 {
		case 1:
			sqls[i] = fmt.Sprintf("not even sql %d", i)
		case 3:
			sqls[i] = fmt.Sprintf("SELECT COUNT(*) FROM missing_%d", i%7)
		default:
			sqls[i] = imdb.sqls[i%len(imdb.sqls)]
		}
	}
	res, err := sess.PredictBatch(context.Background(), "imdb", "fake", sqls)
	if err != nil {
		t.Fatal(err)
	}
	ref, ins, errs := serialPrepare(t, imdb, sqls)
	bad := 0
	for i, item := range res.Items {
		if errs[i] != nil {
			bad++
			if item.Err == nil || item.Err.Error() != errs[i].Error() {
				t.Fatalf("item %d (%q): err = %v, serial loop %v", i, sqls[i], item.Err, errs[i])
			}
			continue
		}
		want, _ := est.Predict(context.Background(), ins[i])
		if item.Err != nil || item.RuntimeSec != want {
			t.Fatalf("item %d (%q) = %+v, serial loop %v", i, sqls[i], item, want)
		}
	}
	if bad == 0 || bad == len(sqls) {
		t.Fatalf("%d of %d statements failed; the batch must mix both", bad, len(sqls))
	}
	if st := sess.Stats(); st.Errors != int64(bad) {
		t.Fatalf("Errors = %d, want %d", st.Errors, bad)
	}
	d, err := sess.database("imdb")
	if err != nil {
		t.Fatal(err)
	}
	got, want := d.cache.Stats(), ref.cache.Stats()
	if got.Hits != want.Hits || got.Misses != want.Misses {
		t.Fatalf("plan cache %+v, serial loop %+v", got, want)
	}
}
