package serving

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

// schedIn builds a synthetic input; the fake estimator only reads
// OptimizerCost, so no database is needed at the scheduler layer.
func schedIn(cost float64) costmodel.PlanInput {
	return costmodel.PlanInput{OptimizerCost: cost}
}

// TestSchedulerCoalesces fires a burst of concurrent singles and checks
// they drain in fewer, larger micro-batches through PredictBatch.
func TestSchedulerCoalesces(t *testing.T) {
	est := &fakeEstimator{name: "fake", delay: 5 * time.Millisecond}
	s := newScheduler(32, 50*time.Millisecond)
	defer s.close()

	const clients = 16
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			v, err := s.predictOne(context.Background(), est, schedIn(float64(c)), nil)
			if err == nil && v <= 0 {
				err = errors.New("non-positive prediction")
			}
			if err != nil {
				errCh <- err
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := s.stats()
	if st.Items != clients {
		t.Fatalf("items = %d, want %d", st.Items, clients)
	}
	if st.Batches >= clients {
		t.Fatalf("no coalescing: %d batches for %d singles", st.Batches, clients)
	}
	if st.MaxBatchSize < 2 || st.Coalesced.Hits == 0 {
		t.Fatalf("scheduler stats show no shared batches: %+v", st)
	}
	if st.BatchSizes.Count != st.Batches || int64(st.BatchSizes.Max) != st.MaxBatchSize {
		t.Fatalf("batch-size distribution inconsistent with counters: %+v", st)
	}
	if st.BatchSizes.P95 < st.BatchSizes.P50 || st.BatchSizes.P50 < 1 {
		t.Fatalf("degenerate batch-size quantiles: %+v", st.BatchSizes)
	}
	if got := est.batchCalls.Load(); got != st.Batches {
		t.Fatalf("estimator saw %d batch calls, scheduler counted %d", got, st.Batches)
	}
}

// TestSchedulerMaxBatchCap checks a full batch drains immediately at the
// size cap instead of waiting out the deadline.
func TestSchedulerMaxBatchCap(t *testing.T) {
	est := &fakeEstimator{name: "fake", delay: time.Millisecond, hold: make(chan struct{})}
	const cap = 4
	s := newScheduler(cap, time.Second) // deadline long enough to never fire
	defer s.close()
	q, err := s.queue(est)
	if err != nil {
		t.Fatal(err)
	}

	// Arrivals are ordered, not raced: the first request drains alone and
	// holds the drain loop inside PredictBatch until every other client
	// is queued. A request arriving alone right after a coalesced flush
	// would otherwise linger for the whole deadline, by design.
	const clients = 8
	start := time.Now()
	var wg sync.WaitGroup
	send := func(c int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.predictOne(context.Background(), est, schedIn(float64(c)), nil); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor := func(cond func() bool) {
		for !cond() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	send(0)
	waitFor(func() bool { return est.batchCalls.Load() == 1 })
	for c := 1; c < clients; c++ {
		send(c)
	}
	waitFor(func() bool { return len(q.ch) == clients-1 })
	close(est.hold)
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("burst took %v — batches waited for the deadline instead of draining at the cap", elapsed)
	}
	st := s.stats()
	if st.MaxBatchSize > cap {
		t.Fatalf("batch exceeded cap: %+v", st)
	}
	if st.Batches < clients/cap {
		t.Fatalf("too few batches for the cap: %+v", st)
	}
}

// TestSchedulerFallbackNotCountedAsCoalesced pins the fused-vs-fallback
// stats contract: a flush whose shared PredictBatch fails re-predicts
// per request, and that flush must surface in Fallbacks ONLY — not in
// batches, coalesced, or the batch-size distribution, which previously
// recorded it as a successful coalesce before the fused call even ran.
func TestSchedulerFallbackNotCountedAsCoalesced(t *testing.T) {
	poisonCost := 13.0
	est := &fakeEstimator{name: "fake", poison: func(in costmodel.PlanInput) error {
		if in.OptimizerCost == poisonCost {
			return errors.New("poisoned input")
		}
		return nil
	}}
	s := newScheduler(8, time.Millisecond)
	defer s.close()

	// A poisoned single: the fused pass fails, the fallback re-predicts
	// it alone, and the caller gets the per-request error.
	if _, err := s.predictOne(context.Background(), est, schedIn(poisonCost), nil); err == nil {
		t.Fatal("poisoned request did not surface its error")
	}
	st := s.stats()
	if st.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", st.Fallbacks)
	}
	if st.Batches != 0 || st.Items != 0 {
		t.Fatalf("failed fused flush counted as a batch: %+v", st)
	}
	if st.Coalesced.Hits != 0 || st.Coalesced.Misses != 0 {
		t.Fatalf("failed fused flush touched the coalesce counters: %+v", st.Coalesced)
	}
	if st.BatchSizes.Count != 0 {
		t.Fatalf("failed fused flush landed in the batch-size distribution: %+v", st.BatchSizes)
	}

	// A healthy single drains fused and counts as before.
	if _, err := s.predictOne(context.Background(), est, schedIn(1), nil); err != nil {
		t.Fatal(err)
	}
	st = s.stats()
	if st.Batches != 1 || st.Items != 1 || st.Fallbacks != 1 {
		t.Fatalf("healthy flush after fallback: %+v", st)
	}
	if st.BatchSizes.Count != 1 {
		t.Fatalf("healthy flush missing from batch-size distribution: %+v", st.BatchSizes)
	}
}

func TestSchedulerContextCancel(t *testing.T) {
	est := &fakeEstimator{name: "fake"}
	s := newScheduler(8, 10*time.Millisecond)
	defer s.close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.predictOne(ctx, est, schedIn(1), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSchedulerCloseRejectsAndDrains(t *testing.T) {
	est := &fakeEstimator{name: "fake", delay: 2 * time.Millisecond}
	s := newScheduler(8, 5*time.Millisecond)

	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.predictOne(context.Background(), est, schedIn(float64(i)), nil)
		}(i)
	}
	time.Sleep(time.Millisecond)
	s.close()
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if _, err := s.predictOne(context.Background(), est, schedIn(1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("predict after close = %v, want ErrClosed", err)
	}
	s.close() // idempotent
}
