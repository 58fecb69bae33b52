package main

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/sqlparse"
	"github.com/zeroshot-db/zeroshot/internal/stats"
)

func testDatabases(t *testing.T) *Databases {
	t.Helper()
	dbs, err := buildDatabases(params.Databases, params.DBScale)
	if err != nil {
		t.Fatal(err)
	}
	return dbs
}

// TestSameSeedSameRequests pins the generator's determinism: one seed
// always yields the same pool, schedule and cold stream, and another
// seed yields different ones.
func TestSameSeedSameRequests(t *testing.T) {
	dbs := testDatabases(t)
	draw := func(seed int64) (*HotPool, []Arrival, []*ColdBatch) {
		pool, err := newHotPool(dbs, 50, seed)
		if err != nil {
			t.Fatal(err)
		}
		arr := hotSchedule(pool, 500, 2*time.Second, 1, 1, seed)
		return pool, arr, drawCold(t, newColdStream(dbs, 256, seed), 8)
	}
	p1, a1, c1 := draw(7)
	p2, a2, c2 := draw(7)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("the same seed produced different inputs")
	}
	p3, a3, c3 := draw(8)
	if reflect.DeepEqual(p1, p3) || reflect.DeepEqual(a1, a3) || reflect.DeepEqual(c1, c3) {
		t.Fatal("a different seed produced the same inputs")
	}
}

func drawCold(t *testing.T, s *coldStream, n int) []*ColdBatch {
	t.Helper()
	var out []*ColdBatch
	for i := 0; i < n; i++ {
		bt, err := s.next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bt)
	}
	return out
}

// TestColdStatementsNeverRepeat checks the cold stream's contract:
// batches rotate over the databases, no statement's fingerprint repeats
// on its database, and every statement parses and plans (so no request
// of the workload fails by construction).
func TestColdStatementsNeverRepeat(t *testing.T) {
	dbs := testDatabases(t)
	var opts []*optimizer.Optimizer
	for _, db := range dbs.DBs {
		st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
		opts = append(opts, optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams()))
	}
	seen := make([]map[string]bool, len(dbs.DBs))
	for d := range seen {
		seen[d] = map[string]bool{}
	}
	for i, b := range drawCold(t, newColdStream(dbs, 256, 3), 60) {
		if b.DB != i%len(dbs.DBs) || len(b.SQL) != 256 {
			t.Fatalf("batch %d: db %d, %d statements", i, b.DB, len(b.SQL))
		}
		for _, sql := range b.SQL {
			fp := costmodel.Fingerprint(sql)
			if seen[b.DB][fp] {
				t.Fatalf("statement repeats: %s", sql)
			}
			seen[b.DB][fp] = true
			q, err := sqlparse.Parse(sql, dbs.DBs[b.DB].Schema)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if _, err := opts[b.DB].Plan(q); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
}

// TestPoissonRate checks that the open-loop schedule's mean rate matches
// the offered rate and that inter-arrival gaps are exponential
// (coefficient of variation near 1).
func TestPoissonRate(t *testing.T) {
	pool := &HotPool{Stmts: [][]string{{"a"}, {"b"}}}
	const rate, secs = 1000.0, 30
	arr := hotSchedule(pool, rate, secs*time.Second, 1, 1, 11)
	got := float64(len(arr)) / secs
	if math.Abs(got-rate)/rate > 0.02 {
		t.Fatalf("mean rate %.1f, want %.0f ±2%%", got, rate)
	}
	var sum, sq float64
	prev := time.Duration(0)
	for _, a := range arr {
		g := (a.Due - prev).Seconds()
		prev = a.Due
		sum += g
		sq += g * g
	}
	n := float64(len(arr))
	mean := sum / n
	cv := math.Sqrt(sq/n-mean*mean) / mean
	if math.Abs(cv-1) > 0.05 {
		t.Fatalf("inter-arrival coefficient of variation %.3f, want 1 ±0.05", cv)
	}
}

// TestZipfSkew checks the popularity skew: with exponent 1, rank k is
// drawn (k+1) times less often than rank 0.
func TestZipfSkew(t *testing.T) {
	z := newZipf(200, 1)
	rng := rand.New(rand.NewSource(5))
	counts := make([]float64, 200)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[z.sample(rng)]++
	}
	h := 0.0
	for k := 1; k <= 200; k++ {
		h += 1 / float64(k)
	}
	if p0 := counts[0] / n; math.Abs(p0-1/h)/(1/h) > 0.02 {
		t.Fatalf("rank 0 share %.4f, want %.4f", p0, 1/h)
	}
	for _, k := range []int{1, 3, 9} {
		if r := counts[0] / counts[k]; math.Abs(r-float64(k+1))/float64(k+1) > 0.06 {
			t.Fatalf("rank 0 / rank %d = %.2f, want %d", k, r, k+1)
		}
	}
}

// TestPreciseWait checks that the generator's wait overshoots its due
// time by far less than a millisecond at the median.
func TestPreciseWait(t *testing.T) {
	lockPreciseThread()
	defer runtime.UnlockOSThread()
	var over []float64
	for i := 0; i < 200; i++ {
		due := time.Now().Add(700 * time.Microsecond)
		precise(due)
		over = append(over, us(time.Since(due)))
	}
	if m := median(over); m > 300 {
		t.Fatalf("median overshoot %.0fµs, want < 300µs", m)
	}
}

// TestSelfTime checks the span arithmetic: self time is duration minus
// the children's, and root self time is reported as unattributed.
func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 10 * ms},
		{Name: "a", Parent: 0, Start: 1 * ms, End: 4 * ms},
		{Name: "b", Parent: 0, Start: 5 * ms, End: 9 * ms},
		{Name: "c", Parent: 2, Start: 6 * ms, End: 7 * ms},
	}
	got := map[string]SpanSummary{}
	for _, s := range summarizeSpans(spans) {
		got[s.Name] = s
	}
	want := map[string][2]float64{"root": {10, 0}, "unattributed": {3, 3}, "a": {3, 3}, "b": {4, 3}, "c": {1, 1}}
	for name, w := range want {
		if g := got[name]; g.TotalMs != w[0] || g.SelfMs != w[1] {
			t.Errorf("%s: total %.0f self %.0f, want %.0f %.0f", name, g.TotalMs, g.SelfMs, w[0], w[1])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles %v", q)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.2, 9.8}
	if v := verdict(base, []float64{13, 13.1, 12.9, 13.2, 12.8}, true, 0.1); v != "worse" {
		t.Errorf("30%% slower: %s", v)
	}
	if v := verdict(base, []float64{8, 8.1, 7.9, 8.2, 7.8}, true, 0.1); v != "better" {
		t.Errorf("20%% faster: %s", v)
	}
	if v := verdict(base, []float64{10, 10.1, 9.9, 10.2, 9.8}, true, 0.1); v != "within-bound" {
		t.Errorf("same: %s", v)
	}
	if v := verdict(base, []float64{5, 20, 8, 15, 10}, true, 0.1); v != "unresolved" {
		t.Errorf("noisy: %s", v)
	}
}

// TestClean checks the steal rule: undisturbed repetitions when at
// least half qualify, else the least disturbed half.
func TestClean(t *testing.T) {
	steal := func(m measured) float64 { return m.Steal }
	ms := []measured{{1, 0}, {2, 0.5}, {3, 0.01}, {4, 0.3}}
	if got := clean(ms, steal); !reflect.DeepEqual(got, []measured{{1, 0}, {3, 0.01}}) {
		t.Fatalf("half clean: %v", got)
	}
	ms = []measured{{1, 0.2}, {2, 0.5}, {3, 0.01}, {4, 0.3}, {5, 0.1}}
	if got := clean(ms, steal); !reflect.DeepEqual(got, []measured{{3, 0.01}, {5, 0.1}, {1, 0.2}}) {
		t.Fatalf("mostly disturbed: %v", got)
	}
	if ms[0].V != 1 {
		t.Fatal("clean reordered its input")
	}
}

// TestCompareRefusesAndCounts checks that compare refuses runs of
// different parameters and counts incorrect runs and failed operations.
func TestCompareRefusesAndCounts(t *testing.T) {
	ok := Record{Workload: "w", Params: params, Line: Line{Correct: true, Attempted: 100}}
	bad := Record{Workload: "w", Params: params, Line: Line{Correct: false, Attempted: 100, Failed: 2}}
	if err := sameSetting(map[string][]Record{"w": {ok}}, map[string][]Record{"w": {bad}}); err != nil {
		t.Fatalf("same setting refused: %v", err)
	}
	other := ok
	other.Params.RateHi++
	if err := sameSetting(map[string][]Record{"w": {ok}}, map[string][]Record{"w": {other}}); err == nil {
		t.Fatal("runs with different parameters compared")
	}
	s := sideOf([]Record{ok, bad})
	if s.runs != 2 || s.incorrect != 1 || len(s.correct) != 1 || s.failRatio() != 0.01 {
		t.Fatalf("side %+v", s)
	}
}
