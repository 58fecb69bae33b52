package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// serveFixture is two serving databases (the zero-shot model has never
// trained on either schema's workload beyond imdb) with two trained
// estimators — the zero-shot model (estimated cardinalities, so
// unexecuted plans predict) and the scaled-cost regression.
type serveFixture struct {
	imdb   *storage.Database
	ssb    *storage.Database
	models []costmodel.Estimator
}

var (
	serveOnce sync.Once
	serveFix  serveFixture
	serveErr  error
)

func sharedServeFixture(t *testing.T) serveFixture {
	t.Helper()
	serveOnce.Do(func() {
		imdb, err := datagen.IMDBLike(0.08)
		if err != nil {
			serveErr = err
			return
		}
		ssb, err := datagen.SSBLike(0.05)
		if err != nil {
			serveErr = err
			return
		}
		recs, err := collect.Run(imdb, collect.Options{Queries: 60, Seed: 5})
		if err != nil {
			serveErr = err
			return
		}
		samples := costmodel.FromRecords(imdb, recs)
		var models []costmodel.Estimator
		zs, err := costmodel.New(costmodel.NameZeroShot,
			costmodel.Options{Hidden: 12, Epochs: 2, Card: encoding.CardEstimated})
		if err == nil {
			_, err = zs.Fit(context.Background(), samples)
		}
		if err != nil {
			serveErr = err
			return
		}
		models = append(models, zs)
		sc, err := costmodel.New(costmodel.NameScaledCost, costmodel.Options{})
		if err == nil {
			_, err = sc.Fit(context.Background(), samples)
		}
		if err != nil {
			serveErr = err
			return
		}
		models = append(models, sc)
		serveFix = serveFixture{imdb: imdb, ssb: ssb, models: models}
	})
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	return serveFix
}

// newTestSession assembles a multi-database session over the shared
// fixture. Each test gets its own session so stats and caches start
// empty.
func newTestSession(t *testing.T, cfg serving.Config) *serving.Session {
	t.Helper()
	f := sharedServeFixture(t)
	sess := serving.NewSession(cfg)
	if err := sess.AttachDatabase("imdb", f.imdb); err != nil {
		t.Fatal(err)
	}
	if err := sess.AttachDatabase("ssb", f.ssb); err != nil {
		t.Fatal(err)
	}
	for _, est := range f.models {
		if err := sess.AttachModel(est); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// newNodeServer fronts sess the way zsdb serve fronts its lone replica;
// loop is the session's adaptation loop, nil when the test does not adapt.
func newNodeServer(t *testing.T, sess *serving.Session, loop *adapt.Loop) *server {
	t.Helper()
	node, err := cluster.NewInProcess("local", sess, loop)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(node)
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newNodeServer(t, newTestSession(t, serving.Config{}), nil).mux())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("non-JSON response: %v", err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("non-JSON response from %s: %v", url, err)
	}
	return resp
}

const testSQL = "SELECT COUNT(*) FROM title WHERE production_year > 50"

func TestServeHealthzAndModels(t *testing.T) {
	ts := newTestServer(t)
	var health struct {
		Status    string `json:"status"`
		Models    int    `json:"models"`
		Databases int    `json:"databases"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Models != 2 || health.Databases != 2 {
		t.Fatalf("health = %+v", health)
	}

	var models struct {
		Models    []modelInfo `json:"models"`
		Databases []string    `json:"databases"`
	}
	if resp := getJSON(t, ts.URL+"/v1/models", &models); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/models = %d", resp.StatusCode)
	}
	if len(models.Models) != 2 || len(models.Databases) != 2 {
		t.Fatalf("models = %+v", models)
	}
	for _, m := range models.Models {
		if want := m.Name == costmodel.NameZeroShot; m.Fused != want {
			t.Fatalf("model %s fused = %v, want %v (only the zero-shot adapter fuses batches)", m.Name, m.Fused, want)
		}
	}
}

func TestServeDatabases(t *testing.T) {
	ts := newTestServer(t)
	var out struct {
		Databases []serving.DatabaseInfo `json:"databases"`
	}
	if resp := getJSON(t, ts.URL+"/v1/databases", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/databases = %d", resp.StatusCode)
	}
	if len(out.Databases) != 2 {
		t.Fatalf("databases = %+v", out.Databases)
	}
	if out.Databases[0].Name != "imdb" || out.Databases[1].Name != "ssb" {
		t.Fatalf("databases = %+v, want sorted imdb, ssb", out.Databases)
	}
	for _, d := range out.Databases {
		if d.Tables == 0 || d.Schema == "" {
			t.Fatalf("database %+v missing schema info", d)
		}
	}
}

func TestServePredict(t *testing.T) {
	ts := newTestServer(t)
	for _, model := range []string{costmodel.NameZeroShot, costmodel.NameScaledCost} {
		resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{DB: "imdb", Model: model, SQL: testSQL})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %v", model, resp.StatusCode, body)
		}
		var rt float64
		if err := json.Unmarshal(body["runtime_sec"], &rt); err != nil || rt <= 0 {
			t.Fatalf("%s: runtime_sec = %s (err %v)", model, body["runtime_sec"], err)
		}
	}
	// Repeated statement: the second call must be served from the plan
	// cache (db field in reply confirms routing).
	resp, body := postJSON(t, ts.URL+"/v1/predict",
		predictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: "  " + testSQL + "  "})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d body %v", resp.StatusCode, body)
	}
	var cached bool
	if err := json.Unmarshal(body["plan_cached"], &cached); err != nil || !cached {
		t.Fatalf("plan_cached = %s (err %v), want true", body["plan_cached"], err)
	}
}

// TestServePredictMultiDB routes the same model against both attached
// databases — the zero-shot promise over one serving process.
func TestServePredictMultiDB(t *testing.T) {
	ts := newTestServer(t)
	queries := map[string]string{
		"imdb": testSQL,
		"ssb":  "SELECT COUNT(*) FROM lineorder",
	}
	for db, sql := range queries {
		resp, body := postJSON(t, ts.URL+"/v1/predict",
			predictRequest{DB: db, Model: costmodel.NameZeroShot, SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %v", db, resp.StatusCode, body)
		}
		var gotDB string
		if err := json.Unmarshal(body["db"], &gotDB); err != nil || gotDB != db {
			t.Fatalf("reply db = %s, want %s", body["db"], db)
		}
	}
}

func TestServePredictErrors(t *testing.T) {
	ts := newTestServer(t)
	tests := []struct {
		name string
		body any
		want int
	}{
		{name: "missing sql", body: predictRequest{DB: "imdb", Model: costmodel.NameZeroShot}, want: http.StatusBadRequest},
		{name: "bad sql", body: predictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: "DROP TABLE title"}, want: http.StatusBadRequest},
		{name: "unknown table", body: predictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: "SELECT COUNT(*) FROM nope"}, want: http.StatusBadRequest},
		{name: "table of other db", body: predictRequest{DB: "ssb", Model: costmodel.NameZeroShot, SQL: testSQL}, want: http.StatusBadRequest},
		{name: "unknown model", body: predictRequest{DB: "imdb", Model: "nope", SQL: testSQL}, want: http.StatusNotFound},
		{name: "ambiguous empty model", body: predictRequest{DB: "imdb", SQL: testSQL}, want: http.StatusNotFound},
		{name: "unknown db", body: predictRequest{DB: "nope", Model: costmodel.NameZeroShot, SQL: testSQL}, want: http.StatusNotFound},
		{name: "ambiguous empty db", body: predictRequest{Model: costmodel.NameZeroShot, SQL: testSQL}, want: http.StatusNotFound},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/predict", tt.body)
			if resp.StatusCode != tt.want {
				t.Fatalf("status %d, want %d (body %v)", resp.StatusCode, tt.want, body)
			}
			if _, ok := body["error"]; !ok {
				t.Fatal("error response missing error field")
			}
		})
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict = %d, want 405", resp.StatusCode)
	}
}

func TestServePredictBatch(t *testing.T) {
	ts := newTestServer(t)
	sqls := []string{
		testSQL,
		"SELECT COUNT(*) FROM movie_companies",
		"SELECT COUNT(*) FROM movie_companies, title WHERE movie_companies.movie_id = title.id",
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict_batch",
		predictBatchRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: sqls})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %v", resp.StatusCode, body)
	}
	var results []batchItemResult
	if err := json.Unmarshal(body["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(sqls) {
		t.Fatalf("%d results for %d queries", len(results), len(sqls))
	}
	for i, res := range results {
		if res.Error != "" || res.RuntimeSec <= 0 {
			t.Fatalf("result %d = %+v", i, res)
		}
	}

	// Batch-level validation.
	resp, _ = postJSON(t, ts.URL+"/v1/predict_batch", predictBatchRequest{DB: "imdb", Model: costmodel.NameZeroShot})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", resp.StatusCode)
	}
}

// TestServePredictBatchPerItemErrors checks the structured error
// contract end to end: malformed SQL and unknown tables error item by
// item while the healthy statements still predict.
func TestServePredictBatchPerItemErrors(t *testing.T) {
	ts := newTestServer(t)
	sqls := []string{
		testSQL,
		"garbage",
		"SELECT COUNT(*) FROM no_such_table",
		"SELECT COUNT(*) FROM movie_companies",
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict_batch",
		predictBatchRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: sqls})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %v (mixed batches should answer per item)", resp.StatusCode, body)
	}
	var results []batchItemResult
	if err := json.Unmarshal(body["results"], &results); err != nil {
		t.Fatal(err)
	}
	var nerr int
	if err := json.Unmarshal(body["errors"], &nerr); err != nil || nerr != 2 {
		t.Fatalf("errors = %s, want 2", body["errors"])
	}
	for i, wantOK := range []bool{true, false, false, true} {
		switch {
		case wantOK && (results[i].Error != "" || results[i].RuntimeSec <= 0):
			t.Fatalf("result %d should have predicted: %+v", i, results[i])
		case !wantOK && results[i].Error == "":
			t.Fatalf("result %d should carry an error: %+v", i, results[i])
		}
	}
	// The statement-level errors name the failing stage.
	if !strings.Contains(results[1].Error, "parse") {
		t.Fatalf("malformed-SQL error %q should name the parse stage", results[1].Error)
	}
}

// TestServeStats checks /v1/stats reflects traffic: request counters,
// plan-cache hit rates and scheduler drains.
func TestServeStats(t *testing.T) {
	ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/predict",
			predictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: testSQL})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d failed", i)
		}
	}
	var st serving.Stats
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats = %d", resp.StatusCode)
	}
	if st.Requests != 3 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.UptimeSec <= 0 {
		t.Fatalf("uptime_sec = %v, want > 0", st.UptimeSec)
	}
	if len(st.Models) != 2 {
		t.Fatalf("models = %+v, want 2 generation entries", st.Models)
	}
	for _, m := range st.Models {
		if m.Generation != 1 || m.LastSwap.IsZero() {
			t.Fatalf("model stats = %+v, want generation 1 with a swap time", m)
		}
	}
	if st.Scheduler.Items != 3 || st.Predict.Count != 3 {
		t.Fatalf("scheduler/predict stats = %+v / %+v", st.Scheduler, st.Predict)
	}
	var imdbStats *serving.DatabaseStats
	for i := range st.Databases {
		if st.Databases[i].Database == "imdb" {
			imdbStats = &st.Databases[i]
		}
	}
	if imdbStats == nil {
		t.Fatalf("no imdb stats in %+v", st.Databases)
	}
	if imdbStats.PlanCache.Hits != 2 || imdbStats.PlanCache.Misses != 1 {
		t.Fatalf("plan cache = %+v, want 2 hits / 1 miss", imdbStats.PlanCache)
	}
	if imdbStats.Stages["parse"].Count != 1 {
		t.Fatalf("parse stage = %+v, want exactly one run", imdbStats.Stages)
	}
}

// newAdaptTestServer is a test server with the online adaptation loop
// attached to the zero-shot model (no background worker — tests drive
// sweeps explicitly when they need one).
func newAdaptTestServer(t *testing.T) (*httptest.Server, *adapt.Loop) {
	t.Helper()
	sess := newTestSession(t, serving.Config{})
	loop, err := adapt.New(sess, adapt.Config{Model: costmodel.NameZeroShot})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(loop.Close)
	ts := httptest.NewServer(newNodeServer(t, sess, loop).mux())
	t.Cleanup(ts.Close)
	return ts, loop
}

// TestServeFeedbackAndAdaptStatus drives the feedback surface end to
// end: predictions return fingerprints, feedback joins against them (or
// against the raw SQL), bad feedback is rejected with the right codes,
// and /v1/adapt/status plus /v1/stats expose the loop's counters.
func TestServeFeedbackAndAdaptStatus(t *testing.T) {
	ts, _ := newAdaptTestServer(t)

	// Feedback for a never-predicted statement cannot join.
	resp, body := postJSON(t, ts.URL+"/v1/feedback",
		feedbackRequest{DB: "imdb", SQL: "SELECT COUNT(*) FROM movie_companies", ActualRuntimeSec: 0.5})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unjoined feedback = %d body %v, want 404", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/predict",
		predictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: testSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d body %v", resp.StatusCode, body)
	}
	var fp string
	if err := json.Unmarshal(body["fingerprint"], &fp); err != nil || fp == "" {
		t.Fatalf("fingerprint = %s (err %v)", body["fingerprint"], err)
	}

	// Feedback by fingerprint, then by SQL text (same statement: the
	// fingerprints must agree).
	resp, body = postJSON(t, ts.URL+"/v1/feedback",
		feedbackRequest{DB: "imdb", Fingerprint: fp, ActualRuntimeSec: 0.25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback by fingerprint = %d body %v", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/feedback",
		feedbackRequest{DB: "imdb", SQL: "  select COUNT(*) from title WHERE production_year > 50", ActualRuntimeSec: 0.25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback by SQL = %d body %v (keyword-case variants must join)", resp.StatusCode, body)
	}

	// Validation.
	for name, req := range map[string]feedbackRequest{
		"no fingerprint or sql": {DB: "imdb", ActualRuntimeSec: 0.5},
		"non-positive runtime":  {DB: "imdb", Fingerprint: fp},
		"unknown db":            {DB: "nope", Fingerprint: fp, ActualRuntimeSec: 0.5},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/feedback", req)
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d body %v", name, resp.StatusCode, body)
		}
	}

	var st adapt.Status
	if resp := getJSON(t, ts.URL+"/v1/adapt/status", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/adapt/status = %d", resp.StatusCode)
	}
	if st.Model != costmodel.NameZeroShot || st.Feedback != 2 || st.JoinMisses != 1 {
		t.Fatalf("adapt status = %+v, want 2 feedbacks / 1 join miss on zeroshot", st)
	}
	if len(st.Windows) != 1 || st.Windows[0].Database != "imdb" || st.Windows[0].Pending != 2 {
		t.Fatalf("windows = %+v", st.Windows)
	}

	// /v1/stats carries the adaptation block alongside the session stats.
	var full statsResponse
	if resp := getJSON(t, ts.URL+"/v1/stats", &full); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats = %d", resp.StatusCode)
	}
	if full.Adaptation == nil || full.Adaptation.Feedback != 2 {
		t.Fatalf("stats adaptation = %+v", full.Adaptation)
	}
}

// TestServeAdaptDisabled checks the surface degrades cleanly without
// -adapt: feedback and status 404, stats has no adaptation block.
func TestServeAdaptDisabled(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/feedback",
		feedbackRequest{DB: "imdb", SQL: testSQL, ActualRuntimeSec: 0.5})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/feedback without -adapt = %d, want 404", resp.StatusCode)
	}
	var st map[string]json.RawMessage
	if resp := getJSON(t, ts.URL+"/v1/adapt/status", &st); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/adapt/status without -adapt = %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats = %d", resp.StatusCode)
	}
	if _, ok := st["adaptation"]; ok {
		t.Fatal("stats carries an adaptation block without -adapt")
	}
}

// TestAdaptableModel checks the -adapt-model default resolution: the
// zero-shot model is the only adaptable one in the fixture.
func TestAdaptableModel(t *testing.T) {
	sess := newTestSession(t, serving.Config{})
	name, err := adaptableModel(sess, "")
	if err != nil || name != costmodel.NameZeroShot {
		t.Fatalf("adaptableModel = %q (err %v), want zeroshot", name, err)
	}
	if name, err = adaptableModel(sess, "anything"); err != nil || name != "anything" {
		t.Fatalf("explicit name not honored: %q (err %v)", name, err)
	}
}

// TestServeRejectsExactCardModel checks the startup guard: serve-time
// plans are never executed, so a zero-shot model encoding exact
// cardinalities must be rejected when loading, not fail per-request.
func TestServeRejectsExactCardModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exact.gob")
	zs, err := costmodel.New(costmodel.NameZeroShot,
		costmodel.Options{Hidden: 8, Card: encoding.CardExact})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := costmodel.Save(f, zs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	err = runServe([]string{"-models", path, "-addr", "127.0.0.1:0", "-dbscale", "0.05"})
	if err == nil || !strings.Contains(err.Error(), "exact cardinalities") {
		t.Fatalf("serve accepted an exact-cardinality model (err: %v)", err)
	}
}

// TestServeGracefulShutdown drives the real serve loop: requests succeed,
// then a SIGTERM drains the server and the loop returns cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	sess := newTestSession(t, serving.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: newNodeServer(t, sess, nil).mux()}
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serveUntilSignal(httpSrv, ln, sess, sigs, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	resp, body := postJSON(t, url+"/v1/predict",
		predictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: testSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict before shutdown: %d %v", resp.StatusCode, body)
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve loop did not drain within 10s")
	}
	// The listener is closed and the session rejects new work.
	if _, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader("{}")); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestServeConcurrentBatch hammers /v1/predict and /v1/predict_batch
// from several clients at once across both databases; run under -race
// this covers the serving hot path end to end.
func TestServeConcurrentBatch(t *testing.T) {
	ts := newTestServer(t)
	sqls := make([]string, 16)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("SELECT COUNT(*) FROM title WHERE production_year > %d", i*7)
	}
	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, 2*clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			model := costmodel.NameZeroShot
			if c%2 == 1 {
				model = costmodel.NameScaledCost
			}
			buf, _ := json.Marshal(predictBatchRequest{DB: "imdb", Model: model, SQL: sqls})
			resp, err := http.Post(ts.URL+"/v1/predict_batch", "application/json", bytes.NewReader(buf))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			var out predictBatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errCh <- err
				return
			}
			if resp.StatusCode != http.StatusOK || out.Count != len(sqls) || out.Errors != 0 {
				errCh <- fmt.Errorf("client %d: status %d count %d errors %d", c, resp.StatusCode, out.Count, out.Errors)
			}
		}(c)
		// Singles in parallel with batches: these coalesce in the scheduler.
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf, _ := json.Marshal(predictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: sqls[c%len(sqls)]})
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(buf))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("single client %d: status %d", c, resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
