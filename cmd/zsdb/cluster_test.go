package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// newTestRouter assembles an n-replica mirrored in-process cluster over
// the shared serve fixture — the same shape `zsdb serve -replicas n`
// builds, minus the model-file loading. The returned map holds each
// replica's adaptation loop when withAdapt is set.
func newTestRouter(t *testing.T, n int, withAdapt bool) (*cluster.Router, map[string]*adapt.Loop) {
	t.Helper()
	f := sharedServeFixture(t)
	router := cluster.NewRouter(cluster.Config{})
	t.Cleanup(func() { router.Close() })
	loops := map[string]*adapt.Loop{}
	for i := 0; i < n; i++ {
		sess, err := assembleSession(serving.Config{},
			[]string{"imdb", "ssb"}, []*storage.Database{f.imdb, f.ssb}, f.models)
		if err != nil {
			t.Fatal(err)
		}
		var loop *adapt.Loop
		if withAdapt {
			var err error
			loop, err = adapt.New(sess, adapt.Config{Model: costmodel.NameZeroShot})
			if err != nil {
				t.Fatal(err)
			}
			loops[fmt.Sprintf("r%d", i)] = loop
		}
		b, err := cluster.NewInProcess(fmt.Sprintf("r%d", i), sess, loop)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	return router, loops
}

// fixedWorkload is the deterministic statement set the equivalence test
// replays against every topology.
var fixedWorkload = []struct{ db, sql string }{
	{"imdb", testSQL},
	{"imdb", "SELECT COUNT(*) FROM movie_companies"},
	{"imdb", "SELECT COUNT(*) FROM movie_companies, title WHERE movie_companies.movie_id = title.id"},
	{"ssb", "SELECT COUNT(*) FROM lineorder"},
	{"imdb", "SELECT SUM(title.production_year) FROM title WHERE title.production_year > 20"},
}

// TestClusterEquivalentToSingleReplica is the acceptance bar: a
// 4-replica sharded cluster must serve bitwise-identical predictions to
// a single session for a fixed workload — partitioning is a pure
// routing concern, never a numeric one.
func TestClusterEquivalentToSingleReplica(t *testing.T) {
	single := httptest.NewServer(newNodeServer(t, newTestSession(t, serving.Config{}), nil).mux())
	defer single.Close()
	router4, _ := newTestRouter(t, 4, false)
	clustered := httptest.NewServer(newRouterServer(router4, nil).mux())
	defer clustered.Close()

	for _, q := range fixedWorkload {
		req := predictRequest{DB: q.db, Model: costmodel.NameZeroShot, SQL: q.sql}
		respS, bodyS := postJSON(t, single.URL+"/v1/predict", req)
		respC, bodyC := postJSON(t, clustered.URL+"/v1/predict", req)
		if respS.StatusCode != http.StatusOK || respC.StatusCode != http.StatusOK {
			t.Fatalf("%s on %s: single=%d cluster=%d (%v / %v)", q.sql, q.db, respS.StatusCode, respC.StatusCode, bodyS, bodyC)
		}
		var runtimeS, runtimeC, costS, costC float64
		mustUnmarshal(t, bodyS["runtime_sec"], &runtimeS)
		mustUnmarshal(t, bodyC["runtime_sec"], &runtimeC)
		mustUnmarshal(t, bodyS["optimizer_cost"], &costS)
		mustUnmarshal(t, bodyC["optimizer_cost"], &costC)
		if runtimeS != runtimeC || costS != costC {
			t.Fatalf("%s on %s: single (%v, %v) != cluster (%v, %v); replicas must be bitwise-equivalent",
				q.sql, q.db, runtimeS, costS, runtimeC, costC)
		}
		var fpS, fpC string
		mustUnmarshal(t, bodyS["fingerprint"], &fpS)
		mustUnmarshal(t, bodyC["fingerprint"], &fpC)
		if fpS != fpC {
			t.Fatalf("fingerprints diverge: %q vs %q", fpS, fpC)
		}
	}
}

func mustUnmarshal(t *testing.T, raw json.RawMessage, v any) {
	t.Helper()
	if raw == nil {
		t.Fatalf("missing field in reply (want %T)", v)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
}

// TestClusterServerEndpoints exercises the aggregating read endpoints
// and routed feedback of the cluster front end over real sessions.
func TestClusterServerEndpoints(t *testing.T) {
	router, loops := newTestRouter(t, 3, true)
	ts := httptest.NewServer(newRouterServer(router, loops).mux())
	defer ts.Close()

	var health struct {
		Status   string `json:"status"`
		Replicas int    `json:"replicas"`
		Healthy  int    `json:"healthy"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if health.Replicas != 3 || health.Healthy != 3 || health.Status != "ok" {
		t.Fatalf("healthz body = %+v", health)
	}

	var dbs struct {
		Databases []cluster.DatabaseView `json:"databases"`
	}
	getJSON(t, ts.URL+"/v1/databases", &dbs)
	if len(dbs.Databases) != 2 {
		t.Fatalf("aggregated databases = %+v, want imdb+ssb deduped", dbs.Databases)
	}
	for _, d := range dbs.Databases {
		if len(d.Replicas) != 3 {
			t.Fatalf("db %s on %v, want all 3 replicas (mirrored)", d.Name, d.Replicas)
		}
		if d.Owner != router.Owner(d.Name) {
			t.Fatalf("db %s owner %s, ring says %s", d.Name, d.Owner, router.Owner(d.Name))
		}
	}

	var view struct {
		Replicas []string            `json:"replicas"`
		Owners   map[string]string   `json:"owners"`
		Routes   map[string][]string `json:"routes"`
	}
	getJSON(t, ts.URL+"/v1/cluster", &view)
	if len(view.Replicas) != 3 || len(view.Owners) != 2 {
		t.Fatalf("cluster view = %+v", view)
	}
	if len(view.Routes["imdb"]) != 3 {
		t.Fatalf("imdb route = %v, want full failover sequence", view.Routes["imdb"])
	}

	// Predict, then feed the observed runtime back: it must reach the
	// adaptation loop on the replica owning imdb.
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: testSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d %v", resp.StatusCode, body)
	}
	var fp string
	mustUnmarshal(t, body["fingerprint"], &fp)
	resp, body = postJSON(t, ts.URL+"/v1/feedback", feedbackRequest{DB: "imdb", Fingerprint: fp, ActualRuntimeSec: 0.42})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback = %d %v", resp.StatusCode, body)
	}
	// The aggregated adaptation view: one snapshot per replica, and the
	// imdb owner's loop shows the ingested feedback.
	var adaptView struct {
		Replicas map[string]adapt.Status `json:"replicas"`
	}
	if resp := getJSON(t, ts.URL+"/v1/adapt/status", &adaptView); resp.StatusCode != http.StatusOK {
		t.Fatalf("adapt/status = %d", resp.StatusCode)
	}
	if len(adaptView.Replicas) != 3 {
		t.Fatalf("adapt/status replicas = %d, want 3", len(adaptView.Replicas))
	}
	if got := adaptView.Replicas[router.Owner("imdb")].Feedback; got != 1 {
		t.Fatalf("imdb owner's loop ingested %d feedbacks, want 1", got)
	}

	var st cluster.ClusterStats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Requests < 2 {
		t.Fatalf("cluster stats requests = %d, want >= 2", st.Requests)
	}
	owner := router.Owner("imdb")
	var ownerServed bool
	for _, rs := range st.Replicas {
		if rs.Name == owner && rs.Served >= 2 {
			ownerServed = true
		}
	}
	if !ownerServed {
		t.Fatalf("imdb owner %s did not serve the predict+feedback: %+v", owner, st.Replicas)
	}
}

// TestRouteModeFailoverOverHTTP is the multi-process path end to end:
// two real serve processes (httptest) behind HTTP backends and a
// routing front end. Killing one backend mid-run must cost no request.
func TestRouteModeFailoverOverHTTP(t *testing.T) {
	backendA := httptest.NewServer(newNodeServer(t, newTestSession(t, serving.Config{}), nil).mux())
	defer backendA.Close()
	backendB := httptest.NewServer(newNodeServer(t, newTestSession(t, serving.Config{}), nil).mux())
	// no defer for B: the test closes it deliberately

	router := cluster.NewRouter(cluster.Config{CallTimeout: 5 * time.Second})
	defer router.Close()
	for name, url := range map[string]string{"a": backendA.URL, "b": backendB.URL} {
		hb, err := cluster.NewHTTPBackend(name, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Register(hb); err != nil {
			t.Fatal(err)
		}
	}
	front := httptest.NewServer(newRouterServer(router, nil).mux())
	defer front.Close()

	predict := func() (int, map[string]json.RawMessage) {
		resp, body := postJSON(t, front.URL+"/v1/predict",
			predictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: testSQL})
		return resp.StatusCode, body
	}
	code, body := predict()
	if code != http.StatusOK {
		t.Fatalf("routed predict = %d %v", code, body)
	}
	var before float64
	mustUnmarshal(t, body["runtime_sec"], &before)

	// Kill one backend. Whichever replica owned imdb, the request must
	// keep succeeding — served by the survivor — with the same answer.
	backendB.Close()
	for i := 0; i < 3; i++ {
		code, body = predict()
		if code != http.StatusOK {
			t.Fatalf("predict after backend kill (try %d) = %d %v", i, code, body)
		}
	}
	var after float64
	mustUnmarshal(t, body["runtime_sec"], &after)
	if before != after {
		t.Fatalf("failover changed the prediction: %v -> %v", before, after)
	}
	if errs := router.CheckHealth(context.Background()); errs["b"] == nil {
		t.Fatal("killed backend still passes health probes")
	}
	var health struct {
		Healthy int `json:"healthy"`
	}
	getJSON(t, front.URL+"/healthz", &health)
	if health.Healthy != 1 {
		t.Fatalf("healthy = %d after killing one of two backends", health.Healthy)
	}
	// Remote request-level errors keep their class through the HTTP
	// backend: a bad statement is 400, an unknown database 404 — not a
	// failover storm.
	resp, _ := postJSON(t, front.URL+"/v1/predict",
		predictRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: "DROP TABLE title"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL through router = %d, want 400", resp.StatusCode)
	}
	// Pick an unknown database whose ring owner is the SURVIVOR: its
	// authoritative not-found must come back 404 even though the other
	// replica is dead. (An unknown db owned by the dead replica is a 503
	// by design — it may live exactly there.)
	unknown := ""
	for i := 0; i < 32; i++ {
		cand := fmt.Sprintf("nope%d", i)
		if router.Owner(cand) == "a" {
			unknown = cand
			break
		}
	}
	if unknown == "" {
		t.Fatal("no candidate name hashed onto the survivor")
	}
	resp, _ = postJSON(t, front.URL+"/v1/predict",
		predictRequest{DB: unknown, Model: costmodel.NameZeroShot, SQL: testSQL})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown db through router = %d, want 404", resp.StatusCode)
	}
}

// TestRouteFlagValidation covers the route command's argument errors.
func TestRouteFlagValidation(t *testing.T) {
	if err := runRoute([]string{}); err == nil {
		t.Fatal("route without -backends succeeded")
	}
	if err := runRoute([]string{"-backends", "h1:1,h2:2", "-names", "only-one"}); err == nil {
		t.Fatal("route with mismatched -names succeeded")
	}
	// All backends unreachable: the startup probe must fail fast.
	if err := runRoute([]string{"-backends", "127.0.0.1:1", "-call-timeout", "200ms"}); err == nil {
		t.Fatal("route with unreachable backend succeeded")
	}
}
