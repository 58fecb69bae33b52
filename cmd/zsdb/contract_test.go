package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

// TestHTTPContract holds every front end to one wire contract for
// refused requests: zsdb serve, zsdb serve -replicas 3 (an in-process
// router) and zsdb route over two serve nodes must answer each case
// with the same status and the same machine-readable code. Oversized
// bodies are refused at each capped endpoint's limit plus one byte,
// while a batch past the single-statement cap is still served.
func TestHTTPContract(t *testing.T) {
	sqlArray := func(n int, stmt string) string {
		sqls := make([]string, n)
		for i := range sqls {
			sqls[i] = stmt
		}
		buf, err := json.Marshal(predictBatchRequest{DB: "imdb", Model: costmodel.NameZeroShot, SQL: sqls})
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	oversized := func(open, close string, limit int) string {
		return open + strings.Repeat(" ", limit+1-len(open)-len(close)) + close
	}
	// A ~4 KiB statement repeated just past maxSingleBody.
	bigStmt := testSQL + strings.Repeat(" ", 4096)
	pastSingleCap := sqlArray(maxSingleBody/len(bigStmt)+1, bigStmt)
	if len(pastSingleCap) <= maxSingleBody {
		t.Fatalf("batch body of %d bytes does not pass the single-statement cap", len(pastSingleCap))
	}

	cases := []struct {
		name         string
		method, path string
		body         string
		status       int
		code         string
	}{
		{"predict wrong method", http.MethodGet, "/v1/predict", "", http.StatusMethodNotAllowed, ""},
		{"predict_batch wrong method", http.MethodGet, "/v1/predict_batch", "", http.StatusMethodNotAllowed, ""},
		{"whatif wrong method", http.MethodGet, "/v1/whatif", "", http.StatusMethodNotAllowed, ""},
		{"feedback wrong method", http.MethodGet, "/v1/feedback", "", http.StatusMethodNotAllowed, ""},
		{"stats wrong method", http.MethodPost, "/v1/stats", "{}", http.StatusMethodNotAllowed, ""},
		{"adapt status wrong method", http.MethodPost, "/v1/adapt/status", "{}", http.StatusMethodNotAllowed, ""},
		{"predict malformed", http.MethodPost, "/v1/predict", `{"db":"imdb","sql":`, http.StatusBadRequest, ""},
		{"predict_batch malformed", http.MethodPost, "/v1/predict_batch", `{"sql":"not an array"}`, http.StatusBadRequest, ""},
		{"whatif malformed", http.MethodPost, "/v1/whatif", `[`, http.StatusBadRequest, ""},
		{"feedback malformed", http.MethodPost, "/v1/feedback", `{"actual_runtime_sec":"slow"}`, http.StatusBadRequest, ""},
		{"predict empty sql", http.MethodPost, "/v1/predict", `{"db":"imdb","sql":""}`, http.StatusBadRequest, ""},
		{"predict_batch empty sql", http.MethodPost, "/v1/predict_batch", `{"db":"imdb","sql":[]}`, http.StatusBadRequest, ""},
		{"whatif empty sql", http.MethodPost, "/v1/whatif", `{"db":"imdb"}`, http.StatusBadRequest, ""},
		{"predict_batch over maxBatch", http.MethodPost, "/v1/predict_batch", sqlArray(maxBatch+1, testSQL), http.StatusBadRequest, ""},
		{"whatif over maxBatch", http.MethodPost, "/v1/whatif", sqlArray(maxBatch+1, testSQL), http.StatusBadRequest, ""},
		{"predict unknown db", http.MethodPost, "/v1/predict", `{"db":"nope","model":"zeroshot","sql":"` + testSQL + `"}`, http.StatusNotFound, ""},
		{"predict_batch unknown db", http.MethodPost, "/v1/predict_batch", `{"db":"nope","model":"zeroshot","sql":["` + testSQL + `"]}`, http.StatusNotFound, ""},
		{"whatif unknown db", http.MethodPost, "/v1/whatif", `{"db":"nope","model":"zeroshot","sql":["` + testSQL + `"]}`, http.StatusNotFound, ""},
		{"feedback without -adapt", http.MethodPost, "/v1/feedback", `{"db":"imdb","sql":"` + testSQL + `","actual_runtime_sec":0.5}`, http.StatusNotFound, cluster.CodeAdaptDisabled},
		{"adapt status without -adapt", http.MethodGet, "/v1/adapt/status", "", http.StatusNotFound, cluster.CodeAdaptDisabled},
		{"predict oversized", http.MethodPost, "/v1/predict", oversized(`{"db":"imdb","sql":"`, `"}`, maxSingleBody), http.StatusRequestEntityTooLarge, ""},
		{"predict_batch oversized", http.MethodPost, "/v1/predict_batch", oversized(`{"db":"imdb","sql":["`, `"]}`, maxBatchBody), http.StatusRequestEntityTooLarge, ""},
		{"whatif oversized", http.MethodPost, "/v1/whatif", oversized(`{"db":"imdb","sql":["`, `"]}`, maxBatchBody), http.StatusRequestEntityTooLarge, ""},
		{"feedback oversized", http.MethodPost, "/v1/feedback", oversized(`{"db":"imdb","sql":"`, `"}`, maxSingleBody), http.StatusRequestEntityTooLarge, ""},
		{"predict_batch past the single-statement cap", http.MethodPost, "/v1/predict_batch", pastSingleCap, http.StatusOK, ""},
	}

	for _, fe := range []struct {
		name  string
		start func(t *testing.T) *httptest.Server
	}{
		{"serve", newTestServer},
		{"replicas", func(t *testing.T) *httptest.Server {
			router, _ := newTestRouter(t, 3, false)
			ts := httptest.NewServer(newRouterServer(router, nil).mux())
			t.Cleanup(ts.Close)
			return ts
		}},
		{"route", func(t *testing.T) *httptest.Server {
			router := cluster.NewRouter(cluster.Config{CallTimeout: 5 * time.Second})
			t.Cleanup(func() { router.Close() })
			for _, name := range []string{"a", "b"} {
				node := newTestServer(t)
				hb, err := cluster.NewHTTPBackend(name, node.URL, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := router.Register(hb); err != nil {
					t.Fatal(err)
				}
			}
			ts := httptest.NewServer(newRouterServer(router, nil).mux())
			t.Cleanup(ts.Close)
			return ts
		}},
	} {
		t.Run(fe.name, func(t *testing.T) {
			base := fe.start(t).URL
			for _, c := range cases {
				t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
					req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
					if err != nil {
						t.Fatal(err)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					var out map[string]any
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						t.Fatalf("non-JSON response: %v", err)
					}
					if resp.StatusCode != c.status {
						t.Fatalf("status %d, want %d (error %q)", resp.StatusCode, c.status, out["error"])
					}
					if c.status == http.StatusOK {
						return
					}
					if _, ok := out["error"].(string); !ok {
						t.Fatalf("error response missing error field: %v", out)
					}
					if code, _ := out["code"].(string); code != c.code {
						t.Fatalf("code %q, want %q", code, c.code)
					}
				})
			}
		})
	}
}
