package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// clusterServer is the HTTP shim over a cluster.Router — the cluster
// analogue of server: same endpoints, same request/response bodies, so
// clients cannot tell one replica from many. Requests route to the
// replica owning their database (with failover); the read endpoints
// aggregate across replicas. /v1/cluster is the one addition: the ring
// and per-replica health view an operator watches during an outage.
type clusterServer struct {
	router *cluster.Router
	// adaptStatus returns per-replica adaptation snapshots. nil when
	// adaptation is off — and in route mode, where each remote node owns
	// its own /v1/adapt/status.
	adaptStatus func() map[string]adapt.Status
	// bundles is the bundle-distribution control plane. nil when bundle
	// distribution is off — and in route mode, where each serve node owns
	// its own store.
	bundles *bundleControl
	// tracer and events are the process-wide observability surfaces
	// behind /v1/debug/traces and /v1/events (404 when unwired).
	tracer *obs.Tracer
	events *obs.Log
}

func newClusterServer(router *cluster.Router) *clusterServer {
	return &clusterServer{router: router}
}

// mux wires the JSON API.
func (s *clusterServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/databases", s.handleDatabases)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/cluster", s.handleCluster)
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/predict_batch", s.handlePredictBatch)
	mux.HandleFunc("/v1/whatif", s.handleWhatIf)
	mux.HandleFunc("/v1/feedback", s.handleFeedback)
	mux.HandleFunc("/v1/adapt/status", s.handleAdaptStatus)
	mux.HandleFunc("/v1/bundles", s.handleBundles)
	mux.HandleFunc("/v1/debug/traces", s.handleTraces)
	mux.HandleFunc("/v1/events", s.handleEvents)
	return mux
}

// handleTraces and handleEvents defer to the shared handlers — the
// fields are read per request so tests can wire them after mux().
func (s *clusterServer) handleTraces(w http.ResponseWriter, r *http.Request) {
	handleTraces(s.tracer)(w, r)
}

func (s *clusterServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	handleEvents(s.events)(w, r)
}

// handleBundles delegates to the shared bundle handler — the same body
// the single-replica server serves, since the control plane is one
// store either way. Read per request so tests can inject after mux().
func (s *clusterServer) handleBundles(w http.ResponseWriter, r *http.Request) {
	handleBundles(s.bundles)(w, r)
}

// handleAdaptStatus aggregates every replica's adaptation snapshot —
// the cluster analogue of the single-session endpoint, keyed by replica
// name since each replica runs its own loop over its own windows.
func (s *clusterServer) handleAdaptStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.adaptStatus == nil {
		httpErrorCode(w, http.StatusNotFound, cluster.CodeAdaptDisabled,
			"online adaptation is disabled (restart with -adapt; in route mode, query the serve nodes directly)")
		return
	}
	writeJSON(w, map[string]any{"replicas": s.adaptStatus()})
}

// clusterError maps routing failures onto status codes, falling back to
// the serving-error mapping for request-level kinds.
func clusterError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, cluster.ErrNoReplica):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, cluster.ErrNoFeedback):
		// Carry the machine-readable code so a router stacked on this
		// router classifies the condition the same way.
		httpErrorCode(w, http.StatusNotFound, cluster.CodeAdaptDisabled, "%v", err)
	case errors.Is(err, adapt.ErrNoPlan):
		httpError(w, http.StatusNotFound, "%v", err)
	default:
		sessionError(w, err)
	}
}

func (s *clusterServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	health := s.router.Healthy()
	up := 0
	for _, ok := range health {
		if ok {
			up++
		}
	}
	body := map[string]any{
		"status":   "ok",
		"replicas": len(health),
		"healthy":  up,
	}
	if up == 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		body["status"] = "unavailable"
		json.NewEncoder(w).Encode(body)
		return
	}
	writeJSON(w, body)
}

func (s *clusterServer) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// Two independent cluster-wide reads; overlap them so the endpoint
	// costs one fan-out of latency, not two.
	var (
		names   []string
		dbs     []cluster.DatabaseView
		nameErr error
		dbErr   error
		wg      sync.WaitGroup
	)
	wg.Add(2)
	go func() { defer wg.Done(); names, nameErr = s.router.Models(r.Context()) }()
	go func() { defer wg.Done(); dbs, dbErr = s.router.Databases(r.Context()) }()
	wg.Wait()
	if nameErr != nil {
		clusterError(w, nameErr)
		return
	}
	if dbErr != nil {
		clusterError(w, dbErr)
		return
	}
	models := make([]modelInfo, 0, len(names))
	for _, name := range names {
		models = append(models, modelInfo{Name: name})
	}
	dbNames := make([]string, len(dbs))
	for i, d := range dbs {
		dbNames[i] = d.Name
	}
	writeJSON(w, map[string]any{"models": models, "databases": dbNames})
}

func (s *clusterServer) handleDatabases(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	dbs, err := s.router.Databases(r.Context())
	if err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, map[string]any{"databases": dbs})
}

func (s *clusterServer) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st, err := s.router.Stats(r.Context())
	if err != nil {
		clusterError(w, err)
		return
	}
	if s.bundles != nil {
		// Per-replica distributor counters ride along so generation skew
		// (one replica stuck behind on a revision) shows in one read.
		writeJSON(w, struct {
			cluster.ClusterStats
			Bundles map[string]bundle.Status `json:"bundles"`
		}{st, s.bundles.statuses()})
		return
	}
	writeJSON(w, st)
}

// clusterView is the /v1/cluster body: the ring assignment and health
// per replica.
type clusterView struct {
	Replicas []string            `json:"replicas"`
	Healthy  map[string]bool     `json:"healthy"`
	Owners   map[string]string   `json:"owners"`
	Routes   map[string][]string `json:"routes"`
}

func (s *clusterServer) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	view := clusterView{
		Replicas: s.router.Replicas(),
		Healthy:  s.router.Healthy(),
		Owners:   map[string]string{},
		Routes:   map[string][]string{},
	}
	dbs, err := s.router.Databases(r.Context())
	if err != nil {
		clusterError(w, err)
		return
	}
	for _, d := range dbs {
		view.Owners[d.Name] = d.Owner
		view.Routes[d.Name] = s.router.Route(d.Name)
	}
	writeJSON(w, view)
}

func (s *clusterServer) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req predictRequest
	if !decodeBody(w, r, maxSingleBody, &req) {
		return
	}
	if req.SQL == "" {
		httpError(w, http.StatusBadRequest, "sql is required")
		return
	}
	pred, err := s.router.Predict(r.Context(), req.DB, req.Model, req.SQL)
	if err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, predictResponse{
		DB:            pred.Database,
		Model:         pred.Model,
		RuntimeSec:    pred.RuntimeSec,
		OptimizerCost: pred.OptimizerCost,
		EstRows:       pred.EstRows,
		Fingerprint:   pred.Fingerprint,
		PlanCached:    pred.PlanCached,
	})
}

func (s *clusterServer) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req predictBatchRequest
	if !decodeBody(w, r, maxBatchBody, &req) {
		return
	}
	if len(req.SQL) == 0 {
		httpError(w, http.StatusBadRequest, "sql array is required")
		return
	}
	if len(req.SQL) > maxBatch {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.SQL), maxBatch)
		return
	}
	res, err := s.router.PredictBatch(r.Context(), req.DB, req.Model, req.SQL)
	if err != nil {
		clusterError(w, err)
		return
	}
	resp := predictBatchResponse{Model: res.Model, DB: res.Database, Results: make([]batchItemResult, len(res.Items)), Count: len(res.Items)}
	for i, item := range res.Items {
		if item.Err != nil {
			resp.Results[i].Error = item.Err.Error()
			resp.Errors++
		} else {
			resp.Results[i].RuntimeSec = item.RuntimeSec
		}
	}
	writeJSON(w, resp)
}

// handleWhatIf routes a what-if sweep to the replica owning the
// database, like a predict — the owner's what-if caches stay hot.
func (s *clusterServer) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req whatIfRequest
	if !decodeBody(w, r, maxBatchBody, &req) {
		return
	}
	if len(req.SQL) == 0 {
		httpError(w, http.StatusBadRequest, "sql array is required")
		return
	}
	if len(req.SQL) > maxBatch {
		httpError(w, http.StatusBadRequest, "workload of %d exceeds limit %d", len(req.SQL), maxBatch)
		return
	}
	rep, err := s.router.WhatIf(r.Context(), req.DB, req.Model, whatif.Request{
		SQL:           req.SQL,
		Candidates:    req.Candidates,
		MaxCandidates: req.MaxCandidates,
	})
	if err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, rep)
}

func (s *clusterServer) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req feedbackRequest
	if !decodeBody(w, r, maxSingleBody, &req) {
		return
	}
	fp := req.Fingerprint
	if fp == "" && req.SQL != "" {
		fp = costmodel.Fingerprint(req.SQL)
	}
	if fp == "" {
		httpError(w, http.StatusBadRequest, "fingerprint or sql is required")
		return
	}
	if req.ActualRuntimeSec <= 0 {
		httpError(w, http.StatusBadRequest, "actual_runtime_sec must be positive")
		return
	}
	if err := s.router.Feedback(r.Context(), req.DB, fp, req.ActualRuntimeSec); err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, map[string]any{"status": "accepted", "fingerprint": fp})
}

// checkStartupHealth probes every backend once so a route command fails
// fast (with a named offender) when no backend is reachable at start.
func checkStartupHealth(ctx context.Context, router *cluster.Router) (up int, report map[string]error) {
	report = router.CheckHealth(ctx)
	for _, err := range report {
		if err == nil {
			up++
		}
	}
	return up, report
}
