package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/storage"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// requestAPI is what the request endpoints (/v1/predict,
// /v1/predict_batch, /v1/whatif, /v1/feedback) call. Both front ends
// satisfy it: a lone replica is a cluster.InProcess over its session and
// adaptation loop, and zsdb serve -replicas N and zsdb route put a
// cluster.Router in front of their replicas.
type requestAPI interface {
	Predict(ctx context.Context, db, model, sql string) (serving.Prediction, error)
	PredictBatch(ctx context.Context, db, model string, sqls []string) (serving.BatchResult, error)
	WhatIf(ctx context.Context, db, model string, req whatif.Request) (*whatif.Report, error)
	Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error
}

// server is the HTTP shim of zsdb serve and zsdb route: handlers decode
// JSON, call the request API, and map its error kinds onto status codes.
// All serving logic — multi-database pipelines, plan caching, micro-batch
// coalescing, metrics — lives in internal/serving; routing and failover
// live in internal/cluster; the optional online adaptation loop
// (feedback → drift → fine-tune → hot-swap) lives in internal/adapt.
//
// The request endpoints are one set for every front end, so clients
// cannot tell one replica from many. The read endpoints come in two
// shapes (see mux): a lone replica reports its session, a router
// aggregates across replicas and adds /v1/cluster.
type server struct {
	api requestAPI
	// Exactly one of node and router is set; it is also api.
	node   *cluster.InProcess
	router *cluster.Router
	// adaptStatus returns the /v1/adapt/status body; nil when adaptation
	// is off — and in route mode, where each serve node owns its own.
	adaptStatus func() any
	// bundles is the model-bundle plumbing (store, publisher, one
	// distributor per replica); nil unless -bundle-dir — and in route
	// mode, where each serve node owns its own store.
	bundles *bundleControl
	// tracer and events are the process-wide observability surfaces
	// behind /v1/debug/traces and /v1/events (404 when unwired).
	tracer *obs.Tracer
	events *obs.Log
}

// newServer fronts a lone replica: zsdb serve without -replicas.
func newServer(node *cluster.InProcess) *server {
	s := &server{api: node, node: node}
	if loop := node.Loop(); loop != nil {
		s.adaptStatus = func() any { return loop.Status() }
	}
	return s
}

// newRouterServer fronts a router: zsdb serve -replicas N over its
// in-process replicas, or zsdb route over remote serve nodes. loops holds
// the in-process replicas' adaptation loops by replica name.
func newRouterServer(router *cluster.Router, loops map[string]*adapt.Loop) *server {
	s := &server{api: router, router: router}
	if len(loops) > 0 {
		s.adaptStatus = func() any {
			out := make(map[string]adapt.Status, len(loops))
			for name, loop := range loops {
				out[name] = loop.Status()
			}
			return map[string]any{"replicas": out}
		}
	}
	return s
}

// mux wires the JSON API: the read set of the front end's shape, then
// the endpoints every front end shares.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	get := func(path string, h http.HandlerFunc) { mux.HandleFunc(path, only(http.MethodGet, h)) }
	post := func(path string, h http.HandlerFunc) { mux.HandleFunc(path, only(http.MethodPost, h)) }
	if s.router != nil {
		get("/healthz", s.routerHealthz)
		get("/v1/models", s.routerModels)
		get("/v1/databases", s.routerDatabases)
		get("/v1/stats", s.routerStats)
		get("/v1/cluster", s.routerCluster)
	} else {
		get("/healthz", s.nodeHealthz)
		get("/v1/models", s.nodeModels)
		get("/v1/databases", s.nodeDatabases)
		get("/v1/stats", s.nodeStats)
	}
	get("/v1/adapt/status", s.handleAdaptStatus)
	get("/v1/debug/traces", handleTraces(s.tracer))
	get("/v1/events", handleEvents(s.events))
	post("/v1/predict", s.handlePredict)
	post("/v1/predict_batch", s.handlePredictBatch)
	post("/v1/whatif", s.handleWhatIf)
	post("/v1/feedback", s.handleFeedback)
	mux.HandleFunc("/v1/bundles", handleBundles(s.bundles))
	return mux
}

// only answers 405 to every method but method.
func only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			httpError(w, http.StatusMethodNotAllowed, "%s only", method)
			return
		}
		h(w, r)
	}
}

// httpError is the uniform JSON error envelope.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSONStatus(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// httpErrorCode is httpError plus a machine-readable "code" field, for
// conditions remote routers must classify without parsing prose (the
// cluster HTTP backend keys on it).
func httpErrorCode(w http.ResponseWriter, status int, errCode, format string, args ...any) {
	writeJSONStatus(w, status, map[string]string{"error": fmt.Sprintf(format, args...), "code": errCode})
}

// apiError maps an error kind of the request API or a router read onto
// its status code; cluster.HTTPBackend's statusError is the inverse.
func apiError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, cluster.ErrNoFeedback):
		// Carry the machine-readable code so a router stacked on this
		// front end classifies the condition the same way.
		httpErrorCode(w, http.StatusNotFound, cluster.CodeAdaptDisabled, "online adaptation is disabled (restart with -adapt): %v", err)
		return
	case errors.Is(err, cluster.ErrNoReplica):
		status = http.StatusServiceUnavailable
	case errors.Is(err, serving.ErrNotFound), errors.Is(err, adapt.ErrNoPlan):
		status = http.StatusNotFound
	case errors.Is(err, serving.ErrBadQuery):
		status = http.StatusBadRequest
	case errors.Is(err, serving.ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client gave up, not the server — keep it off the 5xx rate.
		status = http.StatusRequestTimeout
	}
	httpError(w, status, "%v", err)
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *server) nodeHealthz(w http.ResponseWriter, r *http.Request) {
	models, databases := s.node.Session().Counts()
	writeJSON(w, map[string]any{
		"status":    "ok",
		"models":    models,
		"databases": databases,
	})
}

// modelInfo describes one loaded model in /v1/models. Fused reports
// whether the model's PredictBatch executes as one fused forward pass
// (costmodel.BatchFuser). Generation and Swapped expose the hot-swap
// state (each AttachModel bumps the generation), so a client can detect
// a stale replica from this endpoint alone. All three are omitted by
// the router aggregation, which only sees model names.
type modelInfo struct {
	Name       string    `json:"name"`
	Fused      bool      `json:"fused,omitempty"`
	Generation int64     `json:"generation,omitempty"`
	Swapped    time.Time `json:"swapped,omitzero"`
}

func (s *server) nodeModels(w http.ResponseWriter, r *http.Request) {
	sess := s.node.Session()
	models := make([]modelInfo, 0, 4)
	for _, name := range sess.Models() {
		info := modelInfo{Name: name}
		if est, err := sess.Model(name); err == nil {
			info.Fused = costmodel.Fused(est)
		}
		if gen, swapped, err := sess.ModelGeneration(name); err == nil {
			info.Generation = gen
			info.Swapped = swapped
		}
		models = append(models, info)
	}
	dbs := sess.Databases()
	names := make([]string, len(dbs))
	for i, d := range dbs {
		names[i] = d.Name
	}
	writeJSON(w, map[string]any{"models": models, "databases": names})
}

func (s *server) nodeDatabases(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"databases": s.node.Session().Databases()})
}

// statsResponse is the /v1/stats body of a lone replica: the session
// snapshot (uptime, counters, latencies, per-model generations) plus the
// adaptation counters when -adapt is on and the bundle distributor
// counters (polls, activations, failures, last error) when -bundle-dir
// is set.
type statsResponse struct {
	serving.Stats
	Adaptation *adapt.Status            `json:"adaptation,omitempty"`
	Bundles    map[string]bundle.Status `json:"bundles,omitempty"`
}

func (s *server) nodeStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Stats: s.node.Session().Stats()}
	if loop := s.node.Loop(); loop != nil {
		st := loop.Status()
		resp.Adaptation = &st
	}
	if s.bundles != nil {
		resp.Bundles = s.bundles.statuses()
	}
	writeJSON(w, resp)
}

func (s *server) handleAdaptStatus(w http.ResponseWriter, r *http.Request) {
	if s.adaptStatus == nil {
		httpErrorCode(w, http.StatusNotFound, cluster.CodeAdaptDisabled,
			"online adaptation is disabled (restart with -adapt; in route mode, query the serve nodes directly)")
		return
	}
	writeJSON(w, s.adaptStatus())
}

// feedbackRequest is the /v1/feedback body: the observed runtime of an
// earlier prediction, identified by the fingerprint that prediction
// returned (or by the statement text, which fingerprints identically).
type feedbackRequest struct {
	DB               string  `json:"db"`
	Fingerprint      string  `json:"fingerprint"`
	SQL              string  `json:"sql"`
	ActualRuntimeSec float64 `json:"actual_runtime_sec"`
}

// handleFeedback routes an observed runtime to the replica owning the
// database, whose plan cache retains the fingerprint's plan.
func (s *server) handleFeedback(w http.ResponseWriter, r *http.Request) {
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
	if err := s.api.Feedback(r.Context(), req.DB, fp, req.ActualRuntimeSec); err != nil {
		apiError(w, err)
		return
	}
	writeJSON(w, map[string]any{"status": "accepted", "fingerprint": fp})
}

// predictRequest is the /v1/predict body. DB and Model may be omitted
// when the server hosts exactly one database / model.
type predictRequest struct {
	DB    string `json:"db"`
	Model string `json:"model"`
	SQL   string `json:"sql"`
}

// predictResponse is the /v1/predict reply. Fingerprint is the handle a
// client hands back to /v1/feedback once it observes the query's actual
// runtime.
type predictResponse struct {
	DB            string  `json:"db"`
	Model         string  `json:"model"`
	RuntimeSec    float64 `json:"runtime_sec"`
	OptimizerCost float64 `json:"optimizer_cost"`
	EstRows       float64 `json:"est_rows"`
	Fingerprint   string  `json:"fingerprint"`
	PlanCached    bool    `json:"plan_cached"`
}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if !decodeBody(w, r, maxSingleBody, &req) {
		return
	}
	if req.SQL == "" {
		httpError(w, http.StatusBadRequest, "sql is required")
		return
	}
	pred, err := s.api.Predict(r.Context(), req.DB, req.Model, req.SQL)
	if err != nil {
		apiError(w, err)
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

// predictBatchRequest is the /v1/predict_batch body.
type predictBatchRequest struct {
	DB    string   `json:"db"`
	Model string   `json:"model"`
	SQL   []string `json:"sql"`
}

// batchItemResult is one statement's outcome: a prediction or that
// statement's own error. One malformed statement no longer fails the
// whole batch.
type batchItemResult struct {
	RuntimeSec float64 `json:"runtime_sec,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// predictBatchResponse is the /v1/predict_batch reply; results align
// with the request's sql array.
type predictBatchResponse struct {
	DB      string            `json:"db"`
	Model   string            `json:"model"`
	Results []batchItemResult `json:"results"`
	Count   int               `json:"count"`
	Errors  int               `json:"errors"`
}

// maxBatch bounds one batch request; bigger workloads should be paged.
const maxBatch = 4096

// Request-body caps, enforced while decoding so an oversized body is
// refused before it is buffered. One statement fits far inside
// maxSingleBody; maxBatchBody leaves maxBatch statements ~4 KiB each.
const (
	maxSingleBody = 1 << 20
	maxBatchBody  = 16 << 20
)

// decodeBody decodes r's JSON body into v, reading at most limit bytes.
// On failure it answers the request itself — 413 for an oversized body,
// 400 for a malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
	default:
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// checkStatements answers 400 to an empty sql array or one longer than
// maxBatch (noun names it in the reply) and reports whether sqls passed.
func checkStatements(w http.ResponseWriter, sqls []string, noun string) bool {
	switch {
	case len(sqls) == 0:
		httpError(w, http.StatusBadRequest, "sql array is required")
	case len(sqls) > maxBatch:
		httpError(w, http.StatusBadRequest, "%s of %d exceeds limit %d", noun, len(sqls), maxBatch)
	default:
		return true
	}
	return false
}

func (s *server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	var req predictBatchRequest
	if !decodeBody(w, r, maxBatchBody, &req) || !checkStatements(w, req.SQL, "batch") {
		return
	}
	res, err := s.api.PredictBatch(r.Context(), req.DB, req.Model, req.SQL)
	if err != nil {
		apiError(w, err)
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

// whatIfRequest is the /v1/whatif body: the workload to sweep and
// optional explicit index candidates ("table.column"); with none, the
// server enumerates candidates from the schema's foreign keys and the
// workload's filter columns.
type whatIfRequest struct {
	DB            string   `json:"db"`
	Model         string   `json:"model"`
	SQL           []string `json:"sql"`
	Candidates    []string `json:"candidates"`
	MaxCandidates int      `json:"max_candidates"`
}

// handleWhatIf runs a what-if sweep on the replica owning the database,
// like a predict — the owner's what-if caches stay hot.
func (s *server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req whatIfRequest
	if !decodeBody(w, r, maxBatchBody, &req) || !checkStatements(w, req.SQL, "workload") {
		return
	}
	rep, err := s.api.WhatIf(r.Context(), req.DB, req.Model, whatif.Request{
		SQL:           req.SQL,
		Candidates:    req.Candidates,
		MaxCandidates: req.MaxCandidates,
	})
	if err != nil {
		apiError(w, err)
		return
	}
	writeJSON(w, rep)
}

// buildDatabase constructs one named serving database kind.
func buildDatabase(kind string, scale float64) (*storage.Database, error) {
	switch kind {
	case "imdb":
		return datagen.IMDBLike(scale)
	case "ssb":
		return datagen.SSBLike(scale)
	case "tpch":
		return datagen.TPCHLike(scale)
	default:
		return nil, fmt.Errorf("serve: unknown database kind %q (want imdb, ssb or tpch)", kind)
	}
}

// loadModels loads and validates every model file. Models load before
// databases build — they fail cheaply, while each database costs
// seconds of data generation.
func loadModels(modelPaths string) ([]costmodel.Estimator, error) {
	var models []costmodel.Estimator
	seen := map[string]bool{}
	for _, path := range strings.Split(modelPaths, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		est, err := loadModelFile(path)
		if err != nil {
			return nil, err
		}
		// Serve-time plans are never executed, so a model encoding exact
		// cardinalities would fail every prediction — reject it at startup.
		if zs, ok := est.(*costmodel.ZeroShot); ok && zs.Card() == encoding.CardExact {
			return nil, fmt.Errorf("serve: %s was trained with exact cardinalities, which do not exist for unexecuted plans; retrain with -card estimated", path)
		}
		if seen[est.Name()] {
			return nil, fmt.Errorf("serve: two models named %q; serve one file per estimator kind", est.Name())
		}
		seen[est.Name()] = true
		models = append(models, est)
		fmt.Fprintf(os.Stderr, "loaded %s from %s\n", est.Name(), path)
	}
	return models, nil
}

// buildDatabases constructs the named serving databases concurrently
// (each costs seconds of data generation), returning them in flag
// order.
func buildDatabases(dbSpec string, dbScale float64) ([]string, []*storage.Database, error) {
	var kinds []string
	for _, kind := range strings.Split(dbSpec, ",") {
		if kind = strings.TrimSpace(kind); kind != "" {
			kinds = append(kinds, kind)
		}
	}
	if len(kinds) == 0 {
		return nil, nil, fmt.Errorf("serve: no databases attached (check -databases)")
	}
	dbs := make([]*storage.Database, len(kinds))
	errs := make([]error, len(kinds))
	var wg sync.WaitGroup
	for i, kind := range kinds {
		wg.Add(1)
		go func(i int, kind string) {
			defer wg.Done()
			dbs[i], errs[i] = buildDatabase(kind, dbScale)
		}(i, kind)
	}
	wg.Wait()
	for i := range kinds {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
	}
	return kinds, dbs, nil
}

// assembleSession attaches pre-built databases and loaded models to a
// fresh session. Replicated cluster mode calls this once per replica
// over the same databases — the storage is shared, only the
// per-session pipeline state (statistics, plan caches, scheduler) is
// per-replica.
func assembleSession(cfg serving.Config, kinds []string, dbs []*storage.Database, models []costmodel.Estimator) (*serving.Session, error) {
	sess := serving.NewSession(cfg)
	for _, est := range models {
		if err := sess.AttachModel(est); err != nil {
			return nil, err
		}
	}
	for i, kind := range kinds {
		if err := sess.AttachDatabase(kind, dbs[i]); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// adaptableModel resolves which attached model the adaptation loop
// should own: the named one, or — when the flag is empty — the single
// attached model that supports online adaptation (Clone + FineTune).
func adaptableModel(sess *serving.Session, name string) (string, error) {
	if name != "" {
		return name, nil
	}
	var candidates []string
	for _, n := range sess.Models() {
		est, err := sess.Model(n)
		if err != nil {
			return "", err
		}
		_, canClone := est.(costmodel.Cloner)
		_, canTune := est.(costmodel.FineTuner)
		if canClone && canTune {
			candidates = append(candidates, n)
		}
	}
	switch len(candidates) {
	case 0:
		return "", fmt.Errorf("serve: -adapt needs a model supporting Clone and FineTune; none of %v does", sess.Models())
	case 1:
		return candidates[0], nil
	default:
		return "", fmt.Errorf("serve: several models support adaptation (%v); pick one with -adapt-model", candidates)
	}
}

// serveUntilSignal runs the HTTP server until a shutdown signal arrives,
// then drains: stop accepting connections, let in-flight handlers finish
// (bounded by drainTimeout), and close the backing replica — or the
// router and every replica behind it — so queued micro-batches still
// answer before the process exits.
func serveUntilSignal(httpSrv *http.Server, ln net.Listener, backing io.Closer, sigs <-chan os.Signal, drainTimeout time.Duration) error {
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		backing.Close()
		return err
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "zsdb serve: %v received, draining...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		shutdownErr := httpSrv.Shutdown(ctx)
		backing.Close()
		<-serveErr // http.ErrServerClosed once Shutdown completes
		return shutdownErr
	}
}

// listenAndServe is the tail zsdb serve and zsdb route share: listen on
// addr, print "<banner> on ADDR", and serve handler until SIGINT or
// SIGTERM drains it (see serveUntilSignal). backing is closed on every
// path.
func listenAndServe(addr, banner string, handler http.Handler, backing io.Closer, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		backing.Close()
		return err
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	fmt.Fprintf(os.Stderr, "%s on %s\n", banner, ln.Addr())
	err = serveUntilSignal(httpSrv, ln, backing, sigs, drainTimeout)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// adaptFlags carries the -adapt* flag values into session assembly.
type adaptFlags struct {
	on         bool
	model      string
	windowSize int
	minSamples int
	// events, when non-nil, receives the loop's control-plane decisions
	// (drift triggers, swap verdicts) in the process-wide event log.
	events *obs.Log
}

// newLoopFor builds and starts one session's adaptation loop per the
// flags (nil when -adapt is off). onAccept, when non-nil, hooks the
// accept path — the bundle publisher's entry point. origin names this
// session in recorded events (the replica name).
func (a adaptFlags) newLoopFor(sess *serving.Session, onAccept func(context.Context, costmodel.Estimator, adapt.ShadowEval, int), origin string) (*adapt.Loop, error) {
	if !a.on {
		return nil, nil
	}
	model, err := adaptableModel(sess, a.model)
	if err != nil {
		return nil, err
	}
	loop, err := adapt.New(sess, adapt.Config{
		Model:      model,
		WindowSize: a.windowSize,
		MinSamples: a.minSamples,
		OnAccept:   onAccept,
		Events:     a.events,
		Origin:     origin,
	})
	if err != nil {
		return nil, err
	}
	loop.Start()
	return loop, nil
}

// buildReplicas assembles n mirrored in-process replicas — each a full
// serving session over the SAME storage (per-replica statistics, plan
// caches and schedulers; shared column data) with its own bundle
// distributor and adaptation loop. A lone replica is named "local",
// several are r0, r1, ... Any replica can rescue any database on
// failover because the mirrored attachment is total.
func buildReplicas(n int, cfg serving.Config, kinds []string, dbs []*storage.Database, models []costmodel.Estimator, af adaptFlags, bc *bundleControl, poll time.Duration) ([]*cluster.InProcess, error) {
	var nodes []*cluster.InProcess
	fail := func(err error) ([]*cluster.InProcess, error) {
		for _, b := range nodes {
			b.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		name := "local"
		if n > 1 {
			name = fmt.Sprintf("r%d", i)
		}
		sess, err := assembleSession(cfg, kinds, dbs, models)
		if err != nil {
			return fail(err)
		}
		// The distributor attaches before the loop so an accepted
		// adaptation can mark its own replica as already activated.
		var dist *bundle.Distributor
		if bc != nil {
			if dist, err = bc.attach(name, sess, poll); err != nil {
				return fail(err)
			}
		}
		loop, err := af.newLoopFor(sess, bc.onAccept(dist), name)
		if err != nil {
			return fail(err)
		}
		b, err := cluster.NewInProcess(name, sess, loop)
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, b)
	}
	if bc != nil {
		if err := bc.seed(context.Background(), models); err != nil {
			return fail(err)
		}
	}
	return nodes, nil
}

// newFront puts the HTTP front end over the replicas: a lone replica is
// served directly, several sit behind a consistent-hash router. Requests
// for one database always land on its owning replica, so plan-cache and
// adaptation-window locality survives the fan-in. The returned closer
// shuts down whatever the front end serves.
func newFront(nodes []*cluster.InProcess, rcfg cluster.Config) (*server, io.Closer, error) {
	if len(nodes) == 1 {
		return newServer(nodes[0]), nodes[0], nil
	}
	router := cluster.NewRouter(rcfg)
	loops := map[string]*adapt.Loop{}
	for _, b := range nodes {
		if err := router.Register(b); err != nil {
			router.Close()
			for _, b := range nodes {
				b.Close()
			}
			return nil, nil, err
		}
		if loop := b.Loop(); loop != nil {
			loops[b.Name()] = loop
		}
	}
	return newRouterServer(router, loops), router, nil
}

// runServe loads the model files, attaches the serving databases, and
// serves the prediction API until SIGINT/SIGTERM. With -replicas N > 1
// the same binary runs a sharded cluster: N mirrored in-process
// replicas behind the consistent-hash router, one HTTP front end.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	modelPaths := fs.String("models", "", "comma-separated saved model files (required)")
	addr := fs.String("addr", ":8080", "listen address")
	databases := fs.String("databases", "imdb", "comma-separated serving databases to attach: imdb, ssb, tpch")
	dbScale := fs.Float64("dbscale", 0.1, "serving database scale")
	replicas := fs.Int("replicas", 1, "in-process replica count; >1 serves a sharded cluster behind the consistent-hash router")
	callTimeout := fs.Duration("call-timeout", 10*time.Second, "cluster mode: per-attempt replica call timeout; a slower replica fails over (-replicas > 1 only)")
	maxAttempts := fs.Int("max-attempts", 0, "cluster mode: failover candidates per request, 0 = all replicas (-replicas > 1 only)")
	batchMax := fs.Int("batch-max", serving.DefaultMaxBatch, "micro-batch size cap for coalesced single predictions")
	batchWait := fs.Duration("batch-wait", serving.DefaultMaxWait, "micro-batch max-wait deadline")
	planCache := fs.Int("plancache", costmodel.DefaultPlanCacheSize, "per-database plan cache entries")
	drain := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown timeout")
	adaptOn := fs.Bool("adapt", false, "enable online adaptation: /v1/feedback runtimes fine-tune the model in the background and hot-swap improved generations")
	adaptModel := fs.String("adapt-model", "", "model to adapt (default: the sole attached model supporting Clone+FineTune)")
	adaptWindow := fs.Int("adapt-window", 0, "per-database feedback window size (0 = adapt default)")
	adaptMin := fs.Int("adapt-min-samples", 0, "fewest buffered samples a fine-tune runs on (0 = adapt default)")
	bundleDir := fs.String("bundle-dir", "", "bundle store directory: replicas poll it for new model revisions, and accepted adaptations publish into it (empty = bundles off)")
	bundlePoll := fs.Duration("bundle-poll", bundle.DefaultInterval, "bundle distributor poll interval (jittered per replica)")
	bundleRetain := fs.Int("bundle-retain", bundle.DefaultRetain, "bundle revisions to retain for rollback")
	bundleModel := fs.String("bundle-model", "", "model the bundle tier distributes (default: the sole loaded model)")
	var of obsFlags
	of.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPaths == "" {
		return fmt.Errorf("serve: -models is required")
	}
	if *replicas < 1 {
		return fmt.Errorf("serve: -replicas must be >= 1, got %d", *replicas)
	}
	tracer, events := of.build()
	stopDebug, err := of.startDebug()
	if err != nil {
		return err
	}
	defer stopDebug()
	cfg := serving.Config{
		MaxBatch:      *batchMax,
		MaxWait:       *batchWait,
		PlanCacheSize: *planCache,
		Tracer:        tracer,
	}
	af := adaptFlags{on: *adaptOn, model: *adaptModel, windowSize: *adaptWindow, minSamples: *adaptMin, events: events}
	bf := bundleFlags{dir: *bundleDir, poll: *bundlePoll, retain: *bundleRetain, model: *bundleModel}

	models, err := loadModels(*modelPaths)
	if err != nil {
		return err
	}
	// The publisher and distributors share the process event log, so one
	// /v1/events read shows swaps, publishes and health transitions
	// interleaved in sequence order.
	bc, err := bf.newControl(models, events)
	if err != nil {
		return err
	}
	defer bc.close()
	kinds, dbs, err := buildDatabases(*databases, *dbScale)
	if err != nil {
		return err
	}
	nodes, err := buildReplicas(*replicas, cfg, kinds, dbs, models, af, bc, bf.poll)
	if err != nil {
		return err
	}
	srv, backing, err := newFront(nodes, cluster.Config{
		CallTimeout:    *callTimeout,
		MaxAttempts:    *maxAttempts,
		HealthInterval: 2 * time.Second,
		Tracer:         tracer,
		Events:         events,
	})
	if err != nil {
		return err
	}
	srv.bundles = bc
	srv.tracer, srv.events = tracer, events
	for i, kind := range kinds {
		fmt.Fprintf(os.Stderr, "attached database %s (%s, scale %g) to %d replica(s)\n", kind, dbs[i].Schema.Name, *dbScale, len(nodes))
	}
	if loop := nodes[0].Loop(); loop != nil {
		fmt.Fprintf(os.Stderr, "online adaptation enabled for %s on %d replica(s) (POST /v1/feedback)\n", loop.Status().Model, len(nodes))
	}
	if bc != nil {
		fmt.Fprintf(os.Stderr, "bundle distribution enabled: %s polled every %v by %d replica(s)\n", *bundleDir, *bundlePoll, len(nodes))
	}
	banner := fmt.Sprintf("serving %d model(s) over %d database(s)", len(models), len(kinds))
	if len(nodes) > 1 {
		banner += fmt.Sprintf(" across %d replicas", len(nodes))
	}
	return listenAndServe(*addr, banner, srv.mux(), backing, *drain)
}
