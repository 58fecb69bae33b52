package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// HTTPBackend is a Backend over a remote `zsdb serve` process: the
// router-side client of the same JSON API the serve command exposes.
// Transport failures and 5xx replies wrap ErrBackendDown (the remote is
// unreachable or broken — fail over); 4xx replies reconstruct the
// request-level serving error kind the remote's handler mapped onto the
// status code, so `errors.Is(err, serving.ErrBadQuery)` works the same
// against a remote replica as an in-process one.
type HTTPBackend struct {
	name   string
	base   string
	client *http.Client
}

// DefaultHTTPTimeout bounds one backend call when the caller's context
// carries no deadline of its own.
const DefaultHTTPTimeout = 10 * time.Second

// NewHTTPBackend returns a Backend calling the `zsdb serve` API at
// baseURL (e.g. "http://host:8080"; a bare "host:8080" gets the scheme
// prefixed). name defaults to the baseURL. client may be nil for a
// default with DefaultHTTPTimeout.
func NewHTTPBackend(name, baseURL string, client *http.Client) (*HTTPBackend, error) {
	baseURL = strings.TrimRight(strings.TrimSpace(baseURL), "/")
	if baseURL == "" {
		return nil, fmt.Errorf("cluster: NewHTTPBackend needs a base URL")
	}
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	if name == "" {
		name = baseURL
	}
	if client == nil {
		client = &http.Client{Timeout: DefaultHTTPTimeout}
	}
	return &HTTPBackend{name: name, base: baseURL, client: client}, nil
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.name }

// CodeAdaptDisabled is the machine-readable code a serve node puts in
// its 404 error envelope when feedback arrives but online adaptation is
// off. The HTTP backend keys on the code, never on the human-readable
// message, to classify the condition as ErrNoFeedback — rewording the
// prose cannot silently change router behavior.
const CodeAdaptDisabled = "adapt_disabled"

// errorBody is the serve API's uniform JSON error envelope. Code is
// optional and machine-readable (see CodeAdaptDisabled).
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// do performs one JSON round trip. out may be nil for callers that only
// care about success.
func (b *HTTPBackend) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client.Do(req)
	if err != nil {
		// Connection refused, DNS failure, timeout: the replica is
		// unreachable. A caller-side cancellation stays a ctx error.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("%w: %s: %v", ErrBackendDown, b.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		msg := resp.Status
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); err == nil && eb.Error != "" {
			msg = eb.Error
		}
		return statusError(resp.StatusCode, b.name, msg, eb.Code)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%w: %s: bad response body: %v", ErrBackendDown, b.name, err)
	}
	return nil
}

// statusError rebuilds the error class the remote handler flattened
// into a status code (and optional machine-readable error code) — the
// inverse of the serve command's apiError.
func statusError(code int, name, msg, errCode string) error {
	switch code {
	case http.StatusNotFound:
		if errCode == CodeAdaptDisabled {
			return fmt.Errorf("%w: %s: %s", ErrNoFeedback, name, msg)
		}
		return fmt.Errorf("%s: %s: %w", name, msg, serving.ErrNotFound)
	case http.StatusBadRequest:
		return fmt.Errorf("%s: %s: %w", name, msg, serving.ErrBadQuery)
	case http.StatusRequestTimeout:
		return fmt.Errorf("%s: %s: %w", name, msg, context.DeadlineExceeded)
	default:
		// 5xx and everything unexpected: the replica is broken — this is
		// the failover class. 503 in particular is the remote draining.
		return fmt.Errorf("%w: %s: http %d: %s", ErrBackendDown, name, code, msg)
	}
}

// predictRequest mirrors the serve API's /v1/predict body.
type predictRequest struct {
	DB    string `json:"db,omitempty"`
	Model string `json:"model,omitempty"`
	SQL   string `json:"sql"`
}

// Predict implements Backend. serving.Prediction's JSON tags are the
// wire format, so the reply decodes straight into it.
func (b *HTTPBackend) Predict(ctx context.Context, db, model, sql string) (serving.Prediction, error) {
	var out serving.Prediction
	err := b.do(ctx, http.MethodPost, "/v1/predict", predictRequest{DB: db, Model: model, SQL: sql}, &out)
	return out, err
}

// predictBatchRequest mirrors /v1/predict_batch.
type predictBatchRequest struct {
	DB    string   `json:"db,omitempty"`
	Model string   `json:"model,omitempty"`
	SQL   []string `json:"sql"`
}

// predictBatchReply mirrors the /v1/predict_batch reply.
type predictBatchReply struct {
	DB      string `json:"db"`
	Model   string `json:"model"`
	Results []struct {
		RuntimeSec float64 `json:"runtime_sec"`
		Error      string  `json:"error"`
	} `json:"results"`
}

// PredictBatch implements Backend. Remote per-item errors arrive as
// strings; they are rewrapped as ErrBadQuery (the only per-item class
// the serve handler emits) so callers can still errors.Is them.
func (b *HTTPBackend) PredictBatch(ctx context.Context, db, model string, sqls []string) (serving.BatchResult, error) {
	var reply predictBatchReply
	if err := b.do(ctx, http.MethodPost, "/v1/predict_batch", predictBatchRequest{DB: db, Model: model, SQL: sqls}, &reply); err != nil {
		return serving.BatchResult{}, err
	}
	res := serving.BatchResult{
		Database: reply.DB,
		Model:    reply.Model,
		Items:    make([]serving.BatchItem, len(reply.Results)),
	}
	for i, r := range reply.Results {
		if r.Error != "" {
			res.Items[i].Err = fmt.Errorf("%s: %w", r.Error, serving.ErrBadQuery)
		} else {
			res.Items[i].RuntimeSec = r.RuntimeSec
		}
	}
	return res, nil
}

// whatIfRequest mirrors the serve API's /v1/whatif body: the sweep
// request plus the routing fields.
type whatIfRequest struct {
	DB            string   `json:"db,omitempty"`
	Model         string   `json:"model,omitempty"`
	SQL           []string `json:"sql"`
	Candidates    []string `json:"candidates,omitempty"`
	MaxCandidates int      `json:"max_candidates,omitempty"`
}

// WhatIf implements Backend. whatif.Report's JSON tags are the wire
// format, so the reply decodes straight into it.
func (b *HTTPBackend) WhatIf(ctx context.Context, db, model string, req whatif.Request) (*whatif.Report, error) {
	var out whatif.Report
	err := b.do(ctx, http.MethodPost, "/v1/whatif", whatIfRequest{
		DB:            db,
		Model:         model,
		SQL:           req.SQL,
		Candidates:    req.Candidates,
		MaxCandidates: req.MaxCandidates,
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// feedbackRequest mirrors /v1/feedback.
type feedbackRequest struct {
	DB               string  `json:"db,omitempty"`
	Fingerprint      string  `json:"fingerprint"`
	ActualRuntimeSec float64 `json:"actual_runtime_sec"`
}

// Feedback implements Backend. A remote without -adapt 404s with the
// CodeAdaptDisabled error code, which statusError has already turned
// into ErrNoFeedback; a fingerprint join miss 404s plain and surfaces
// as serving.ErrNotFound, so the router walks the ring to the replica
// that retained the plan — the same failover the in-process backend
// performs.
func (b *HTTPBackend) Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error {
	return b.do(ctx, http.MethodPost, "/v1/feedback", feedbackRequest{DB: db, Fingerprint: fingerprint, ActualRuntimeSec: actualSec}, nil)
}

// databasesReply mirrors /v1/databases.
type databasesReply struct {
	Databases []serving.DatabaseInfo `json:"databases"`
}

// Databases implements Backend.
func (b *HTTPBackend) Databases(ctx context.Context) ([]serving.DatabaseInfo, error) {
	var reply databasesReply
	if err := b.do(ctx, http.MethodGet, "/v1/databases", nil, &reply); err != nil {
		return nil, err
	}
	return reply.Databases, nil
}

// Stats implements Backend. The reply may carry extra fields (the
// adaptation block); decoding into serving.Stats ignores them.
func (b *HTTPBackend) Stats(ctx context.Context) (serving.Stats, error) {
	var out serving.Stats
	err := b.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Health implements Backend via GET /healthz.
func (b *HTTPBackend) Health(ctx context.Context) error {
	return b.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Close implements Backend: the remote process is not ours to stop —
// only idle connections are released.
func (b *HTTPBackend) Close() error {
	b.client.CloseIdleConnections()
	return nil
}
