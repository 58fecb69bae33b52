package main

import (
	"context"
	"net/http"
	"sync"

	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
)

// The read endpoints of a router front end (zsdb serve -replicas N,
// zsdb route) aggregate across replicas instead of reporting one
// session, and /v1/cluster adds the ring and per-replica health view an
// operator watches during an outage. A serve node keeps its
// single-session bodies: cluster.HTTPBackend, perfbench and the doctor
// analyzers parse them.

func (s *server) routerHealthz(w http.ResponseWriter, r *http.Request) {
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
	status := http.StatusOK
	if up == 0 {
		status = http.StatusServiceUnavailable
		body["status"] = "unavailable"
	}
	writeJSONStatus(w, status, body)
}

func (s *server) routerModels(w http.ResponseWriter, r *http.Request) {
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
		apiError(w, nameErr)
		return
	}
	if dbErr != nil {
		apiError(w, dbErr)
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

func (s *server) routerDatabases(w http.ResponseWriter, r *http.Request) {
	dbs, err := s.router.Databases(r.Context())
	if err != nil {
		apiError(w, err)
		return
	}
	writeJSON(w, map[string]any{"databases": dbs})
}

func (s *server) routerStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.router.Stats(r.Context())
	if err != nil {
		apiError(w, err)
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

func (s *server) routerCluster(w http.ResponseWriter, r *http.Request) {
	view := clusterView{
		Replicas: s.router.Replicas(),
		Healthy:  s.router.Healthy(),
		Owners:   map[string]string{},
		Routes:   map[string][]string{},
	}
	dbs, err := s.router.Databases(r.Context())
	if err != nil {
		apiError(w, err)
		return
	}
	for _, d := range dbs {
		view.Owners[d.Name] = d.Owner
		view.Routes[d.Name] = s.router.Route(d.Name)
	}
	writeJSON(w, view)
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
