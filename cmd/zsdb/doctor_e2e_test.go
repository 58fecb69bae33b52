package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/obs/doctor"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// doctorFixture is a 3-replica in-process cluster behind its HTTP front
// end with tracing and the event log wired — the full surface zsdb
// doctor collects from, minus a network.
type doctorFixture struct {
	srv      *httptest.Server
	router   *cluster.Router
	sessions []*serving.Session
}

func newDoctorFixture(t *testing.T) doctorFixture {
	t.Helper()
	f := sharedServeFixture(t)
	tracer := obs.NewTracer(obs.TraceConfig{SampleEvery: 1, SlowThreshold: time.Second})
	events := obs.NewLog(0)
	router := cluster.NewRouter(cluster.Config{Tracer: tracer, Events: events})
	t.Cleanup(func() { router.Close() })
	var sessions []*serving.Session
	for i := 0; i < 3; i++ {
		sess, err := assembleSession(serving.Config{Tracer: tracer},
			[]string{"imdb", "ssb"}, []*storage.Database{f.imdb, f.ssb}, f.models)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
		b, err := cluster.NewInProcess(fmt.Sprintf("r%d", i), sess, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	srv := newRouterServer(router, nil)
	srv.tracer, srv.events = tracer, events
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return doctorFixture{srv: ts, router: router, sessions: sessions}
}

// collect runs the same collection path the CLI runs, against the
// fixture's front end.
func (f doctorFixture) collect(t *testing.T) *doctor.Bundle {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b, err := doctor.Collect(ctx, f.srv.Client(), []doctor.Target{{Name: "cluster", BaseURL: f.srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDoctorEndToEndHealthyCluster drives traffic through a healthy
// 3-replica cluster over HTTP, collects a support bundle exactly as the
// CLI does, and expects an all-pass verdict — and the same verdict from
// the archived bundle analyzed offline.
func TestDoctorEndToEndHealthyCluster(t *testing.T) {
	f := newDoctorFixture(t)
	for _, q := range fixedWorkload {
		resp, body := postJSON(t, f.srv.URL+"/v1/predict",
			predictRequest{DB: q.db, Model: costmodel.NameZeroShot, SQL: q.sql})
		if resp.StatusCode != 200 {
			t.Fatalf("predict %s on %s: %d (%v)", q.sql, q.db, resp.StatusCode, body)
		}
	}
	b := f.collect(t)
	cap := b.Capture("cluster")
	if cap == nil {
		t.Fatal("no capture for the cluster target")
	}
	for _, doc := range []string{"stats", "cluster", "traces", "events"} {
		if d := cap.Doc(doc); d == nil || !d.OK() {
			t.Fatalf("doc %s not collected cleanly: %+v", doc, d)
		}
	}
	findings := doctor.AnalyzeAll(b, doctor.DefaultLimits())
	if v := doctor.Verdict(findings); v != doctor.Pass {
		t.Fatalf("healthy cluster verdict = %s, want pass\n%s", v, doctor.RenderTable(findings))
	}

	// The saved archive must reproduce the diagnosis byte for byte.
	var buf bytes.Buffer
	if err := doctor.WriteArchive(&buf, b); err != nil {
		t.Fatal(err)
	}
	b2, err := doctor.ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	offline := doctor.AnalyzeAll(b2, doctor.DefaultLimits())
	if doctor.RenderTable(offline) != doctor.RenderTable(findings) {
		t.Fatalf("offline analysis diverges from live:\nlive:\n%s\noffline:\n%s",
			doctor.RenderTable(findings), doctor.RenderTable(offline))
	}
}

// TestDoctorEndToEndCrashedReplica closes one replica's session, forces
// a probe round, and expects the collected bundle to fail diagnosis
// with a replica-health finding naming the dead replica.
func TestDoctorEndToEndCrashedReplica(t *testing.T) {
	f := newDoctorFixture(t)
	f.sessions[1].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	f.router.CheckHealth(ctx)
	cancel()

	b := f.collect(t)
	findings := doctor.AnalyzeAll(b, doctor.DefaultLimits())
	if v := doctor.Verdict(findings); v != doctor.Fail {
		t.Fatalf("crashed-replica verdict = %s, want fail\n%s", v, doctor.RenderTable(findings))
	}
	found := false
	for _, fd := range findings {
		if fd.Check == "replica-health" && fd.Status == doctor.Fail && strings.Contains(fd.Detail, "r1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no replica-health fail naming r1:\n%s", doctor.RenderTable(findings))
	}
}
