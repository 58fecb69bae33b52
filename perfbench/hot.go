package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"
)

// hot is the serve-hot workload: single POST /v1/predict requests over
// a Zipf-popular statement pool that fits in the plan cache, so every
// measured request is a cache hit. One-second windows cycle over an
// open loop at RateLo, an open loop at RateHi (Poisson arrivals), and a
// closed loop of nproc clients that measures capacity; interleaving
// them lets every kind sample the same stretch of host conditions.
type hot struct {
	b       *bench
	pool    *HotPool
	bodies  [][][]byte // [db][stmt] encoded /v1/predict bodies
	warm    *hotWindow
	windows []*hotWindow
	ref     [][]float64
	// warmGot holds the warm-up batch answers per database.
	warmGot [][]float64
	// cap is the closed loop's request stream, next its position, and
	// capGot the answers (0 where not sent or failed).
	next   atomic.Int64
	cap    []Arrival
	capGot []float64
}

// Window kinds, in cycle order.
const (
	hotLo = iota
	hotHi
	hotMax
	hotKinds
)

var hotKindNames = [hotKinds]string{"lo", "hi", "max"}

// hotWindow is one window of one kind. Open-loop windows hold their
// arrival schedule; closed-loop windows draw from h.cap.
type hotWindow struct {
	kind    int
	arr     []Arrival
	got     []float64
	samples []Sample
	sum     Phase
}

// hotWindowLen is the length of one window.
const hotWindowLen = time.Second

func newHot(b *bench) (*hot, error) {
	rng := rand.New(rand.NewSource(b.seed))
	pool, err := newHotPool(b.dbs, params.HotPoolPerDB, rng.Int63())
	if err != nil {
		return nil, err
	}
	h := &hot{b: b, pool: pool}
	for d, stmts := range pool.Stmts {
		h.bodies = append(h.bodies, nil)
		for _, sql := range stmts {
			raw, err := json.Marshal(predictReq{DB: b.dbs.Names[d], SQL: sql})
			if err != nil {
				return nil, err
			}
			h.bodies[d] = append(h.bodies[d], raw)
		}
	}
	open := func(kind int, rate float64, dur time.Duration) *hotWindow {
		arr := hotSchedule(pool, rate, dur, params.ZipfDB, params.ZipfStmt, rng.Int63())
		return &hotWindow{kind: kind, arr: arr, got: make([]float64, len(arr))}
	}
	h.warm = open(hotLo, params.RateLo, time.Duration(params.HotWarmup*float64(time.Second)))
	cycles := max(1, int(b.seconds/hotWindowLen)/hotKinds)
	for c := 0; c < cycles; c++ {
		h.windows = append(h.windows, open(hotLo, params.RateLo, hotWindowLen), open(hotHi, params.RateHi, hotWindowLen), &hotWindow{kind: hotMax})
	}
	// The closed loop's requests follow the same popularity; a schedule
	// far above any reachable rate is just a long enough sequence.
	h.cap = hotSchedule(pool, 20000, time.Duration(cycles)*hotWindowLen, params.ZipfDB, params.ZipfStmt, rng.Int63())
	h.next.Store(-1)
	return h, nil
}

func (h *hot) drive(srv *server, c *client) error {
	// Warm the plan caches and encoding memos: one batch per database
	// over its whole pool.
	for d, stmts := range h.pool.Stmts {
		h.b.attempted++
		body, err := json.Marshal(batchReq{DB: h.b.dbs.Names[d], SQL: stmts})
		if err != nil {
			return err
		}
		var resp batchResp
		if _, err := c.post("/v1/predict_batch", body, &resp); err != nil {
			h.b.fail("warm-up batch %s: %v", h.b.dbs.Names[d], err)
			h.warmGot = append(h.warmGot, nil)
			continue
		}
		if resp.Count != len(stmts) || resp.Errors != 0 || len(resp.Results) != len(stmts) {
			h.b.fail("warm-up batch %s: count %d errors %d for %d statements", h.b.dbs.Names[d], resp.Count, resp.Errors, len(stmts))
		}
		got := make([]float64, len(resp.Results))
		for i, r := range resp.Results {
			got[i] = r.RuntimeSec
		}
		h.warmGot = append(h.warmGot, got)
	}
	nproc := runtime.NumCPU()
	logf("serve-hot: %d windows of %v: %g rps, %g rps, %d closed-loop clients", len(h.windows), hotWindowLen, params.RateLo, params.RateHi, nproc)
	h.capGot = make([]float64, len(h.cap))
	for _, w := range append([]*hotWindow{h.warm}, h.windows...) {
		load := func() []Sample {
			if w.kind != hotMax {
				return openLoop(w.arr, nproc, func(i int) (bool, int) {
					a := w.arr[i]
					var resp predictResp
					n, err := c.post("/v1/predict", h.bodies[a.DB][a.Stmt], &resp)
					if err != nil {
						h.b.fail("%s window: %v", hotKindNames[w.kind], err)
						return false, n
					}
					w.got[i] = resp.RuntimeSec
					return true, n
				})
			}
			return closedLoop(nproc, hotWindowLen, func() (bool, int, bool) {
				i := int(h.next.Add(1))
				if i >= len(h.cap) {
					return false, 0, false
				}
				a := h.cap[i]
				var resp predictResp
				n, err := c.post("/v1/predict", h.bodies[a.DB][a.Stmt], &resp)
				if err != nil {
					h.b.fail("closed loop: %v", err)
					return false, n, true
				}
				h.capGot[i] = resp.RuntimeSec
				return true, n, true
			})
		}
		ss, cpu, steal, err := runWindow(srv, load)
		if err != nil {
			return err
		}
		w.samples = ss
		h.b.attempted += len(ss)
		w.sum = summarize(hotKindNames[w.kind], ss, hotWindowLen.Seconds(), params.LatencyLimitMs)
		w.sum.CPUSec, w.sum.Steal = cpu, steal
		h.b.rec.Windows = append(h.b.rec.Windows, w.sum)
	}
	for kind := 0; kind < hotKinds; kind++ {
		var pooled []Sample
		for _, w := range h.windows {
			if w.kind == kind {
				pooled = append(pooled, w.samples...)
			}
		}
		h.b.rec.Phases = append(h.b.rec.Phases, summarize(hotKindNames[kind], pooled, 0, params.LatencyLimitMs))
	}
	return nil
}

func (h *hot) check() {
	for d, stmts := range h.pool.Stmts {
		ref, err := h.b.refBatch(d, stmts)
		if err != nil {
			h.b.fail("%v", err)
			return
		}
		h.ref = append(h.ref, ref)
		if got := h.warmGot[d]; got != nil {
			for i := range got {
				if i < len(ref) && math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					h.b.fail("warm-up %s %q: served %v, reference %v", h.b.dbs.Names[d], stmts[i], got[i], ref[i])
				}
			}
		}
	}
	mismatch := func(a Arrival, got float64) {
		if want := h.ref[a.DB][a.Stmt]; math.Float64bits(got) != math.Float64bits(want) {
			h.b.fail("%q: served %v, reference %v", h.pool.Stmts[a.DB][a.Stmt], got, want)
		}
	}
	for _, w := range append([]*hotWindow{h.warm}, h.windows...) {
		for i, s := range w.samples {
			if w.kind != hotMax && s.OK {
				mismatch(w.arr[i], w.got[i])
			}
		}
	}
	for i, a := range h.cap {
		if h.capGot[i] != 0 {
			mismatch(a, h.capGot[i])
		}
	}
}

// kind returns the summaries of one kind's measured windows.
func (h *hot) kind(k int) []Phase {
	var out []Phase
	for _, w := range h.windows {
		if w.kind == k {
			out = append(out, w.sum)
		}
	}
	return out
}

// report sets the end-to-end metrics over each kind's clean windows:
// latency as the median of the windows' p50, rates pooled.
func (h *hot) report() {
	p50 := func(p Phase) float64 { return p.P50Ms }
	inLimit := func(p Phase) float64 { return float64(p.InLimit) }
	secs := func(p Phase) float64 { return p.Seconds }
	cpuUs := func(p Phase) float64 { return 1e6 * p.CPUSec }
	ok := func(p Phase) float64 { return float64(p.OK) }
	h.b.set("p50_ms.lo", "ms", windowMedian(h.kind(hotLo), p50))
	h.b.set("p50_ms.hi", "ms", windowMedian(h.kind(hotHi), p50))
	h.b.set("preds_per_s", "1/s", windowRatio(h.kind(hotMax), inLimit, secs))
	h.b.set("cpu_us_per_pred", "us", windowRatio(h.kind(hotMax), cpuUs, ok))
}
