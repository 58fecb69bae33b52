package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// cold is the serve-cold workload: a closed loop of 256-statement POST
// /v1/predict_batch requests whose statements were never sent before in
// the run, rotating over the databases, with more distinct statements
// than the plan caches hold.
type cold struct {
	b      *bench
	stream *coldStream
	// batches are the batches drawn from stream so far, bodies their
	// request bodies and got their answers; they grow only between
	// windows.
	batches []*ColdBatch
	bodies  [][]byte
	got     [][]float64
	next    atomic.Int64
	// rate is the fastest per-client send rate seen so far, in batches
	// per second.
	rate float64
	// windows alternate one client (lo) and nproc clients (hi).
	windows []*coldWindow
}

// coldWindow is one closed-loop window.
type coldWindow struct {
	hi      bool
	clients int
	dur     time.Duration
	samples []Sample
	// span is the time from the window's start to its last answer.
	span time.Duration
	sum  Phase
}

// Window lengths: one lo and one hi window make one cycle.
const (
	coldWindowLo = time.Second
	coldWindowHi = 1500 * time.Millisecond
)

// coldWarmup is the number of unmeasured batches sent first.
const coldWarmup = 3

func newCold(b *bench) (*cold, error) {
	rng := rand.New(rand.NewSource(b.seed))
	c := &cold{b: b, stream: newColdStream(b.dbs, params.ColdBatch, rng.Int63())}
	c.next.Store(-1)
	return c, c.extend(coldWarmup)
}

// extend draws batches from the stream until n are drawn.
func (c *cold) extend(n int) error {
	for len(c.batches) < n {
		bt, err := c.stream.next()
		if err != nil {
			return err
		}
		raw, err := json.Marshal(batchReq{DB: c.b.dbs.Names[bt.DB], SQL: bt.SQL})
		if err != nil {
			return err
		}
		c.batches = append(c.batches, bt)
		c.bodies = append(c.bodies, raw)
		c.got = append(c.got, nil)
	}
	return nil
}

// topUp draws, before a window, enough batches for params.ColdMargin
// times what its clients would send at the fastest per-client rate
// seen so far. Drawing happens outside the timed windows, and the pool
// tracks the program's speed, so a faster program does not run out.
func (c *cold) topUp(w *coldWindow) error {
	sent := int(c.next.Load()) + 1
	need := params.ColdMargin * c.rate * float64(w.clients) * w.dur.Seconds()
	return c.extend(sent + w.clients + int(math.Ceil(need)))
}

// send posts the next unsent batch; more is false once they run out.
func (c *cold) send(cl *client) (ok bool, n int, more bool) {
	i := int(c.next.Add(1))
	if i >= len(c.batches) {
		return false, 0, false
	}
	bt := c.batches[i]
	var resp batchResp
	n, err := cl.post("/v1/predict_batch", c.bodies[i], &resp)
	if err != nil {
		c.b.fail("batch %d: %v", i, err)
		return false, n, true
	}
	if resp.Count != len(bt.SQL) || resp.Errors != 0 || len(resp.Results) != len(bt.SQL) {
		c.b.fail("batch %d: count %d errors %d for %d statements", i, resp.Count, resp.Errors, len(bt.SQL))
		return false, n, true
	}
	got := make([]float64, len(resp.Results))
	for j, r := range resp.Results {
		got[j] = r.RuntimeSec
	}
	c.got[i] = got
	return true, n, true
}

func (c *cold) drive(srv *server, cl *client) error {
	for i := 0; i < coldWarmup; i++ {
		c.b.attempted++
		d := timeIt(func() { c.send(cl) })
		c.rate = max(c.rate, 1/d.Seconds())
	}
	nproc := runtime.NumCPU()
	cycles := max(1, int(c.b.seconds/(coldWindowLo+coldWindowHi)))
	logf("serve-cold: %d cycles of 1 client for %v, %d clients for %v", cycles, coldWindowLo, nproc, coldWindowHi)
	for k := 0; k < cycles; k++ {
		for _, w := range []*coldWindow{{clients: 1, dur: coldWindowLo}, {hi: true, clients: nproc, dur: coldWindowHi}} {
			if err := c.topUp(w); err != nil {
				return err
			}
			ss, cpu, steal, err := runWindow(srv, func() []Sample {
				return closedLoop(w.clients, w.dur, func() (bool, int, bool) { return c.send(cl) })
			})
			if err != nil {
				return err
			}
			w.samples = ss
			for _, s := range w.samples {
				w.span = max(w.span, s.Done)
			}
			if int(c.next.Load()) >= len(c.batches) {
				// Only a several-fold speed-up within one run gets
				// here; the window's figures would be cut short.
				c.b.fail("serve-cold: window %d ran out of statements after %d batches", len(c.windows), len(w.samples))
				c.next.Store(int64(len(c.batches) - 1))
			}
			if len(w.samples) > 0 {
				c.rate = max(c.rate, float64(len(w.samples))/w.span.Seconds()/float64(w.clients))
			}
			w.sum = summarize("lo", w.samples, w.span.Seconds(), 0)
			if w.hi {
				w.sum.Name = "hi"
			}
			w.sum.Clients, w.sum.CPUSec, w.sum.Steal = w.clients, cpu, steal
			c.b.rec.Windows = append(c.b.rec.Windows, w.sum)
			c.windows = append(c.windows, w)
		}
	}
	c.b.rec.Extra["cold_batches_drawn"] = len(c.batches)
	for _, hi := range []bool{false, true} {
		p := c.pool(hi)
		c.b.attempted += p.Sent
		c.b.rec.Phases = append(c.b.rec.Phases, p)
	}
	return nil
}

// pool summarizes every lo or every hi window; its Seconds is the
// summed wall span of those windows.
func (c *cold) pool(hi bool) Phase {
	var ss []Sample
	var span time.Duration
	clients := 0
	for _, w := range c.windows {
		if w.hi == hi {
			ss = append(ss, w.samples...)
			span += w.span
			clients = w.clients
		}
	}
	p := summarize("lo", ss, span.Seconds(), 0)
	if hi {
		p.Name = "hi"
	}
	p.Clients = clients
	return p
}

// check recomputes every answered batch in-process and compares bitwise.
func (c *cold) check() {
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(-1)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(c.batches) {
					return
				}
				got := c.got[i]
				if got == nil {
					continue
				}
				bt := c.batches[i]
				ref, err := c.b.refBatch(bt.DB, bt.SQL)
				if err != nil {
					c.b.fail("%v", err)
				} else {
					for j := range ref {
						if math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
							c.b.fail("batch %d %q: served %v, reference %v", i, bt.SQL[j], got[j], ref[j])
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// kind returns the summaries of the lo or the hi windows.
func (c *cold) kind(hi bool) []Phase {
	var out []Phase
	for _, w := range c.windows {
		if w.hi == hi {
			out = append(out, w.sum)
		}
	}
	return out
}

// report sets the end-to-end metrics over the clean windows, like
// serve-hot.
func (c *cold) report() {
	p50 := func(p Phase) float64 { return p.P50Ms }
	stmts := func(p Phase) float64 { return float64(p.OK * params.ColdBatch) }
	secs := func(p Phase) float64 { return p.Seconds }
	cpuUs := func(p Phase) float64 { return 1e6 * p.CPUSec }
	c.b.set("p50_ms.lo", "ms", windowMedian(c.kind(false), p50))
	c.b.set("p50_ms.hi", "ms", windowMedian(c.kind(true), p50))
	c.b.set("preds_per_s", "1/s", windowRatio(c.kind(true), stmts, secs))
	c.b.set("cpu_us_per_pred", "us", windowRatio(c.kind(true), cpuUs, stmts))
}
