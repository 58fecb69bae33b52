package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/sqlparse"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
	"github.com/zeroshot-db/zeroshot/internal/zeroshot"
)

// single is one replayed single-prediction request.
type single struct {
	db  int
	sql string
}

// replayInputs is one workload's inputs as the in-process replay uses
// them.
type replayInputs struct {
	// singles are replayed through Session.Predict, in order.
	singles []single
	// warm statements are predicted once before the singles, as the
	// workload's warm-up does on the server.
	warm []*ColdBatch
	// batches are replayed through Session.PredictBatch and through the
	// staged decomposition of the same call.
	batches []*ColdBatch
	// client are the workload's HTTP samples for the single requests
	// (serve-hot) or batch requests (serve-cold) of the measured phases.
	client []Sample
	// batchClient reports whether client holds batch requests.
	batchClient bool
}

func (h *hot) replay(st serverStats) error {
	in := replayInputs{}
	for _, w := range h.windows {
		if w.kind == hotMax {
			continue // the singles are the open-loop streams
		}
		for _, a := range w.arr {
			in.singles = append(in.singles, single{a.DB, h.pool.Stmts[a.DB][a.Stmt]})
		}
		in.client = append(in.client, w.samples...)
	}
	if len(in.singles) > 4000 {
		in.singles = in.singles[:4000]
	}
	for d, stmts := range h.pool.Stmts {
		in.warm = append(in.warm, &ColdBatch{DB: d, SQL: stmts})
	}
	in.batches = in.warm
	return h.b.replay(in, st)
}

func (c *cold) replay(st serverStats) error {
	const replayBatches = 24
	if err := c.extend(replayBatches + 8); err != nil {
		return err
	}
	in := replayInputs{batches: c.batches[:replayBatches], batchClient: true}
	for _, bt := range c.batches[replayBatches : replayBatches+8] {
		for _, sql := range bt.SQL {
			in.singles = append(in.singles, single{bt.DB, sql})
		}
	}
	for _, w := range c.windows {
		in.client = append(in.client, w.samples...)
	}
	return c.b.replay(in, st)
}

// replayer holds the in-process state of one replay.
type replayer struct {
	b    *bench
	est  *costmodel.ZeroShot
	opts []*optimizer.Optimizer
	encs []*encoding.PlanEncoder
	tr   *tracer
	ctx  context.Context
}

func (r *replayer) set(name, unit string, v float64) { r.b.set(name, unit, finite(v)) }

// session returns a fresh session over the benchmark's databases with
// the replay's estimator, warmed with warm.
func (r *replayer) session(warm []*ColdBatch) (*serving.Session, error) {
	sess := serving.NewSession(serving.Config{})
	if err := sess.AttachModel(r.est); err != nil {
		return nil, err
	}
	for i, name := range r.b.dbs.Names {
		if err := sess.AttachDatabase(name, r.b.dbs.DBs[i]); err != nil {
			return nil, err
		}
	}
	for _, bt := range warm {
		if _, err := sess.PredictBatch(r.ctx, r.b.dbs.Names[bt.DB], "", bt.SQL); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// replay runs the traced in-process replay of a workload's inputs and
// sets every per-layer metric.
func (b *bench) replay(in replayInputs, st serverStats) error {
	r := &replayer{b: b, tr: newTracer(true), ctx: context.Background()}
	f, err := openModel(b.model)
	if err != nil {
		return err
	}
	est, ok := f.(*costmodel.ZeroShot)
	if !ok {
		return fmt.Errorf("model is %s, not zeroshot", f.Name())
	}
	r.est = est
	if err := r.setupLayers(); err != nil {
		return err
	}
	for _, db := range b.dbs.DBs {
		st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
		r.opts = append(r.opts, optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams()))
		r.encs = append(r.encs, encoding.NewPlanEncoder(db.Schema, est.Card()))
	}
	if err := r.batches(in); err != nil {
		return err
	}
	predictP50, fpP50, err := r.singles(in)
	if err != nil {
		return err
	}
	fusedB1, err := r.probes(in)
	if err != nil {
		return err
	}
	r.set("serving.sched_overhead_us.p50", "us", predictP50-fpP50-fusedB1)
	if err := r.training(); err != nil {
		return err
	}
	r.serverCounters(in, st, predictP50)

	sums := summarizeSpans(r.tr.spans)
	b.rec.Layers = sums
	b.set("trace.spans", "count", float64(len(r.tr.spans)))
	var rootTotal, unattributed float64
	for _, s := range r.tr.spans {
		if s.Parent < 0 {
			rootTotal += float64(s.End-s.Start) / 1e6
		}
	}
	for _, s := range sums {
		if s.Name == "unattributed" {
			unattributed = s.SelfMs
		}
	}
	r.set("trace.unattributed_share", "ratio", unattributed/rootTotal)
	logf("per-layer self time (ms) over %d spans:", len(r.tr.spans))
	for _, s := range sums {
		logf("  %-36s count %7d  total %10.2f  self %10.2f", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
	return writeSpans(filepath.Join(b.z.dir, "spans.jsonl"), r.tr.spans)
}

// timeIt runs fn and returns its wall time.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// setupLayers times what zsdb serve does at start-up per database:
// generate it and collect its statistics.
func (r *replayer) setupLayers() error {
	r.tr.request(-1)
	root := r.tr.begin("setup")
	defer r.tr.end(root)
	var build, collectMs []float64
	for rep := 0; rep < 3; rep++ {
		var b, c time.Duration
		for _, kind := range r.b.dbs.Names {
			sp := r.tr.begin("datagen.build")
			var db *storage.Database
			var err error
			b += timeIt(func() { db, err = buildDatabase(kind, params.DBScale) })
			r.tr.end(sp)
			if err != nil {
				return err
			}
			sp = r.tr.begin("stats.collect")
			c += timeIt(func() { stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs) })
			r.tr.end(sp)
		}
		n := float64(len(r.b.dbs.Names))
		build = append(build, ms(b)/n)
		collectMs = append(collectMs, ms(c)/n)
	}
	r.set("datagen.build_ms", "ms", median(build))
	r.set("stats.collect_ms", "ms", median(collectMs))
	return nil
}

// stagedBatch prices one batch through the public calls Session.
// PredictBatch makes on a plan-cache miss — fingerprint, parse, plan
// per statement, then one costmodel batch — under spans when the tracer
// is on. A statement repeated within the batch reuses its first
// occurrence's input, as the session's plan cache hands it the same
// plan and memo. It also returns the inputs ZeroShot.PredictBatch got.
func (r *replayer) stagedBatch(bt *ColdBatch, req int) ([]float64, []costmodel.PlanInput, error) {
	t := r.tr
	t.request(req)
	root := t.begin("serving.predict_batch")
	db := r.b.dbs.DBs[bt.DB]
	ins := make([]costmodel.PlanInput, 0, len(bt.SQL))
	first := make(map[string]int, len(bt.SQL))
	for _, sql := range bt.SQL {
		sp := t.begin("costmodel.fingerprint")
		fp := costmodel.Fingerprint(sql)
		t.end(sp)
		if k, ok := first[fp]; ok {
			ins = append(ins, ins[k])
			continue
		}
		first[fp] = len(ins)
		sp = t.begin("sqlparse.parse")
		q, err := sqlparse.Parse(sql, db.Schema)
		t.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = t.begin("optimizer.plan")
		p, err := r.opts[bt.DB].Plan(q)
		t.end(sp)
		if err != nil {
			return nil, nil, err
		}
		ins = append(ins, costmodel.PlanInput{DB: db, Query: q, Plan: p,
			OptimizerCost: optimizer.TotalCost(p), Enc: costmodel.NewEncodedPlan()})
	}
	sp := t.begin("costmodel.predict_batch")
	preds, err := r.est.PredictBatch(r.ctx, ins)
	t.end(sp)
	t.end(root)
	return preds, ins, err
}

// batches replays every batch three ways, interleaved per batch:
// Session.PredictBatch on a fresh session (the reference timing), the
// staged decomposition traced, and the staged decomposition untraced.
// The staged spans must account for the Session time; traced minus
// untraced is the tracing overhead.
func (r *replayer) batches(in replayInputs) error {
	sess, err := r.session(nil)
	if err != nil {
		return err
	}
	defer sess.Close()
	off := newTracer(false)
	var sessT, stagedT, plainT time.Duration
	var sessMs []float64
	var items, shapes int
	var ms0, ms1 runtime.MemStats
	var allocs uint64
	for i, bt := range in.batches {
		runtime.ReadMemStats(&ms0)
		var res serving.BatchResult
		d := timeIt(func() { res, err = sess.PredictBatch(r.ctx, r.b.dbs.Names[bt.DB], "", bt.SQL) })
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		allocs += ms1.Mallocs - ms0.Mallocs
		sessT += d
		sessMs = append(sessMs, ms(d))
		items += len(bt.SQL)
		var preds []float64
		var ins []costmodel.PlanInput
		stagedT += timeIt(func() { preds, ins, err = r.stagedBatch(bt, i) })
		if err != nil {
			return err
		}
		// ZeroShot.PredictBatch encodes one graph per distinct (encoder,
		// plan) among its unmemoized inputs; a batch is one database,
		// so one encoder.
		plans := map[*plan.Node]bool{}
		for _, pi := range ins {
			plans[pi.Plan] = true
		}
		shapes += len(plans)
		for j, it := range res.Items {
			if it.Err != nil || math.Float64bits(it.RuntimeSec) != math.Float64bits(preds[j]) {
				r.b.fail("staged replay of batch %d item %d disagrees with Session.PredictBatch", i, j)
				break
			}
		}
		saved := r.tr
		r.tr = off
		plainT += timeIt(func() { _, _, err = r.stagedBatch(bt, i) })
		r.tr = saved
		if err != nil {
			return err
		}
	}
	r.set("serving.predict_batch_ms.p50", "ms", median(sessMs))
	r.set("costmodel.encode_dedup_ratio", "ratio", float64(shapes)/float64(items))
	r.set("runtime.allocs_per_item", "count", float64(allocs)/float64(items))
	r.set("trace.stage_coverage", "ratio", float64(stagedT)/float64(sessT))
	r.set("trace.overhead_pct", "%", 100*(float64(stagedT)-float64(plainT))/float64(plainT))
	return nil
}

// singles replays the single requests through Session.Predict: an
// untraced pass for timings and allocations, a fingerprint pass, a
// traced pass on a second session, and the router hop over that one.
func (r *replayer) singles(in replayInputs) (predictP50, fpP50 float64, err error) {
	sess, err := r.session(in.warm)
	if err != nil {
		return 0, 0, err
	}
	defer sess.Close()
	pred := make([]float64, len(in.singles))
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i, s := range in.singles {
		start := time.Now()
		_, err = sess.Predict(r.ctx, r.b.dbs.Names[s.db], "", s.sql)
		pred[i] = us(time.Since(start))
		if err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(in.singles))
	r.set("runtime.allocs_per_req", "count", float64(ms1.Mallocs-ms0.Mallocs)/n)
	r.set("runtime.bytes_per_req", "bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n)
	r.set("runtime.gc_cycles_per_1k", "count", 1000*float64(ms1.NumGC-ms0.NumGC)/n)
	predictP50 = median(pred)
	r.set("serving.predict_us.p50", "us", predictP50)
	r.set("serving.predict_us.p99", "us", quantile(pred, 0.99))

	fp := make([]float64, len(in.singles))
	for i, s := range in.singles {
		fp[i] = us(timeIt(func() { costmodel.Fingerprint(s.sql) }))
	}
	fpP50 = median(fp)
	r.set("costmodel.fingerprint_us.p50", "us", fpP50)

	traced, err := r.session(in.warm)
	if err != nil {
		return 0, 0, err
	}
	for i, s := range in.singles {
		r.tr.request(1_000_000 + i)
		root := r.tr.begin("zsdb.request")
		sp := r.tr.begin("costmodel.fingerprint")
		costmodel.Fingerprint(s.sql)
		r.tr.end(sp)
		sp = r.tr.begin("serving.predict")
		_, err = traced.Predict(r.ctx, r.b.dbs.Names[s.db], "", s.sql)
		r.tr.end(sp)
		r.tr.end(root)
		if err != nil {
			return 0, 0, err
		}
	}

	// Router hop: the same (now cached) statements through a Router over
	// one in-process backend, alternating with the bare session.
	router := cluster.NewRouter(cluster.Config{})
	defer router.Close()
	backend, err := cluster.NewInProcess("r0", traced, nil)
	if err != nil {
		return 0, 0, err
	}
	if err := router.Register(backend); err != nil {
		return 0, 0, err
	}
	var viaRouter, direct []float64
	for _, s := range in.singles[:min(len(in.singles), 2000)] {
		name := r.b.dbs.Names[s.db]
		var e1, e2 error
		direct = append(direct, us(timeIt(func() { _, e1 = traced.Predict(r.ctx, name, "", s.sql) })))
		viaRouter = append(viaRouter, us(timeIt(func() { _, e2 = router.Predict(r.ctx, name, "", s.sql) })))
		if e1 != nil || e2 != nil {
			return 0, 0, fmt.Errorf("router hop: %v %v", e1, e2)
		}
	}
	r.set("cluster.router_hop_us.p50", "us", median(viaRouter)-median(direct))
	return predictP50, fpP50, nil
}

// matmulShapes lists the fused pass's matrix products over a packed
// batch, taking the weights from Model.Params in their stable order: per
// node type two encoder layers, then two combine layers per level, then
// the two readout layers. First-layer encoder inputs are the batch's
// real feature slabs (sparse one-hot rows, which MatMulInto's zero skip
// exploits); hidden activations are dense.
func matmulShapes(m *zeroshot.Model, bg *encoding.BatchGraph) []mm {
	ps := m.Params()
	w := func(i int) *nn.Tensor { return ps[i].Val }
	var out []mm
	for t := 0; t < encoding.NumNodeTypes; t++ {
		if n := bg.TypeCount[t]; n > 0 {
			feats := nn.Wrap(n, encoding.FeatDim(encoding.NodeType(t)), bg.Feats[t])
			out = append(out, mm{n, w(4 * t), feats}, mm{n, w(4*t + 2), nil})
		}
	}
	base := 4 * encoding.NumNodeTypes
	if !m.Config().FlatSum {
		for lvl := 1; lvl <= bg.NumLevels(); lvl++ {
			n := len(bg.Level(lvl))
			out = append(out, mm{n, w(base), nil}, mm{n, w(base + 2), nil})
		}
	}
	return append(out, mm{bg.NumGraphs, w(base + 4), nil}, mm{bg.NumGraphs, w(base + 6), nil})
}

// mm is one product of an m-row activation with a weight matrix; a is
// the activation, or nil for a dense one.
type mm struct {
	m int
	w *nn.Tensor
	a *nn.Tensor
}

// timeMatmuls times nn.MatMulInto over shapes (median of reps) and
// returns the time, the dense flop count (2mkn per product) and the
// bytes the operands and results occupy, computed from tensor sizes
// rather than measured memory traffic.
func timeMatmuls(shapes []mm, reps int) (time.Duration, float64, float64) {
	type op struct{ a, dst *nn.Tensor }
	ops := make([]op, len(shapes))
	flops, bytes := 0.0, 0.0
	for i, s := range shapes {
		a := s.a
		if a == nil {
			a = nn.NewTensor(s.m, s.w.Rows)
			for j := range a.Data {
				a.Data[j] = 0.5
			}
		}
		ops[i] = op{a, nn.NewTensor(s.m, s.w.Cols)}
		k, n := float64(s.w.Rows), float64(s.w.Cols)
		flops += 2 * float64(s.m) * k * n
		bytes += 8 * (float64(s.m)*k + k*n + float64(s.m)*n)
	}
	var ts []float64
	for rep := 0; rep < reps; rep++ {
		ts = append(ts, float64(timeIt(func() {
			for i, s := range shapes {
				nn.MatMulInto(ops[i].dst, ops[i].a, s.w)
			}
		})))
	}
	return time.Duration(median(ts)), flops, bytes
}

// probes times each inference layer on its own over the workload's
// batch statements: parse, plan, encode, pack and the fused pass at
// batch 1 and batch 256, the tape forward, the matmuls at the fused
// shapes, and the costmodel batch on cold and memoized inputs. It
// returns the fused per-item time at batch 1.
func (r *replayer) probes(in replayInputs) (float64, error) {
	t := r.tr
	t.request(-2)
	root := t.begin("probes")
	defer t.end(root)
	var parse, plan, encode, nodes []float64
	var graphs []*encoding.Graph
	var ins []costmodel.PlanInput
	for _, bt := range in.batches {
		db := r.b.dbs.DBs[bt.DB]
		for _, sql := range bt.SQL {
			sp := t.begin("sqlparse.parse")
			start := time.Now()
			q, err := sqlparse.Parse(sql, db.Schema)
			parse = append(parse, us(time.Since(start)))
			t.end(sp)
			if err != nil {
				return 0, err
			}
			sp = t.begin("optimizer.plan")
			start = time.Now()
			p, err := r.opts[bt.DB].Plan(q)
			plan = append(plan, us(time.Since(start)))
			t.end(sp)
			if err != nil {
				return 0, err
			}
			sp = t.begin("encoding.encode")
			start = time.Now()
			g, err := r.encs[bt.DB].Encode(p)
			encode = append(encode, us(time.Since(start)))
			t.end(sp)
			if err != nil {
				return 0, err
			}
			nodes = append(nodes, float64(len(g.Nodes)))
			graphs = append(graphs, g)
			ins = append(ins, costmodel.PlanInput{DB: db, Query: q, Plan: p, OptimizerCost: optimizer.TotalCost(p)})
		}
	}
	const big = 256
	if len(graphs) < big {
		return 0, fmt.Errorf("probes need %d statements, have %d", big, len(graphs))
	}
	r.set("sqlparse.parse_us.p50", "us", median(parse))
	r.set("optimizer.plan_us.p50", "us", median(plan))
	r.set("encoding.encode_us.p50", "us", median(encode))
	r.set("encoding.nodes_per_plan", "count", median(nodes))

	model := r.est.Model()
	var pack1, fused1, tape, mm1, flops1, bytes1 []float64
	for _, g := range graphs[:big] {
		one := []*encoding.Graph{g}
		sp := t.begin("encoding.pack")
		pack1 = append(pack1, us(timeIt(func() { encoding.Pack(one) })))
		t.end(sp)
		sp = t.begin("zeroshot.fused")
		fused1 = append(fused1, us(timeIt(func() { model.PredictBatch(one) })))
		t.end(sp)
		sp = t.begin("zeroshot.tape_forward")
		tape = append(tape, us(timeIt(func() { model.Predict(g) })))
		t.end(sp)
		sp = t.begin("nn.matmul")
		d, fl, by := timeMatmuls(matmulShapes(model, encoding.Pack(one)), 3)
		t.end(sp)
		mm1, flops1, bytes1 = append(mm1, us(d)), append(flops1, fl), append(bytes1, by)
	}
	fusedB1 := median(fused1)
	r.set("encoding.pack_us_per_item.b1", "us", median(pack1))
	r.set("zeroshot.fused_us_per_item.b1", "us", fusedB1)
	r.set("zeroshot.tape_forward_us", "us", median(tape))
	r.set("nn.matmul_us.b1", "us", median(mm1))
	r.set("nn.matmul_gflops.b1", "GFLOP/s", median(flops1)/median(mm1)/1e3)
	r.set("nn.matmul_bytes.b1", "bytes", median(bytes1))

	gs := graphs[:big]
	var packN, fusedN []float64
	for rep := 0; rep < 5; rep++ {
		sp := t.begin("encoding.pack")
		packN = append(packN, us(timeIt(func() { encoding.Pack(gs) }))/big)
		t.end(sp)
		sp = t.begin("zeroshot.fused")
		fusedN = append(fusedN, us(timeIt(func() { model.PredictBatch(gs) }))/big)
		t.end(sp)
	}
	r.set("encoding.pack_us_per_item.b256", "us", median(packN))
	r.set("zeroshot.fused_us_per_item.b256", "us", median(fusedN))
	sp := t.begin("nn.matmul")
	d, fl, by := timeMatmuls(matmulShapes(model, encoding.Pack(gs)), 5)
	t.end(sp)
	r.set("nn.matmul_us.b256", "us", us(d))
	r.set("nn.matmul_gflops.b256", "GFLOP/s", fl/us(d)/1e3)
	r.set("nn.matmul_bytes.b256", "bytes", by)

	var coldUs, warmUs []float64
	batch := ins[:big]
	for rep := 0; rep < 3; rep++ {
		for i := range batch {
			batch[i].Enc = costmodel.NewEncodedPlan()
		}
		for pass := 0; pass < 2; pass++ {
			sp := t.begin("costmodel.predict_batch")
			var err error
			d := timeIt(func() { _, err = r.est.PredictBatch(r.ctx, batch) })
			t.end(sp)
			if err != nil {
				return 0, err
			}
			if pass == 0 {
				coldUs = append(coldUs, us(d)/big)
			} else {
				warmUs = append(warmUs, us(d)/big)
			}
		}
	}
	cold := median(coldUs)
	r.set("costmodel.predict_batch_us_per_item.cold", "us", cold)
	r.set("costmodel.predict_batch_us_per_item.warm", "us", median(warmUs))
	perItem := median(parse) + median(plan) + cold + r.b.metrics["costmodel.fingerprint_us.p50"].Value
	r.set("sqlparse.parse_share", "ratio", median(parse)/perItem)
	r.set("optimizer.plan_share", "ratio", median(plan)/perItem)
	return fusedB1, nil
}

// training replays the train workload's data path and training loop:
// corpus generation, collection, encoding, a short TrainCtx on the
// encoded samples, and Adam steps over the model's parameters.
func (r *replayer) training() error {
	t := r.tr
	t.request(-3)
	root := t.begin("train")
	defer t.end(root)
	sp := t.begin("datagen.corpus")
	start := time.Now()
	corpus, err := datagen.TrainingCorpus(params.TrainDBs, params.TrainSeed, datagen.DefaultConfig())
	r.set("datagen.corpus_s", "s", time.Since(start).Seconds())
	t.end(sp)
	if err != nil {
		return err
	}
	var samples []zeroshot.Sample
	var collectT time.Duration
	for i, db := range corpus {
		sp = t.begin("collect.run")
		start = time.Now()
		recs, err := collect.Run(db, collect.Options{Queries: params.TrainQueries, Seed: params.TrainSeed + int64(i*1000)})
		collectT += time.Since(start)
		t.end(sp)
		if err != nil {
			return err
		}
		enc := encoding.NewPlanEncoder(db.Schema, r.est.Card())
		for _, rec := range recs {
			sp = t.begin("encoding.encode")
			g, err := enc.Encode(rec.Plan)
			t.end(sp)
			if err != nil {
				return err
			}
			samples = append(samples, zeroshot.Sample{Graph: g, RuntimeSec: rec.RuntimeSec})
		}
	}
	r.set("collect.run_s", "s", collectT.Seconds())
	cfg := zeroshot.DefaultConfig()
	cfg.Seed = params.TrainSeed
	cfg.Epochs = 3
	m := zeroshot.New(cfg)
	sp = t.begin("zeroshot.train")
	res, err := m.TrainCtx(r.ctx, samples)
	t.end(sp)
	if err != nil {
		return err
	}
	r.set("zeroshot.train_samples_per_s", "1/s", res.SamplesPerSec)
	opt := nn.NewAdam(m.Params(), cfg.LR)
	var steps []float64
	for i := 0; i < 50; i++ {
		sp = t.begin("nn.adam_step")
		steps = append(steps, us(timeIt(func() { opt.Step(1) })))
		t.end(sp)
	}
	r.set("nn.adam_step_us", "us", median(steps))
	return nil
}

// serverCounters turns the server's /v1/stats and the load generator's
// samples into the HTTP, serving and loadgen layer metrics.
func (r *replayer) serverCounters(in replayInputs, st serverStats, predictP50 float64) {
	var hits, misses, evictions int64
	for _, d := range st.Databases {
		hits += d.PlanCache.Hits
		misses += d.PlanCache.Misses
		evictions += d.PlanCache.Evictions
	}
	r.set("serving.plancache_hit_ratio", "ratio", float64(hits)/math.Max(1, float64(hits+misses)))
	r.set("serving.plancache_evictions", "count", float64(evictions))
	r.set("serving.sched_batch_mean", "count", st.Scheduler.MeanBatchSize)
	co := st.Scheduler.Coalesced
	r.set("serving.sched_coalesced_ratio", "ratio", float64(co.Hits)/math.Max(1, float64(co.Hits+co.Misses)))
	r.set("serving.sched_fallbacks", "count", float64(st.Scheduler.Fallbacks))

	var service, late []float64
	sent, ok, bytes := 0, 0, 0
	for _, s := range in.client {
		sent++
		late = append(late, ms(s.Late()))
		if s.OK {
			ok++
			bytes += s.Bytes
			service = append(service, us(s.Done-s.Sent))
		}
	}
	r.set("loadgen.sent", "count", float64(sent))
	r.set("loadgen.ok", "count", float64(ok))
	r.set("loadgen.failed", "count", float64(sent-ok))
	r.set("loadgen.late_p50_ms", "ms", quantile(late, 0.5))
	r.set("loadgen.late_p99_ms", "ms", quantile(late, 0.99))
	r.set("zsdb.resp_bytes", "bytes", float64(bytes)/math.Max(1, float64(ok)))
	inproc := predictP50
	if in.batchClient {
		inproc = 1e3 * r.b.metrics["serving.predict_batch_ms.p50"].Value
	}
	r.set("zsdb.http_overhead_us.p50", "us", median(service)-inproc)
}
