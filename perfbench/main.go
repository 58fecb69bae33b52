// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds zsdb and this program, then runs
//
//	perfbench -workload serve-hot|serve-cold -seed N -seconds S -trace 0|1
//
// from the repository root. It trains a model with zsdb train,
// times zsdb serve start-up, drives the server over loopback HTTP with
// seeded load, checks every answer bitwise against an in-process
// reference, and prints one JSON result as its last stdout line. With
// -trace 1 it instead reports per-layer metrics from an in-process,
// span-traced replay of the same inputs. perfbench compare OLD NEW
// compares two result files. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the result printed as the last stdout line.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is one run as appended to the result file.
type Record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Stamp    Stamp          `json:"stamp"`
	Params   Params         `json:"params"`
	Started  time.Time      `json:"started"`
	Phases   []Phase        `json:"phases,omitempty"`
	Windows  []Phase        `json:"windows,omitempty"`
	Errors   []string       `json:"errors,omitempty"`
	Layers   []SpanSummary  `json:"layers,omitempty"`
	Extra    map[string]any `json:"extra,omitempty"`
	Line     Line           `json:"result"`
}

// bench is one run's state.
type bench struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	z         zsdb
	model     string
	dbs       *Databases
	ref       *serving.Session
	attempted int
	failed    int
	rec       Record
	metrics   map[string]Metric
	// failMu guards failed and rec.Errors: load clients fail concurrently.
	failMu sync.Mutex
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = Metric{Value: v, Unit: unit} }

// fail records one failed operation or correctness mismatch.
func (b *bench) fail(format string, args ...any) {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	b.failed++
	if len(b.rec.Errors) < 20 {
		b.rec.Errors = append(b.rec.Errors, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "serve-hot or serve-cold")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds of load")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced in-process replay")
	root := flag.String("root", ".", "repository root")
	bin := flag.String("zsdb", "", "built zsdb binary")
	out := flag.String("out", "", "result file to append to (default <root>/.bench_build/results/<workload>.jsonl)")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *root, *bin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool, root, bin, out string) error {
	if workload != "serve-hot" && workload != "serve-cold" {
		return fmt.Errorf("unknown -workload %q (want serve-hot or serve-cold)", workload)
	}
	if bin == "" || seconds < 1 {
		return fmt.Errorf("-zsdb and a positive -seconds are required")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	bin, err = filepath.Abs(bin)
	if err != nil {
		return err
	}
	dir := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%v", workload, seed, trace))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b := &bench{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace,
		z:       zsdb{bin: bin, dir: dir},
		model:   filepath.Join(dir, "model.gob"),
		metrics: map[string]Metric{},
	}
	b.rec = Record{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Stamp: stamp(root), Params: params, Started: time.Now().UTC(), Extra: map[string]any{}}
	err = b.execute()
	for _, e := range b.rec.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: error:", e)
	}
	if err != nil {
		return err
	}
	b.rec.Line = Line{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	if out == "" {
		out = filepath.Join(root, ".bench_build", "results", workload+".jsonl")
	}
	if err := appendRecord(out, b.rec); err != nil {
		return err
	}
	line, err := json.Marshal(b.rec.Line)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendRecord(path string, rec Record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// execute runs the whole benchmark: train (and evaluate), time serve
// start-up, drive the workload, check answers, and in trace mode replay
// in-process. Operational failures of the program count in failed;
// only a broken harness returns an error.
func (b *bench) execute() error {
	logf("building serving databases and inputs (seed %d)", b.seed)
	dbs, err := buildDatabases(params.Databases, params.DBScale)
	if err != nil {
		return err
	}
	b.dbs = dbs
	var w workload
	if b.workload == "serve-hot" {
		w, err = newHot(b)
	} else {
		w, err = newCold(b)
	}
	if err != nil {
		return err
	}
	// Finish collecting the input generation's garbage now, so the
	// benchmark's collector stays idle while zsdb is timed.
	runtime.GC()

	runs := params.TrainRuns
	if b.trace {
		runs = 1
	}
	var trainS []measured
	for i := 0; i < runs; i++ {
		logf("zsdb train (%d/%d)", i+1, runs)
		b.attempted++
		var wall time.Duration
		var rss float64
		steal := timedSteal(func() { wall, rss, err = b.z.train(b.model) })
		if err != nil {
			b.fail("%v", err)
			return nil
		}
		trainS = append(trainS, measured{wall.Seconds(), steal})
		b.rec.Extra["train_peak_rss_mb"] = rss
	}
	b.rec.Extra["train_s_all"] = trainS
	if !b.trace {
		b.set("train_s", "s", cleanMedian(trainS))
		logf("zsdb eval")
		b.attempted++
		qerr, err := b.z.eval(b.model)
		if err != nil {
			b.fail("%v", err)
		}
		b.set("qerror_p50", "ratio", qerr)
	}
	if err := b.loadReference(); err != nil {
		return err
	}

	logf("timing zsdb serve start-up x%d", params.SetupStarts)
	var setups []measured
	var srv *server
	for i := 0; i < params.SetupStarts; i++ {
		b.attempted++
		var s *server
		steal := timedSteal(func() { s, err = b.z.startServe(b.model, fmt.Sprintf("serve-%d.log", i)) })
		if err != nil {
			b.fail("%v", err)
			return nil
		}
		setups = append(setups, measured{s.setup.Seconds(), steal})
		if i+1 < params.SetupStarts {
			if err := s.stop(); err != nil {
				b.fail("%v", err)
			}
			continue
		}
		srv = s
	}
	if !b.trace {
		b.set("setup_s", "s", cleanMedian(setups))
	}
	b.rec.Extra["setup_s_all"] = setups

	c := newClient(srv.base, runtime.NumCPU())
	var driveErr error
	b.rec.Extra["steal_share"] = timedSteal(func() { driveErr = w.drive(srv, c) })
	if rss, err := srv.peakRSSMiB(); err == nil && !b.trace {
		b.set("peak_rss_mb", "MiB", rss)
	} else if err != nil {
		b.fail("peak RSS: %v", err)
	}
	var st serverStats
	if err := c.get("/v1/stats", &st); err != nil {
		b.fail("GET /v1/stats: %v", err)
	}
	c.close()
	b.attempted++
	if err := srv.stop(); err != nil {
		b.fail("%v", err)
	}
	if driveErr != nil {
		return driveErr
	}
	logf("checking answers against the in-process reference")
	w.check()
	if b.trace {
		logf("traced in-process replay")
		return w.replay(st)
	}
	w.report()
	return nil
}

// workload is one traffic mix.
type workload interface {
	// drive runs the warm-up and the measured phases against srv.
	drive(srv *server, c *client) error
	// check compares every answer with the in-process reference.
	check()
	// report sets the end-to-end metrics.
	report()
	// replay runs the traced in-process replay and sets the per-layer
	// metrics; st is the server's /v1/stats after the load.
	replay(st serverStats) error
}

// loadReference loads the trained model in-process into a Session over
// the benchmark's database copies: the bitwise reference for every
// served answer.
func (b *bench) loadReference() error {
	est, err := openModel(b.model)
	if err != nil {
		return err
	}
	b.ref = serving.NewSession(serving.Config{})
	if err := b.ref.AttachModel(est); err != nil {
		return err
	}
	for i, name := range b.dbs.Names {
		if err := b.ref.AttachDatabase(name, b.dbs.DBs[i]); err != nil {
			return err
		}
	}
	return nil
}

// openModel loads a saved model file.
func openModel(path string) (costmodel.Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return costmodel.Load(f)
}

// refBatch prices sqls on database d in-process.
func (b *bench) refBatch(d int, sqls []string) ([]float64, error) {
	res, err := b.ref.PredictBatch(context.Background(), b.dbs.Names[d], "", sqls)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(sqls))
	for i, it := range res.Items {
		if it.Err != nil {
			return nil, fmt.Errorf("reference: %q: %w", sqls[i], it.Err)
		}
		out[i] = it.RuntimeSec
	}
	return out, nil
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	Scheduler struct {
		Batches       int64   `json:"batches"`
		Items         int64   `json:"items"`
		MeanBatchSize float64 `json:"mean_batch_size"`
		Coalesced     struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"coalesced"`
		Fallbacks int64 `json:"fallbacks"`
	} `json:"scheduler"`
	Databases []struct {
		DB        string                   `json:"db"`
		PlanCache costmodel.PlanCacheStats `json:"plan_cache"`
	} `json:"databases"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// finite maps NaN and Inf to -1 so a result always encodes as JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}
