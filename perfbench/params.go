package main

// Params are the benchmark's fixed settings. They are part of the
// benchmark definition: every result records them, and two result files
// are comparable only when their Params match. Nothing here depends on
// the seed.
type Params struct {
	Databases string  `json:"databases"`
	DBScale   float64 `json:"dbscale"`

	// zsdb train / zsdb eval arguments. A run trains TrainRuns times
	// (bitwise the same model each time) and reports the median time.
	TrainRuns    int   `json:"train_runs"`
	TrainDBs     int   `json:"train_dbs"`
	TrainQueries int   `json:"train_queries"`
	TrainSeed    int64 `json:"train_seed"`
	EvalQueries  int   `json:"eval_queries"`
	EvalSeed     int64 `json:"eval_seed"`

	// SetupStarts is how many times a run starts zsdb serve to time
	// set-up; setup_s is their median.
	SetupStarts int `json:"setup_starts"`

	// serve-hot: a pool of HotPoolPerDB statements per database (far
	// below the 4096-entry plan cache), Zipf popularity over databases
	// and statements, Poisson arrivals at RateLo and RateHi, and the
	// latency limit a closed-loop answer must meet to count as goodput.
	HotPoolPerDB   int     `json:"hot_pool_per_db"`
	ZipfDB         float64 `json:"zipf_db"`
	ZipfStmt       float64 `json:"zipf_stmt"`
	RateLo         float64 `json:"rate_lo_rps"`
	RateHi         float64 `json:"rate_hi_rps"`
	LatencyLimitMs float64 `json:"latency_limit_ms"`
	HotWarmup      float64 `json:"hot_warmup_s"`

	// serve-cold: closed loop of 1 client (lo) then nproc clients (hi),
	// each request a batch of ColdBatch never-sent statements. Before
	// each window the benchmark draws statements for ColdMargin times
	// what the window would send at the fastest rate seen so far.
	ColdBatch  int     `json:"cold_batch"`
	ColdMargin float64 `json:"cold_margin"`
}

// params is the one fixed parameter set of this benchmark.
var params = Params{
	Databases:      "imdb,ssb,tpch",
	DBScale:        0.1,
	TrainRuns:      5,
	TrainDBs:       3,
	TrainQueries:   60,
	TrainSeed:      1,
	EvalQueries:    100,
	EvalSeed:       99,
	SetupStarts:    7,
	HotPoolPerDB:   200,
	ZipfDB:         1.0,
	ZipfStmt:       1.0,
	RateLo:         300,
	RateHi:         900,
	LatencyLimitMs: 10,
	HotWarmup:      1,
	ColdBatch:      256,
	ColdMargin:     4,
}
