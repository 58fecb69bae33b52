package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// Databases are benchmark-side copies of the serving databases: the
// same deterministic datagen builders zsdb serve runs, so statements
// generated here parse and plan identically on the server.
type Databases struct {
	Names []string
	DBs   []*storage.Database
}

func buildDatabase(kind string, scale float64) (*storage.Database, error) {
	switch kind {
	case "imdb":
		return datagen.IMDBLike(scale)
	case "ssb":
		return datagen.SSBLike(scale)
	case "tpch":
		return datagen.TPCHLike(scale)
	}
	return nil, fmt.Errorf("unknown database kind %q", kind)
}

func buildDatabases(spec string, scale float64) (*Databases, error) {
	out := &Databases{}
	for _, kind := range strings.Split(spec, ",") {
		db, err := buildDatabase(kind, scale)
		if err != nil {
			return nil, err
		}
		out.Names = append(out.Names, kind)
		out.DBs = append(out.DBs, db)
	}
	return out, nil
}

// workloadGens are the statement families the paper evaluates on; the
// generators rotate over them so every pool mixes all three.
var workloadGens = []func(*storage.Database, int, int64) ([]*query.Query, error){
	query.Synthetic, query.JOBLight, query.Scale,
}

// stmtSource draws statements against one database whose fingerprints
// are not yet in seen (which it extends), rotating over workloadGens in
// chunks with seeds drawn from rng. Statements a chunk yields beyond
// what take asks for stay buffered for the next take.
type stmtSource struct {
	db    *storage.Database
	rng   *rand.Rand
	seen  map[string]bool
	round int
	buf   []string
}

// stmtChunk is how many statements one generator call draws.
const stmtChunk = 512

// take returns the next n distinct statements.
func (s *stmtSource) take(n int) ([]string, error) {
	for rounds := 0; len(s.buf) < n; rounds++ {
		if rounds > 64+4*n/stmtChunk {
			return nil, fmt.Errorf("%s: only %d of %d distinct statements", s.db.Schema.Name, len(s.buf), n)
		}
		qs, err := workloadGens[s.round%len(workloadGens)](s.db, stmtChunk, s.rng.Int63())
		if err != nil {
			return nil, err
		}
		s.round++
		for _, q := range qs {
			sql := q.SQL()
			fp := costmodel.Fingerprint(sql)
			if !s.seen[fp] {
				s.seen[fp] = true
				s.buf = append(s.buf, sql)
			}
		}
	}
	out := s.buf[:n:n]
	s.buf = s.buf[n:]
	return out, nil
}

// zipf samples ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) sample(rng *rand.Rand) int {
	u := rng.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// HotPool is serve-hot's statement pool: Stmts[d] lists database d's
// statements in popularity rank order.
type HotPool struct {
	Stmts [][]string
}

func newHotPool(dbs *Databases, perDB int, seed int64) (*HotPool, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	p := &HotPool{}
	for _, db := range dbs.DBs {
		src := &stmtSource{db: db, rng: rng, seen: seen}
		s, err := src.take(perDB)
		if err != nil {
			return nil, err
		}
		p.Stmts = append(p.Stmts, s)
	}
	return p, nil
}

// Arrival is one scheduled single-prediction request.
type Arrival struct {
	Due  time.Duration // offset from the phase start
	DB   int
	Stmt int
}

// hotSchedule draws one open-loop phase: Poisson arrivals at rate per
// second for dur, each choosing a database and then a statement by
// Zipf popularity.
func hotSchedule(pool *HotPool, rate float64, dur time.Duration, zipfDB, zipfStmt float64, seed int64) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	dbZ := newZipf(len(pool.Stmts), zipfDB)
	stmtZ := make([]zipf, len(pool.Stmts))
	for d, s := range pool.Stmts {
		stmtZ[d] = newZipf(len(s), zipfStmt)
	}
	var out []Arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		d := dbZ.sample(rng)
		out = append(out, Arrival{Due: due, DB: d, Stmt: stmtZ[d].sample(rng)})
	}
}

// ColdBatch is one serve-cold request: never-sent statements against
// one database.
type ColdBatch struct {
	DB  int
	SQL []string
}

// coldStream yields serve-cold's batches: statements never drawn
// before in the stream, against one database per batch, rotating over
// the databases. Each database has a generator state of its own seeded
// from the stream's seed, so the k-th batch depends on the seed alone,
// however many batches a run draws.
type coldStream struct {
	size int
	srcs []*stmtSource
	n    int // batches drawn so far
}

func newColdStream(dbs *Databases, size int, seed int64) *coldStream {
	rng := rand.New(rand.NewSource(seed))
	c := &coldStream{size: size}
	for _, db := range dbs.DBs {
		c.srcs = append(c.srcs, &stmtSource{db: db, rng: rand.New(rand.NewSource(rng.Int63())), seen: map[string]bool{}})
	}
	return c
}

// next draws the stream's next batch.
func (c *coldStream) next() (*ColdBatch, error) {
	d := c.n % len(c.srcs)
	sql, err := c.srcs[d].take(c.size)
	if err != nil {
		return nil, err
	}
	c.n++
	return &ColdBatch{DB: d, SQL: sql}, nil
}
