// Package datagen generates synthetic relational databases: random schemas
// with foreign-key topologies, and column data drawn from a mix of uniform,
// Zipf, normal and correlated distributions.
//
// This substitutes for the paper's corpus of ~20 real-world databases
// (IMDB, SSB, ...). The zero-shot training recipe needs *diversity* — many
// schemas with different table counts, sizes, types, skew and correlation —
// so that the model learns system behaviour rather than one database's data
// distribution. Seeded generation keeps every experiment reproducible.
//
// Every product that feeds an add is written float64(a*b): the explicit
// conversion forbids gc from fusing it into one multiply-add on arm64 and
// ppc64le, so generated databases round the same on every architecture.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// Config controls random database generation. The zero value is not valid;
// use DefaultConfig.
type Config struct {
	// MinTables and MaxTables bound the number of tables.
	MinTables, MaxTables int
	// MinRows and MaxRows bound per-table row counts. Fact tables (tables
	// with outgoing foreign keys) draw from the upper half of the range.
	MinRows, MaxRows int
	// MinCols and MaxCols bound the number of non-key columns per table.
	MinCols, MaxCols int
	// NullFracMax is the maximum NULL fraction assigned to nullable columns.
	NullFracMax float64
	// CorrelatedFrac is the probability that a numeric column is generated
	// as a noisy function of another column of the same table, which breaks
	// the optimizer's independence assumption (as real data does).
	CorrelatedFrac float64
}

// DefaultConfig returns generation bounds sized so that a corpus of a few
// dozen databases builds and executes in seconds on a laptop while still
// spanning two orders of magnitude in table size.
func DefaultConfig() Config {
	return Config{
		MinTables: 3, MaxTables: 8,
		MinRows: 500, MaxRows: 40000,
		MinCols: 2, MaxCols: 6,
		NullFracMax:    0.1,
		CorrelatedFrac: 0.3,
	}
}

// Generate builds a random database with the given name and seed.
func Generate(name string, seed int64, cfg Config) (*storage.Database, error) {
	rng := rand.New(rand.NewSource(seed))
	sch := randomSchema(name, rng, cfg)
	if err := sch.Validate(); err != nil {
		return nil, fmt.Errorf("datagen: generated invalid schema: %w", err)
	}
	return populate(sch, rng, cfg)
}

// randomSchema draws a schema with a random FK forest: table i>0 references
// one random earlier table, yielding a connected, acyclic join graph like
// the snowflake schemas of the paper's benchmark databases.
func randomSchema(name string, rng *rand.Rand, cfg Config) *schema.Schema {
	nTables := cfg.MinTables + rng.Intn(cfg.MaxTables-cfg.MinTables+1)
	s := &schema.Schema{Name: name}
	for ti := 0; ti < nTables; ti++ {
		tname := fmt.Sprintf("t%d", ti)
		tab := &schema.Table{Name: tname}
		tab.Columns = append(tab.Columns, schema.Column{
			Name: "id", Type: schema.TypeInt, PrimaryKey: true,
		})
		if ti > 0 {
			parent := rng.Intn(ti)
			fkCol := fmt.Sprintf("t%d_id", parent)
			tab.Columns = append(tab.Columns, schema.Column{Name: fkCol, Type: schema.TypeInt})
			s.ForeignKeys = append(s.ForeignKeys, schema.ForeignKey{
				FromTable: tname, FromColumn: fkCol,
				ToTable: fmt.Sprintf("t%d", parent), ToColumn: "id",
			})
		}
		nCols := cfg.MinCols + rng.Intn(cfg.MaxCols-cfg.MinCols+1)
		for ci := 0; ci < nCols; ci++ {
			col := schema.Column{Name: fmt.Sprintf("c%d", ci)}
			switch rng.Intn(3) {
			case 0:
				col.Type = schema.TypeInt
			case 1:
				col.Type = schema.TypeFloat
			case 2:
				col.Type = schema.TypeCategorical
			}
			if rng.Float64() < 0.3 {
				col.NullFrac = rng.Float64() * cfg.NullFracMax
			}
			tab.Columns = append(tab.Columns, col)
		}
		// Row counts: referenced (dimension) tables stay small, leaf (fact)
		// tables grow; log-uniform draw spans the configured range.
		logMin, logMax := math.Log(float64(cfg.MinRows)), math.Log(float64(cfg.MaxRows))
		tab.RowCount = int(math.Exp(logMin + float64(rng.Float64()*(logMax-logMin))))
		tab.ComputePages()
		s.Tables = append(s.Tables, tab)
	}
	return s
}

// distKind enumerates value distributions for generated columns.
type distKind int

const (
	distUniform distKind = iota
	distZipf
	distNormal
)

// populate fills every table of the schema with data. Tables must be filled
// parents-first so that foreign keys can reference existing primary keys;
// randomSchema guarantees parents precede children.
func populate(s *schema.Schema, rng *rand.Rand, cfg Config) (*storage.Database, error) {
	db := storage.NewDatabase(s)
	for _, tm := range s.Tables {
		tab := storage.NewTable(tm)
		n := tm.RowCount
		for ci := range tm.Columns {
			col := &tm.Columns[ci]
			data := tab.Cols[ci]
			switch {
			case col.PrimaryKey:
				fillPrimaryKey(data, n)
				col.DistinctCount = n
			case isForeignKey(s, tm.Name, col.Name):
				parent := fkParent(s, tm.Name, col.Name)
				parentRows := s.Table(parent).RowCount
				fillForeignKey(data, n, parentRows, rng)
				col.DistinctCount = countDistinctInts(data.Ints)
			default:
				fillValueColumn(data, col, n, rng, cfg, tab)
				switch col.Type {
				case schema.TypeFloat:
					col.DistinctCount = countDistinctFloats(data.Floats)
				default:
					col.DistinctCount = countDistinctInts(data.Ints)
				}
			}
		}
		db.AddTable(tab)
	}
	return db, nil
}

func isForeignKey(s *schema.Schema, table, column string) bool {
	for _, fk := range s.ForeignKeys {
		if fk.FromTable == table && fk.FromColumn == column {
			return true
		}
	}
	return false
}

func fkParent(s *schema.Schema, table, column string) string {
	for _, fk := range s.ForeignKeys {
		if fk.FromTable == table && fk.FromColumn == column {
			return fk.ToTable
		}
	}
	return ""
}

func fillPrimaryKey(data *storage.ColumnData, n int) {
	data.Ints = make([]int64, n)
	for i := range data.Ints {
		data.Ints[i] = int64(i)
	}
}

// fillForeignKey draws child FK values referencing parent ids with a mild
// power-law skew (u^1.5 mapping), so that join fan-outs vary across parents
// as in real datasets without the head-of-Zipf blowup that would make
// unfiltered five-way star joins explode.
func fillForeignKey(data *storage.ColumnData, n, parentRows int, rng *rand.Rand) {
	data.Ints = make([]int64, n)
	if parentRows <= 0 {
		return
	}
	for i := range data.Ints {
		u := rng.Float64()
		v := int64(math.Pow(u, 1.7) * float64(parentRows))
		if v >= int64(parentRows) {
			v = int64(parentRows) - 1
		}
		data.Ints[i] = v
	}
}

func fillValueColumn(data *storage.ColumnData, col *schema.Column, n int, rng *rand.Rand, cfg Config, tab *storage.Table) {
	kind := distKind(rng.Intn(3))
	// Optionally correlate a numeric column with a previously generated
	// numeric column of the same table.
	var base *storage.ColumnData
	if col.Type.Numeric() && rng.Float64() < cfg.CorrelatedFrac {
		base = pickNumericColumn(tab, rng)
	}
	switch col.Type {
	case schema.TypeInt:
		data.Ints = make([]int64, n)
		domain := 10 + rng.Intn(2000)
		zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(domain-1))
		for i := range data.Ints {
			switch {
			case base != nil:
				data.Ints[i] = int64(base.AsFloat(i)*0.5) + int64(rng.Intn(10))
			case kind == distZipf:
				data.Ints[i] = int64(zipf.Uint64())
			case kind == distNormal:
				data.Ints[i] = int64(float64(rng.NormFloat64()*float64(domain)/6) + float64(float64(domain)/2))
			default:
				data.Ints[i] = int64(rng.Intn(domain))
			}
		}
	case schema.TypeFloat:
		data.Floats = make([]float64, n)
		scale := math.Exp(rng.Float64() * 8) // spans ~1..3000
		for i := range data.Floats {
			switch {
			case base != nil:
				data.Floats[i] = float64(base.AsFloat(i)*1.5) + float64(rng.NormFloat64()*scale*0.05)
			case kind == distNormal:
				data.Floats[i] = float64(rng.NormFloat64()*scale) + float64(scale*2)
			default:
				data.Floats[i] = rng.Float64() * scale
			}
		}
	case schema.TypeCategorical:
		data.Ints = make([]int64, n)
		domain := 2 + rng.Intn(40)
		zipf := rand.NewZipf(rng, 1.5, 1.0, uint64(domain-1))
		for i := range data.Ints {
			if kind == distUniform {
				data.Ints[i] = int64(rng.Intn(domain))
			} else {
				data.Ints[i] = int64(zipf.Uint64())
			}
		}
	}
	if col.NullFrac > 0 {
		data.Nulls = make([]bool, n)
		for i := range data.Nulls {
			if rng.Float64() < col.NullFrac {
				data.Nulls[i] = true
			}
		}
	}
}

func pickNumericColumn(tab *storage.Table, rng *rand.Rand) *storage.ColumnData {
	var candidates []*storage.ColumnData
	for i, c := range tab.Meta.Columns {
		if !c.Type.Numeric() || c.PrimaryKey {
			continue
		}
		if tab.Cols[i].Len() == 0 {
			continue // not yet generated
		}
		candidates = append(candidates, tab.Cols[i])
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[rng.Intn(len(candidates))]
}

func countDistinctInts(vals []int64) int {
	set := make(map[int64]struct{}, 1024)
	for _, v := range vals {
		set[v] = struct{}{}
	}
	return len(set)
}

func countDistinctFloats(vals []float64) int {
	set := make(map[float64]struct{}, 1024)
	for _, v := range vals {
		set[v] = struct{}{}
	}
	return len(set)
}

// TrainingCorpus generates n databases with distinct seeds and names
// ("train00", "train01", ...). These play the role of the paper's 19
// training databases.
func TrainingCorpus(n int, seed int64, cfg Config) ([]*storage.Database, error) {
	dbs := make([]*storage.Database, 0, n)
	for i := 0; i < n; i++ {
		db, err := Generate(fmt.Sprintf("train%02d", i), seed+int64(i)*7919, cfg)
		if err != nil {
			return nil, err
		}
		dbs = append(dbs, db)
	}
	return dbs, nil
}
