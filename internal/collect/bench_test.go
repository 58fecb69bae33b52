package collect

import (
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
)

// BenchmarkCollectCorpus collects the `zsdb train -dbs 3 -queries 60
// -seed 1` training data: the three databases one after another with
// Run, and spread over the cores with RunAll. Generating the databases
// is set-up, outside the timer.
func BenchmarkCollectCorpus(b *testing.B) {
	dbs, err := datagen.TrainingCorpus(3, 1, datagen.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	opts := func(i int) Options { return Options{Queries: 60, Seed: 1 + int64(i*1000)} }
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for i, db := range dbs {
				if _, err := Run(db, opts(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := RunAll(dbs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
