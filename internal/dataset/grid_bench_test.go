package dataset_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"surf/internal/dataset"
	"surf/internal/geom"
	"surf/internal/synth"
)

// densityScale is the density-1m dataset: 1M uniform rows plus three
// planted dense regions of 120k rows each (1.36M rows, 2-D, COUNT).
var densityScale = sync.OnceValue(func() *synth.Dataset {
	return synth.MustGenerate(synth.Config{
		Dims: 2, Regions: 3, Stat: synth.Density, N: 1_000_000, BoostPerRegion: 120_000, Seed: 1,
	})
})

// workloadRegions draws n regions the way synth.GenerateWorkload does:
// uniform centres, half-sides between the workload's 0.01 and
// DefaultWorkloadConfig's MaxSideFrac of each dimension's extent.
func workloadRegions(domain geom.Rect, n int) []geom.Rect {
	const minSideFrac = 0.01
	cfg := synth.DefaultWorkloadConfig(n)
	rng := rand.New(rand.NewPCG(cfg.Seed, 1))
	out := make([]geom.Rect, n)
	for q := range out {
		x := make([]float64, domain.Dims())
		l := make([]float64, domain.Dims())
		for j := range x {
			extent := domain.Max[j] - domain.Min[j]
			x[j] = domain.Min[j] + rng.Float64()*extent
			l[j] = (minSideFrac + rng.Float64()*(cfg.MaxSideFrac-minSideFrac)) * extent
		}
		out[q] = geom.FromCenter(x, l)
	}
	return out
}

// sink keeps benchmarked results live.
var sink float64

// BenchmarkEvaluateGridIndex measures one true-function evaluation
// through the grid index on training-workload-shaped regions.
func BenchmarkEvaluateGridIndex(b *testing.B) {
	b.Run("density-1m", func(b *testing.B) {
		ds := densityScale()
		g, err := dataset.NewGridIndex(ds.Data, ds.Spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		regions := workloadRegions(ds.Domain(), 2000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink, _ = g.Evaluate(regions[i%len(regions)])
		}
	})
}

// BenchmarkNewGridIndex measures building the grid index over the
// density-1m dataset.
func BenchmarkNewGridIndex(b *testing.B) {
	ds := densityScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.NewGridIndex(ds.Data, ds.Spec, 0); err != nil {
			b.Fatal(err)
		}
	}
}
