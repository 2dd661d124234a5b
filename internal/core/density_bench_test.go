package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"surf/internal/geom"
	"surf/internal/gso"
	"surf/internal/kde"
)

// densityColumns returns n uniform rows over the unit square, column
// major, the layout a dataset stores its filter columns in.
func densityColumns(n int) [][]float64 {
	rng := rand.New(rand.NewPCG(1, 36))
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		cols[0][i], cols[1][i] = rng.Float64(), rng.Float64()
	}
	return cols
}

// BenchmarkAttachDensity fits the default 1,000-point Eq. 8 prior over
// 1.36M×2 rows (the size of the surf-perf density dataset) two ways:
// "rows" first copies every row into its own slice and fits through
// AttachDensity, as query execution used to; "columns" fits straight
// from the columns through AttachDensityColumns, as it does now. Both
// draw the same sample.
func BenchmarkAttachDensity(b *testing.B) {
	cols := densityColumns(1_360_000)
	finder, err := NewFinder(func(x, l []float64) float64 { return 0 }, geom.Unit(2))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			points := make([][]float64, len(cols[0]))
			for r := range points {
				points[r] = []float64{cols[0][r], cols[1][r]}
			}
			if err := finder.AttachDensity(points, 1000, 18); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columns", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := finder.AttachDensityColumns(cols, 1000, 18); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSwarmWeights runs a 20-iteration swarm of L=50 worms whose
// neighbour selection is weighted by the KDE box mass of each worm's
// region (1,000-point sample, 2-D), on a near-free objective so the
// Eq. 8 weights dominate: one sequential worker versus one per CPU.
func BenchmarkSwarmWeights(b *testing.B) {
	cols := densityColumns(10_000)
	points := make([][]float64, len(cols[0]))
	for r := range points {
		points[r] = []float64{cols[0][r], cols[1][r]}
	}
	density, err := kde.Fit(points, kde.Options{MaxSample: 1000, Rng: rand.New(rand.NewPCG(2, 2))})
	if err != nil {
		b.Fatal(err)
	}
	weight := func(vec []float64) float64 {
		x, l := geom.DecodeRegion(vec)
		return density.BoxMass(geom.FromCenter(x, l))
	}
	obj := gso.ObjectiveFunc(func(pos []float64) (float64, bool) { return -pos[0] * pos[0], true })
	space := geom.SolutionSpace(geom.Unit(2), 0.01, 0.15)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := gso.DefaultParams()
			p.Glowworms, p.MaxIters, p.Workers = 50, 20, workers
			for i := 0; i < b.N; i++ {
				if _, err := gso.Run(p, space, obj, gso.Options{Weight: weight}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
