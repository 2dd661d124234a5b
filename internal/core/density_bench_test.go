package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
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

// BenchmarkFitDensity fits the default 1,000-point Eq. 8 prior over
// 1.36M×2 rows (the size of the surf-perf density dataset) straight
// from the columns, as the engine does once per data version.
func BenchmarkFitDensity(b *testing.B) {
	cols := densityColumns(1_360_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitDensity(cols, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwarmWeights runs swarms of L=50 worms whose neighbour
// selection is weighted by the KDE box mass of each worm's region
// (1,000-point sample, 2-D), on near-free objectives so the Eq. 8
// weights dominate, with one sequential worker and one per CPU.
// "valid" runs 20 iterations on an objective defined everywhere.
// "mostly-invalid" has the shape of a use_kde find: 10 iterations with
// the invalid walk, on an objective defined only for regions centred
// in a disc over 3% of the domain, so most worms are never valid and
// no roulette reads their weights. weights/op counts the box masses
// computed per run.
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
	var weighed atomic.Int64
	weight := func(vec []float64) float64 {
		weighed.Add(1)
		x, l := geom.DecodeRegion(vec)
		return density.BoxMass(geom.FromCenter(x, l))
	}
	space := geom.SolutionSpace(geom.Unit(2), 0.01, 0.15)
	cases := []struct {
		name  string
		iters int
		walk  float64
		obj   gso.ObjectiveFunc
	}{
		{"valid", 20, 0, func(pos []float64) (float64, bool) { return -pos[0] * pos[0], true }},
		{"mostly-invalid", 10, 1, func(pos []float64) (float64, bool) {
			dx, dy := pos[0]-0.7, pos[1]-0.7
			d2 := dx*dx + dy*dy
			return 1 - d2, d2 < 0.01
		}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				p := gso.DefaultParams()
				p.Glowworms, p.MaxIters, p.Workers = 50, c.iters, workers
				weighed.Store(0)
				for i := 0; i < b.N; i++ {
					if _, err := gso.Run(p, space, c.obj, gso.Options{Weight: weight, InvalidWalk: c.walk}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(weighed.Load())/float64(b.N), "weights/op")
			})
		}
	}
}
