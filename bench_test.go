package surf

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section V), each delegating to the corresponding
// experiment in internal/experiments at Small scale, plus
// micro-benchmarks of the core components. Regenerate the full series
// with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/surf-bench -exp all -scale full   # paper-sized runs
//
// The shape to expect is documented on each experiment's function in
// internal/experiments.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"surf/internal/core"
	"surf/internal/dataset"
	"surf/internal/experiments"
	"surf/internal/gbt"
	"surf/internal/geom"
	"surf/internal/gso"
	"surf/internal/kde"
	"surf/internal/synth"
)

// benchExperiment runs one experiment per iteration.
func benchExperiment(b *testing.B, run func(experiments.Scale) (*experiments.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := run(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

func BenchmarkFig1Convergence(b *testing.B) { benchExperiment(b, experiments.Fig1Convergence) }
func BenchmarkFig2Datasets(b *testing.B)    { benchExperiment(b, experiments.Fig2Datasets) }
func BenchmarkFig3IoU(b *testing.B)         { benchExperiment(b, experiments.Fig3IoU) }
func BenchmarkFig4Grouped(b *testing.B)     { benchExperiment(b, experiments.Fig4Grouped) }
func BenchmarkFig5Crimes(b *testing.B)      { benchExperiment(b, experiments.Fig5Crimes) }
func BenchmarkHARStudy(b *testing.B)        { benchExperiment(b, experiments.HARStudy) }
func BenchmarkTable1Comparative(b *testing.B) {
	benchExperiment(b, experiments.Tab1Comparative)
}
func BenchmarkFig6Training(b *testing.B)    { benchExperiment(b, experiments.Fig6Training) }
func BenchmarkFig7Objectives(b *testing.B)  { benchExperiment(b, experiments.Fig7Objectives) }
func BenchmarkFig8Sensitivity(b *testing.B) { benchExperiment(b, experiments.Fig8Sensitivity) }
func BenchmarkFig9Convergence(b *testing.B) { benchExperiment(b, experiments.Fig9Convergence) }
func BenchmarkFig10GSOScaling(b *testing.B) { benchExperiment(b, experiments.Fig10GSOScaling) }
func BenchmarkFig11Surrogate(b *testing.B)  { benchExperiment(b, experiments.Fig11Surrogate) }
func BenchmarkFig12Complexity(b *testing.B) { benchExperiment(b, experiments.Fig12Complexity) }

// BenchmarkAblations covers the design-choice studies (KDE prior on/
// off, GSO vs PSO, grid index vs scan, histogram bin count).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, experiments.Ablations) }

// --- Component micro-benchmarks ---

func benchDataset(n int) *synth.Dataset {
	return synth.MustGenerate(synth.Config{
		Dims: 2, Regions: 1, Stat: synth.Density, N: n, Seed: 201,
	})
}

// BenchmarkEvaluateLinearScan measures one true-f region evaluation by
// full scan — the per-query cost the paper attributes to the back-end.
func BenchmarkEvaluateLinearScan(b *testing.B) {
	ds := benchDataset(100000)
	ev, err := dataset.NewLinearScan(ds.Data, ds.Spec)
	if err != nil {
		b.Fatal(err)
	}
	region := geom.FromCenter([]float64{0.5, 0.5}, []float64{0.1, 0.1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Evaluate(region)
	}
}

// BenchmarkEvaluateGridIndex measures the same evaluation via the
// uniform grid index.
func BenchmarkEvaluateGridIndex(b *testing.B) {
	ds := benchDataset(100000)
	ev, err := dataset.NewGridIndex(ds.Data, ds.Spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	region := geom.FromCenter([]float64{0.5, 0.5}, []float64{0.1, 0.1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Evaluate(region)
	}
}

// BenchmarkSurrogatePredict measures one f̂ evaluation — the
// N-independent cost that replaces the scans above.
func BenchmarkSurrogatePredict(b *testing.B) {
	ds := benchDataset(20000)
	ev, err := dataset.NewGridIndex(ds.Data, ds.Spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	log, err := synth.GenerateWorkload(ev, ds.Domain(), synth.DefaultWorkloadConfig(2000))
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.TrainSurrogate(log, gbt.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.5, 0.5}
	l := []float64{0.1, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Predict(x, l)
	}
}

// BenchmarkGBTTrain measures surrogate training on 5k queries.
func BenchmarkGBTTrain(b *testing.B) {
	rng := rand.New(rand.NewPCG(202, 202))
	const n = 5000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = 1000 * X[i][0] * X[i][2]
	}
	p := gbt.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gbt.Train(p, X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGSORun measures a full GSO run (L=100, T=100) on a cheap
// analytic objective — the optimizer overhead excluding model cost.
func BenchmarkGSORun(b *testing.B) {
	obj := gso.ObjectiveFunc(func(pos []float64) (float64, bool) {
		var s float64
		for _, v := range pos {
			s -= (v - 0.5) * (v - 0.5)
		}
		return s, true
	})
	p := gso.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gso.Run(p, geom.Unit(4), obj, gso.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKDEBoxMass measures one Eq. 8 box-mass computation on a
// 2-D KDE over uniform points: a 0.1 half-side box on a 500-point
// sample, and the shape of a use_kde find, a box at the swarm's
// minimum 0.01 half-side on the default 1,000-point sample.
func BenchmarkKDEBoxMass(b *testing.B) {
	for _, c := range []struct {
		points int
		half   float64
	}{{500, 0.1}, {1000, 0.01}} {
		b.Run(fmt.Sprintf("n=%d/l=%g", c.points, c.half), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(203, 203))
			pts := make([][]float64, c.points)
			for i := range pts {
				pts[i] = []float64{rng.Float64(), rng.Float64()}
			}
			k, err := kde.Fit(pts, kde.Options{})
			if err != nil {
				b.Fatal(err)
			}
			box := geom.FromCenter([]float64{0.5, 0.5}, []float64{c.half, c.half})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				boxMassSink = k.BoxMass(box)
			}
		})
	}
}

// boxMassSink keeps BenchmarkKDEBoxMass's call from being optimised away.
var boxMassSink float64

// BenchmarkEndToEndFind measures a complete surrogate-backed Find on
// the public API (excluding training).
func BenchmarkEndToEndFind(b *testing.B) {
	rng := rand.New(rand.NewPCG(204, 204))
	const n = 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			xs[i] = 0.7 + rng.NormFloat64()*0.05
			ys[i] = 0.3 + rng.NormFloat64()*0.05
		} else {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
	}
	ds, err := NewDataset([]string{"x", "y"}, [][]float64{xs, ys})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := Open(ds, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	if err != nil {
		b.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(2500, 7)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Find(Query{Threshold: 800, Above: true, MinSideFrac: 0.05, SkipVerify: true, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkFindKDE measures one use_kde find (L = 50, T = 10, verified)
// on the benchmark's 1.36M-row density dataset, with a surrogate
// trained as cmd/surf-perf's find-kde workload trains it. "shared"
// runs on a data version whose prior an earlier query fitted, as every
// use_kde query after the first does; "fresh-version" swaps in a new
// data version (untimed) before each find, so each find pays the fit.
func BenchmarkFindKDE(b *testing.B) {
	gen := synth.MustGenerate(synth.Config{
		Dims: 2, Regions: 3, Stat: synth.Density, N: 1_000_000, BoostPerRegion: 120_000, Seed: 1,
	})
	ds, err := NewDataset([]string{"a1", "a2"}, [][]float64{gen.Data.Col(0), gen.Data.Col(1)})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := Open(ds, Config{FilterColumns: []string{"a1", "a2"}, Statistic: Count, UseGridIndex: true}, WithResultCache(0))
	if err != nil {
		b.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(2000, 7)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{Seed: 7}); err != nil {
		b.Fatal(err)
	}
	find := func(b *testing.B, seed uint64) {
		q := Query{Threshold: 100_000, Above: true, UseKDE: true, Glowworms: 50, Iterations: 10, Seed: seed}
		if _, err := eng.Find(q); err != nil {
			b.Fatal(err)
		}
	}
	version := uint64(1)
	b.Run("shared", func(b *testing.B) {
		find(b, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			find(b, uint64(i+2))
		}
	})
	b.Run("fresh-version", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			version++
			if err := eng.SetDataset(ds, version); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			find(b, uint64(i+2))
		}
	})
}
