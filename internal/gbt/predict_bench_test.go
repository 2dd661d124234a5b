package gbt

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"surf/internal/gbt/kernel"
)

// The inference micro-benchmarks compare the compiled model's
// row-at-a-time Predict1 (BenchmarkPredict1, the path of a single
// Surrogate.Predict) with its batch predictor (BenchmarkPredictBatch)
// at swarm-sized batches. CI's bench job runs them on every push to
// main and every pull request:
//
//	go test -bench=Predict -benchtime=200ms -run='^$' ./internal/gbt/
//
// The shared benchEnsemble sizes the ensemble so its node arrays
// exceed the L2 cache — per-row walks then drag the whole model
// through the cache once per row, which is exactly the pattern the
// trees-outer/rows-inner batch loop avoids.
var inferenceBench struct {
	once sync.Once
	c    *kernel.Model
	X    [][]float64
	out  []float64
}

const inferenceBenchRows = 1024

// benchEnsemble trains the deterministic 4-feature ensemble the
// inference benchmarks measure, plus probeRows random probe rows. The
// default 300x8 configuration sizes the node arrays well past L2,
// making the per-row walk pay the full cache cost it pays in
// production swarms.
func benchEnsemble(trees, depth, probeRows int) (*Model, [][]float64, error) {
	rng := rand.New(rand.NewPCG(17, 1))
	const n = 6000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = 1000*X[i][0]*X[i][2] + 100*X[i][1] - 50*X[i][3]
	}
	p := DefaultParams()
	p.NumTrees = trees
	p.MaxDepth = depth
	m, err := Train(p, X, y)
	if err != nil {
		return nil, nil, err
	}
	probes := make([][]float64, probeRows)
	for i := range probes {
		probes[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	return m, probes, nil
}

func inferenceBenchSetup(b *testing.B) {
	inferenceBench.once.Do(func() {
		m, probes, err := benchEnsemble(300, 8, inferenceBenchRows)
		if err != nil {
			panic(err)
		}
		inferenceBench.c = m.Compile()
		inferenceBench.X = probes
		inferenceBench.out = make([]float64, inferenceBenchRows)
	})
	b.Helper()
}

var benchSink float64

// BenchmarkPredict1 is the row-at-a-time baseline: one walk of every
// tree per row.
func BenchmarkPredict1(b *testing.B) {
	inferenceBenchSetup(b)
	for _, rows := range []int{1, 64, 256, 1024} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			X := inferenceBench.X[:rows]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, row := range X {
					benchSink = inferenceBench.c.Predict1(row)
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkPredictBatch is the compiled trees-outer/rows-inner batch
// path writing into a caller-owned buffer (0 allocs/op steady state).
func BenchmarkPredictBatch(b *testing.B) {
	inferenceBenchSetup(b)
	for _, rows := range []int{1, 64, 256, 1024} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			X := inferenceBench.X[:rows]
			out := inferenceBench.out[:rows]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inferenceBench.c.PredictBatch(X, out)
			}
			benchSink = out[0]
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkPredictBatchSurrogate runs the compiled model on an
// ensemble shaped like a default surrogate over a 2-D filter — 100
// trees of depth 6 over the 4 [x, l] features — at a 70-row batch,
// one of two swarm workers' shards in a default find: the swarm scores
// only the worms that moved, about 14,100 rows over 100 iterations.
// 70 is not a multiple of the kernel's eight-row group, so the padded
// last group is measured too.
func BenchmarkPredictBatchSurrogate(b *testing.B) {
	m, probes, err := benchEnsemble(100, 6, 70)
	if err != nil {
		b.Fatal(err)
	}
	c := m.Compile()
	out := make([]float64, len(probes))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c.PredictBatch(probes, out)
	}
	benchSink = out[0]
	b.ReportMetric(float64(len(probes))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
