package gbt

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// compileVariants covers the ensemble shapes the compiler must
// preserve: single-leaf trees (depth 0 and constant labels), deep
// trees, and ensembles over coarse 8-bin features.
func compileVariants() []Params {
	singleLeaf := DefaultParams()
	singleLeaf.MaxDepth = 0
	singleLeaf.NumTrees = 7

	deep := DefaultParams()
	deep.MaxDepth = 9
	deep.NumTrees = 60
	deep.MaxBins = 64

	coarse := DefaultParams()
	coarse.NumTrees = 40
	coarse.MaxBins = 8

	return []Params{singleLeaf, deep, coarse, DefaultParams()}
}

// walk is the reference prediction of a trained ensemble: the base
// score plus the leaf each tree's node walk reaches (rows with value
// ≤ Threshold go Left), summed in ensemble order. The compiled kernel
// must return it bit for bit.
func walk(m *Model, row []float64) float64 {
	out := m.baseScore
	for _, t := range m.trees {
		n := &t.Nodes[0]
		for n.Feature != leafMarker {
			if row[n.Feature] <= n.Threshold {
				n = &t.Nodes[n.Left]
			} else {
				n = &t.Nodes[n.Right]
			}
		}
		out += n.Weight
	}
	return out
}

// walkAll is walk over every row of X.
func walkAll(m *Model, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = walk(m, row)
	}
	return out
}

// TestCompiledMatchesModelQuick is the differential property test:
// for random ensembles, the compiled inference model must match the
// reference walk bit-for-bit, row by row and in batch, on probes
// inside and far outside the training domain.
func TestCompiledMatchesModelQuick(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 1))
	for vi, p := range compileVariants() {
		X, y := synthRegression(rng, 900)
		if p.MaxDepth == 0 {
			// Constant labels exercise the pure-base-score ensemble.
			for i := range y {
				y[i] = 42
			}
		}
		m, err := Train(p, X, y)
		if err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		probes := make([][]float64, 400)
		for i := range probes {
			probes[i] = []float64{rng.NormFloat64() * 20, rng.NormFloat64() * 20}
		}
		// Non-finite values must route identically too: NaN compares
		// false under <=, sending the walk right in both forms.
		probes = append(probes,
			[]float64{math.NaN(), 0.5},
			[]float64{0.5, math.NaN()},
			[]float64{math.NaN(), math.NaN()},
			[]float64{math.Inf(1), math.Inf(-1)},
			[]float64{math.Inf(-1), math.Inf(1)},
		)
		want := walkAll(m, probes)
		c := m.Compile()
		for _, row := range probes {
			if got, w := c.Predict1(row), walk(m, row); got != w {
				t.Fatalf("variant %d: compiled Predict1 %v != model %v on %v", vi, got, w, row)
			}
		}
		out := make([]float64, len(probes))
		c.PredictBatch(probes, out)
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("variant %d: PredictBatch[%d] = %v, model %v", vi, i, out[i], want[i])
			}
		}
	}
}

// Property: compiled and walked predictions agree bit-for-bit for any
// probe, including NaN/Inf-adjacent extremes quick generates.
func TestCompiledPredictQuick(t *testing.T) {
	rng := rand.New(rand.NewPCG(72, 1))
	X, y := synthRegression(rng, 700)
	p := DefaultParams()
	p.NumTrees = 50
	m, err := Train(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Compile()
	f := func(a, b float64) bool {
		row := []float64{a, b}
		return c.Predict1(row) == walk(m, row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCompileSnapshotIndependence: continuing training after Compile
// must not change the snapshot's predictions.
func TestCompileSnapshotIndependence(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 1))
	X, y := synthRegression(rng, 500)
	p := DefaultParams()
	p.NumTrees = 10
	m, err := Train(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Compile()
	probe := []float64{0.4, -0.2}
	before := c.Predict1(probe)
	if err := m.ContinueTrainingContext(context.Background(), 10, X, y); err != nil {
		t.Fatal(err)
	}
	if got := c.Predict1(probe); got != before {
		t.Errorf("snapshot changed after ContinueTrainingContext: %v -> %v", before, got)
	}
	if walk(m, probe) == before {
		t.Log("continued model happened to predict the same value; snapshot check still valid")
	}
}

// mustPanic asserts fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestBatchValidation: batch entry points validate the whole batch up
// front — output length and every row's width, not just row 0.
func TestBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(74, 1))
	X, y := synthRegression(rng, 300)
	m, err := Train(DefaultParams(), X, y)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	badRow2 := [][]float64{{1, 2}, {3, 4}, {5}}
	out := make([]float64, 3)

	want := walkAll(m, good)
	c := m.Compile()
	mustPanic(t, "PredictBatch short out", func() { c.PredictBatch(good, out[:2]) })
	mustPanic(t, "PredictBatch bad row 2", func() { c.PredictBatch(badRow2, out) })
	mustPanic(t, "Predict1 bad row", func() { c.Predict1([]float64{1}) })

	// Empty batches are no-ops.
	c.PredictBatch(nil, nil)

	// Valid batches still work after the panics above.
	c.PredictBatch(good, out)
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("PredictBatch[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}
