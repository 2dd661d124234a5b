package gbt

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"surf/internal/stats"
)

// synthRegression produces y = 3x0 − 2x1 + x0·x1 + noise.
func synthRegression(rng *rand.Rand, n int) (X [][]float64, y []float64) {
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		x0 := rng.Float64()
		x1 := rng.Float64()
		X[i] = []float64{x0, x1}
		y[i] = 3*x0 - 2*x1 + x0*x1 + rng.NormFloat64()*0.05
	}
	return X, y
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.NumTrees = 0 },
		func(p *Params) { p.LearningRate = 0 },
		func(p *Params) { p.LearningRate = 1.5 },
		func(p *Params) { p.MaxDepth = -1 },
		func(p *Params) { p.Lambda = -1 },
		func(p *Params) { p.MaxBins = 1 },
		func(p *Params) { p.MaxBins = 300 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

func TestTrainInputValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := Train(p, nil, nil); err == nil {
		t.Error("expected error for empty training set")
	}
	if _, err := Train(p, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("expected error for row/label mismatch")
	}
	if _, err := Train(p, [][]float64{{}}, []float64{1}); err == nil {
		t.Error("expected error for zero features")
	}
}

func TestSingleLeafPredictsMean(t *testing.T) {
	p := DefaultParams()
	p.NumTrees = 1
	p.MaxDepth = 0
	p.LearningRate = 1
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{10, 20, 30, 40}
	m, err := Train(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	// Depth-0 tree: base score (mean) plus a leaf correcting toward
	// the residual mean; with lambda=1 the correction is slightly
	// shrunken, so expect close to mean but regularized.
	got := walk(m, []float64{2.5})
	if math.Abs(got-25) > 1.0 {
		t.Errorf("single-leaf prediction = %g, want ≈ 25", got)
	}
}

func TestFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	X, y := synthRegression(rng, 2000)
	p := DefaultParams()
	p.NumTrees = 150
	m, err := Train(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	pred := walkAll(m, X)
	rmse, _ := stats.RMSE(pred, y)
	if rmse > 0.15 {
		t.Errorf("training RMSE = %g, want < 0.15", rmse)
	}
	// Generalization on fresh data.
	Xt, yt := synthRegression(rng, 500)
	rmseT, _ := stats.RMSE(walkAll(m, Xt), yt)
	if rmseT > 0.25 {
		t.Errorf("test RMSE = %g, want < 0.25", rmseT)
	}
}

func TestMoreTreesReduceTrainingError(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 1))
	X, y := synthRegression(rng, 800)
	var prev float64 = math.Inf(1)
	for _, trees := range []int{5, 25, 100} {
		p := DefaultParams()
		p.NumTrees = trees
		m, err := Train(p, X, y)
		if err != nil {
			t.Fatal(err)
		}
		rmse, _ := stats.RMSE(walkAll(m, X), y)
		if rmse > prev+1e-9 {
			t.Errorf("RMSE increased from %g to %g at %d trees", prev, rmse, trees)
		}
		prev = rmse
	}
}

func TestDeeperTreesFitBetter(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	// A sharply non-linear target that shallow trees cannot capture.
	n := 1500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0, x1 := rng.Float64(), rng.Float64()
		X[i] = []float64{x0, x1}
		if x0 > 0.5 && x1 > 0.5 {
			y[i] = 10
		} else if x0 < 0.2 {
			y[i] = -5
		}
	}
	rmseAt := func(depth int) float64 {
		p := DefaultParams()
		p.MaxDepth = depth
		p.NumTrees = 50
		m, err := Train(p, X, y)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := stats.RMSE(walkAll(m, X), y)
		return r
	}
	shallow := rmseAt(1)
	deep := rmseAt(6)
	if deep >= shallow {
		t.Errorf("depth 6 RMSE %g should beat depth 1 RMSE %g", deep, shallow)
	}
}

// TestDeterminismWithSeed: training draws nothing at random, so two
// runs give identical models and Params.Seed changes nothing.
func TestDeterminismWithSeed(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	X, y := synthRegression(rng, 400)
	p := DefaultParams()
	p.Seed = 99
	m1, _ := Train(p, X, y)
	m2, _ := Train(p, X, y)
	p.Seed = 100
	m3, _ := Train(p, X, y)
	ref := serializeModel(t, m1)
	if !bytes.Equal(serializeModel(t, m2), ref) {
		t.Error("two runs with the same params should give identical models")
	}
	// Save writes Params, so compare the trees through predictions.
	for _, probe := range [][]float64{{0.3, 0.7}, {0.9, 0.1}, {0.5, 0.5}} {
		if walk(m1, probe) != walk(m3, probe) {
			t.Errorf("Seed changed the prediction at %v", probe)
		}
	}
}

func TestConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}}
	y := []float64{7, 7, 7, 7, 7}
	m, err := Train(DefaultParams(), X, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range X {
		if got := walk(m, row); math.Abs(got-7) > 1e-6 {
			t.Errorf("constant target prediction = %g, want 7", got)
		}
	}
}

func TestPredictPanicsOnWrongWidth(t *testing.T) {
	m, _ := Train(DefaultParams(), [][]float64{{1, 2}, {3, 4}, {5, 6}}, []float64{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Compile().Predict1([]float64{1})
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 1))
	X, y := synthRegression(rng, 500)
	m, err := Train(DefaultParams(), X, y)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumFeatures() != 2 || back.NumTrees() != m.NumTrees() {
		t.Fatalf("shape mismatch after round trip")
	}
	for trial := 0; trial < 50; trial++ {
		row := []float64{rng.Float64(), rng.Float64()}
		if walk(m, row) != walk(back, row) {
			t.Fatalf("prediction mismatch after round trip")
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("junk")); err == nil {
		t.Error("expected error for junk input")
	}
}

func TestBinnerMapping(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
	b := newBinner(X, 4)
	if b.features() != 1 {
		t.Fatalf("features = %d", b.features())
	}
	if b.numBins(0) < 2 || b.numBins(0) > 4 {
		t.Fatalf("numBins = %d, want in [2,4]", b.numBins(0))
	}
	// Bins must be monotone in the raw value.
	prev := uint8(0)
	for v := 0.5; v <= 8.5; v += 0.5 {
		bin := b.binOf(0, v)
		if bin < prev {
			t.Fatalf("bin(%g) = %d below previous %d", v, bin, prev)
		}
		prev = bin
	}
}

func TestBinnerConstantFeature(t *testing.T) {
	X := [][]float64{{5}, {5}, {5}}
	b := newBinner(X, 8)
	if b.numBins(0) != 1 {
		t.Errorf("constant feature should have 1 bin, got %d", b.numBins(0))
	}
}

func TestQuantileCutsAscendingUnique(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 1))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = math.Floor(rng.Float64() * 10) // many duplicates
	}
	cuts := quantileCuts(vals, 64)
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not strictly ascending at %d: %v", i, cuts)
		}
	}
	if len(cuts) > 63 {
		t.Fatalf("too many cuts: %d", len(cuts))
	}
}

func TestTreePredictConsistentWithBins(t *testing.T) {
	// Train a depth-1 ensemble and check the split threshold respects
	// raw-value semantics: rows left of the threshold get the left
	// leaf, others the right leaf.
	X := [][]float64{{1}, {2}, {3}, {10}, {11}, {12}}
	y := []float64{0, 0, 0, 100, 100, 100}
	p := DefaultParams()
	p.NumTrees = 1
	p.MaxDepth = 1
	p.LearningRate = 1
	p.Lambda = 0
	m, err := Train(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	lo := walk(m, []float64{2})
	hi := walk(m, []float64{11})
	if math.Abs(lo-0) > 1 || math.Abs(hi-100) > 1 {
		t.Errorf("split predictions = %g, %g; want ≈ 0 and ≈ 100", lo, hi)
	}
}
