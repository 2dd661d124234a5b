package gbt

import (
	"bytes"
	"context"
	"math/rand/v2"
	"testing"

	"surf/internal/stats"
)

func TestContinueTrainingImprovesFit(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	X, y := synthRegression(rng, 1500)
	p := DefaultParams()
	p.NumTrees = 20 // deliberately underfit
	m, err := Train(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := stats.RMSE(walkAll(m, X), y)
	if err := m.ContinueTrainingContext(context.Background(), 80, X, y); err != nil {
		t.Fatal(err)
	}
	after, _ := stats.RMSE(walkAll(m, X), y)
	if after >= before {
		t.Errorf("continued RMSE %g did not improve on %g", after, before)
	}
	if m.NumTrees() != 100 {
		t.Errorf("NumTrees = %d, want 100", m.NumTrees())
	}
}

func TestContinueTrainingOnNewData(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	X1, y1 := synthRegression(rng, 800)
	m, err := Train(DefaultParams(), X1, y1)
	if err != nil {
		t.Fatal(err)
	}
	// New data from a shifted distribution: continuation must adapt.
	n := 800
	X2 := make([][]float64, n)
	y2 := make([]float64, n)
	for i := 0; i < n; i++ {
		x0, x1 := rng.Float64(), rng.Float64()
		X2[i] = []float64{x0, x1}
		y2[i] = 3*x0 - 2*x1 + x0*x1 + 5 // constant shift
	}
	before, _ := stats.RMSE(walkAll(m, X2), y2)
	if err := m.ContinueTrainingContext(context.Background(), 60, X2, y2); err != nil {
		t.Fatal(err)
	}
	after, _ := stats.RMSE(walkAll(m, X2), y2)
	if after >= before/2 {
		t.Errorf("continuation on shifted data: RMSE %g -> %g, want at least halved", before, after)
	}
}

func TestContinueTrainingValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	X, y := synthRegression(rng, 200)
	m, _ := Train(DefaultParams(), X, y)
	if err := m.ContinueTrainingContext(context.Background(), 0, X, y); err == nil {
		t.Error("expected error for zero extra rounds")
	}
	if err := m.ContinueTrainingContext(context.Background(), 5, nil, nil); err == nil {
		t.Error("expected error for empty continuation set")
	}
	if err := m.ContinueTrainingContext(context.Background(), 5, X, y[:10]); err == nil {
		t.Error("expected error for label mismatch")
	}
	if err := m.ContinueTrainingContext(context.Background(), 5, [][]float64{{1}}, []float64{1}); err == nil {
		t.Error("expected error for feature-width mismatch")
	}
	var empty Model
	if err := empty.ContinueTrainingContext(context.Background(), 5, X, y); err != ErrNotTrained {
		t.Errorf("want ErrNotTrained, got %v", err)
	}
}

func TestContinueTrainingSurvivesSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	X, y := synthRegression(rng, 500)
	p := DefaultParams()
	p.NumTrees = 30
	m, _ := Train(p, X, y)
	if err := m.ContinueTrainingContext(context.Background(), 30, X, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.4, 0.6}
	want := walk(m, probe)
	// The combined ensemble round-trips through serialization.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := walk(back, probe); got != want {
		t.Errorf("prediction after round trip = %g, want %g", got, want)
	}
}
