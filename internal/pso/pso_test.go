package pso

import (
	"math"
	"testing"

	"surf/internal/geom"
	"surf/internal/gso"
)

func sphere(center []float64) gso.ObjectiveFunc {
	return func(pos []float64) (float64, bool) {
		var d2 float64
		for j := range pos {
			d := pos[j] - center[j]
			d2 += d * d
		}
		return -d2, true
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	p := DefaultParams()
	p.MaxIters = 0
	if err := p.Validate(); err == nil {
		t.Error("MaxIters 0 should be invalid")
	}
}

func TestFindsSphereOptimum(t *testing.T) {
	center := []float64{0.3, 0.7, 0.5}
	res, err := Run(DefaultParams(), geom.Unit(3), sphere(center))
	if err != nil {
		t.Fatal(err)
	}
	for j := range center {
		if math.Abs(res.Best[j]-center[j]) > 0.05 {
			t.Errorf("Best[%d] = %g, want ~%g", j, res.Best[j], center[j])
		}
	}
	if res.BestFitness < -0.01 {
		t.Errorf("BestFitness = %g, want ~0", res.BestFitness)
	}
}

func TestCollapsesToSinglePeak(t *testing.T) {
	// Two equal peaks: PSO's global best drags the whole swarm to one
	// of them — the multimodality failure GSO avoids.
	obj := gso.ObjectiveFunc(func(pos []float64) (float64, bool) {
		d1 := math.Abs(pos[0] - 0.2)
		d2 := math.Abs(pos[0] - 0.8)
		return math.Max(math.Exp(-d1*d1/0.005), math.Exp(-d2*d2/0.005)), true
	})
	p := DefaultParams()
	p.MaxIters = 200
	res, err := Run(p, geom.Unit(1), obj)
	if err != nil {
		t.Fatal(err)
	}
	near1, near2 := 0, 0
	for _, pos := range res.Positions {
		if math.Abs(pos[0]-0.2) < 0.1 {
			near1++
		}
		if math.Abs(pos[0]-0.8) < 0.1 {
			near2++
		}
	}
	// The swarm should be overwhelmingly at one peak, not split.
	smaller := near1
	if near2 < smaller {
		smaller = near2
	}
	total := near1 + near2
	if total == 0 {
		t.Fatal("swarm converged to neither peak")
	}
	if float64(smaller)/float64(total) > 0.25 {
		t.Errorf("swarm split %d/%d across peaks; expected collapse to one", near1, near2)
	}
}

func TestInvalidSpaceNeverBest(t *testing.T) {
	// Fitness only defined on the right half.
	obj := gso.ObjectiveFunc(func(pos []float64) (float64, bool) {
		if pos[0] < 0.5 {
			return 100, false // high value but invalid: must be ignored
		}
		return pos[0], true
	})
	res, err := Run(DefaultParams(), geom.Unit(1), obj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] < 0.5 {
		t.Errorf("best position %g is in the invalid half", res.Best[0])
	}
	if math.IsInf(res.BestFitness, -1) {
		t.Error("valid space existed but no best recorded")
	}
}

func TestDeterminism(t *testing.T) {
	obj := sphere([]float64{0.5, 0.5})
	p := DefaultParams()
	p.MaxIters = 20
	r1, _ := Run(p, geom.Unit(2), obj)
	r2, _ := Run(p, geom.Unit(2), obj)
	if r1.BestFitness != r2.BestFitness {
		t.Error("same seed should reproduce")
	}
	for j := range r1.Best {
		if r1.Best[j] != r2.Best[j] {
			t.Error("same seed should reproduce positions")
		}
	}
}

func TestBoundsRespected(t *testing.T) {
	bounds := geom.NewRect([]float64{-2, 5}, []float64{-1, 6})
	obj := sphere([]float64{-1.5, 5.5})
	res, err := Run(DefaultParams(), bounds, obj)
	if err != nil {
		t.Fatal(err)
	}
	for i, pos := range res.Positions {
		if !bounds.Contains(pos) {
			t.Errorf("particle %d escaped: %v", i, pos)
		}
	}
}

func TestZeroDimBounds(t *testing.T) {
	if _, err := Run(DefaultParams(), geom.Rect{}, sphere(nil)); err == nil {
		t.Error("expected error for zero-dimensional bounds")
	}
}

func TestEvaluationCount(t *testing.T) {
	p := DefaultParams()
	p.MaxIters = 5
	res, err := Run(p, geom.Unit(2), sphere([]float64{0.5, 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	want := particles + particles*5 // init + per-iteration
	if res.Evaluations != want {
		t.Errorf("Evaluations = %d, want %d", res.Evaluations, want)
	}
}
