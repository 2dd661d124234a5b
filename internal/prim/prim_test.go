package prim

import (
	"math"
	"math/rand/v2"
	"testing"

	"surf/internal/geom"
)

// plantedData builds uniform points in [0,1]^dims with high response
// inside the given boxes and ~0 elsewhere.
func plantedData(rng *rand.Rand, n, dims int, boxes []geom.Rect, hi float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		p := make([]float64, dims)
		for j := range p {
			p[j] = rng.Float64()
		}
		X[i] = p
		y[i] = rng.NormFloat64() * 0.1
		for _, b := range boxes {
			if b.Contains(p) {
				y[i] = hi + rng.NormFloat64()*0.1
				break
			}
		}
	}
	return X, y
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	p := DefaultParams()
	p.MaxBoxes = 0
	if err := p.Validate(); err == nil {
		t.Error("MaxBoxes 0 should be invalid")
	}
}

func TestFitInputValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := Fit(p, nil, nil); err == nil {
		t.Error("expected error for empty data")
	}
	if _, err := Fit(p, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := Fit(p, [][]float64{{}}, []float64{1}); err == nil {
		t.Error("expected error for zero dims")
	}
	if _, err := Fit(p, [][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Error("expected error for ragged rows")
	}
}

func TestFindsSingleBump2D(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	gt := geom.NewRect([]float64{0.3, 0.3}, []float64{0.5, 0.5})
	X, y := plantedData(rng, 4000, 2, []geom.Rect{gt}, 5)
	p := DefaultParams()
	p.MaxBoxes = 1
	p.Threshold = 2
	boxes, err := Fit(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Fatalf("found %d boxes, want 1", len(boxes))
	}
	iou := boxes[0].Rect.IoU(gt)
	if iou < 0.5 {
		t.Errorf("IoU with ground truth = %g (box %v), want >= 0.5", iou, boxes[0].Rect)
	}
	if boxes[0].Mean < 4 {
		t.Errorf("box mean = %g, want ~5", boxes[0].Mean)
	}
}

func TestFindsMultipleBumpsViaCovering(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 1))
	gts := []geom.Rect{
		geom.NewRect([]float64{0.1, 0.1}, []float64{0.3, 0.3}),
		geom.NewRect([]float64{0.7, 0.7}, []float64{0.9, 0.9}),
	}
	X, y := plantedData(rng, 6000, 2, gts, 5)
	p := DefaultParams()
	p.MaxBoxes = 2
	p.Threshold = 2
	boxes, err := Fit(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 2 {
		t.Fatalf("found %d boxes, want 2", len(boxes))
	}
	// Each ground truth should be matched by one box with decent IoU.
	for _, gt := range gts {
		best := 0.0
		for _, b := range boxes {
			if iou := b.Rect.IoU(gt); iou > best {
				best = iou
			}
		}
		if best < 0.4 {
			t.Errorf("ground truth %v best IoU = %g, want >= 0.4", gt, best)
		}
	}
}

func TestThresholdStopsCovering(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	gt := geom.NewRect([]float64{0.4, 0.4}, []float64{0.6, 0.6})
	X, y := plantedData(rng, 3000, 2, []geom.Rect{gt}, 5)
	p := DefaultParams()
	p.MaxBoxes = 10
	p.Threshold = 3 // only the real bump exceeds this
	boxes, err := Fit(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Errorf("threshold should stop after the real bump; got %d boxes", len(boxes))
	}
}

func TestMinSupportRespected(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 1))
	gt := geom.NewRect([]float64{0.45, 0.45}, []float64{0.55, 0.55})
	X, y := plantedData(rng, 2000, 2, []geom.Rect{gt}, 5)
	p := DefaultParams()
	p.MaxBoxes = 1
	boxes, err := Fit(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) == 0 {
		t.Fatal("no box found")
	}
	if floor := int(math.Ceil(minSupport * 2000)); boxes[0].Support < floor {
		t.Errorf("support %d below the β₀ floor %d", boxes[0].Support, floor)
	}
}

func TestConstantResponseIsDegenerate(t *testing.T) {
	// With y constant (the "density" statistic proxy) PRIM has no
	// gradient to climb — the paper's explanation for its failure on
	// density ground truths. The first box should stay near the full
	// bounding box.
	rng := rand.New(rand.NewPCG(5, 1))
	n := 1000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 1
	}
	p := DefaultParams()
	p.MaxBoxes = 1
	boxes, err := Fit(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Fatalf("got %d boxes", len(boxes))
	}
	if boxes[0].Mean != 1 {
		t.Errorf("mean = %g, want 1", boxes[0].Mean)
	}
}

func TestBump1D(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	gt := geom.NewRect([]float64{0.6}, []float64{0.8})
	X, y := plantedData(rng, 3000, 1, []geom.Rect{gt}, 3)
	p := DefaultParams()
	p.MaxBoxes = 1
	boxes, err := Fit(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Fatalf("got %d boxes", len(boxes))
	}
	if iou := boxes[0].Rect.IoU(gt); iou < 0.5 {
		t.Errorf("1D IoU = %g, want >= 0.5", iou)
	}
}

func TestMaxBoxesCap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	gts := []geom.Rect{
		geom.NewRect([]float64{0.05, 0.05}, []float64{0.25, 0.25}),
		geom.NewRect([]float64{0.4, 0.4}, []float64{0.6, 0.6}),
		geom.NewRect([]float64{0.75, 0.75}, []float64{0.95, 0.95}),
	}
	X, y := plantedData(rng, 6000, 2, gts, 5)
	p := DefaultParams()
	p.MaxBoxes = 2
	p.Threshold = 2
	boxes, err := Fit(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) > 2 {
		t.Errorf("MaxBoxes=2 but got %d boxes", len(boxes))
	}
}

func TestQuantileHelper(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if q := quantile(vals, 0); q != 1 {
		t.Errorf("q0 = %g", q)
	}
	if q := quantile(vals, 1); q != 5 {
		t.Errorf("q1 = %g", q)
	}
	if q := quantile(vals, 0.5); q != 3 {
		t.Errorf("q0.5 = %g", q)
	}
	// Input not mutated.
	in := []float64{3, 1, 2}
	_ = quantile(in, 0.5)
	if in[0] != 3 {
		t.Error("quantile mutated input")
	}
}

func TestPastingImprovesOverPeelOnly(t *testing.T) {
	// A bump hugging the domain edge: aggressive peeling overshoots,
	// pasting should recover some of the lost volume. We only verify
	// the final mean is at least as good as a peel-only run by
	// checking the box still captures the bump.
	rng := rand.New(rand.NewPCG(8, 1))
	gt := geom.NewRect([]float64{0.0, 0.0}, []float64{0.2, 0.2})
	X, y := plantedData(rng, 4000, 2, []geom.Rect{gt}, 5)
	p := DefaultParams()
	p.MaxBoxes = 1
	boxes, err := Fit(p, X, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Fatalf("got %d boxes", len(boxes))
	}
	if boxes[0].Mean < 3 {
		t.Errorf("edge bump mean = %g, want > 3", boxes[0].Mean)
	}
	if !math.IsInf(DefaultParams().Threshold, -1) {
		t.Error("default threshold should be -Inf")
	}
}
