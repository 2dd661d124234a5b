package core

import (
	"context"
	"math"
	"testing"

	"surf/internal/dataset"
	"surf/internal/geom"
	"surf/internal/synth"
)

// TestFindTopKValidation: top-k rejects what the shared runner
// rejects for threshold queries, with the same error.
func TestFindTopKValidation(t *testing.T) {
	finder, _ := NewFinder(constStat(1), geom.Unit(1))
	ctx := context.Background()
	if _, err := finder.FindTopKContext(ctx, TopKConfig{K: 0}); err == nil {
		t.Error("expected error for K=0")
	}
	for _, tc := range []struct {
		name             string
		minSide, maxSide float64
	}{
		{"inverted side fractions", 0.2, 0.1},
		{"negative min side fraction", -0.1, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, want := finder.FindContext(ctx, FinderConfig{Threshold: 0, Dir: Above, MinSideFrac: tc.minSide, MaxSideFrac: tc.maxSide})
			if want == nil {
				t.Fatal("FindContext accepted the side fractions")
			}
			res, err := finder.FindTopKContext(ctx, TopKConfig{K: 2, MinSideFrac: tc.minSide, MaxSideFrac: tc.maxSide})
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("FindTopKContext = (%v, %v), want error %q", res, err, want)
			}
		})
	}
}

func TestFindTopKLargest(t *testing.T) {
	// Two bumps of different heights; top-1 must pick the taller.
	stat := func(x, l []float64) float64 {
		d1 := (x[0] - 0.25) * (x[0] - 0.25)
		d2 := (x[0] - 0.75) * (x[0] - 0.75)
		return 500*math.Exp(-d1/0.01) + 900*math.Exp(-d2/0.01)
	}
	finder, _ := NewFinder(stat, geom.Unit(1))
	res, err := finder.FindTopKContext(context.Background(), TopKConfig{K: 1, Largest: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 1 {
		t.Fatalf("got %d regions, want 1", len(res.Regions))
	}
	c := res.Regions[0].Rect.Center()
	if math.Abs(c[0]-0.75) > 0.15 {
		t.Errorf("top-1 center = %g, want near the taller bump at 0.75", c[0])
	}
}

func TestFindTopKMultipleRegions(t *testing.T) {
	ds := synth.MustGenerate(synth.Config{Dims: 1, Regions: 3, Stat: synth.Density, N: 8000, Seed: 61})
	ev, err := dataset.NewLinearScan(ds.Data, ds.Spec)
	if err != nil {
		t.Fatal(err)
	}
	finder, _ := NewFinder(StatFnFromEvaluator(ev), ds.Domain())
	cfg := TopKConfig{K: 3, Largest: true}
	cfg.GSO.MaxIters = 150
	res, err := finder.FindTopKContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("no regions found")
	}
	if len(res.Regions) > 3 {
		t.Fatalf("got %d regions for K=3", len(res.Regions))
	}
	// The best region overlaps some ground truth.
	bestIoU := 0.0
	for _, gt := range ds.GT {
		if iou := res.Regions[0].Rect.IoU(gt); iou > bestIoU {
			bestIoU = iou
		}
	}
	if bestIoU < 0.1 {
		t.Errorf("top region IoU vs GT = %g, want >= 0.1", bestIoU)
	}
	// Ordered by estimate, descending.
	for i := 1; i < len(res.Regions); i++ {
		if res.Regions[i].Estimate > res.Regions[i-1].Estimate {
			t.Error("regions not sorted by estimate")
		}
	}
}

func TestFindTopKSmallest(t *testing.T) {
	// Statistic grows with x; the smallest-statistic region sits left.
	stat := func(x, l []float64) float64 { return 100 * x[0] }
	finder, _ := NewFinder(stat, geom.Unit(1))
	res, err := finder.FindTopKContext(context.Background(), TopKConfig{K: 1, Largest: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 1 {
		t.Fatalf("got %d regions", len(res.Regions))
	}
	if c := res.Regions[0].Rect.Center(); c[0] > 0.35 {
		t.Errorf("smallest-statistic region center = %g, want near 0", c[0])
	}
}

func TestFindTopKSkipsNaNClusters(t *testing.T) {
	// Statistic defined only on the right half: clusters straddling
	// the NaN zone are dropped rather than reported.
	stat := func(x, l []float64) float64 {
		if x[0] < 0.5 {
			return math.NaN()
		}
		return x[0]
	}
	finder, _ := NewFinder(stat, geom.Unit(1))
	res, err := finder.FindTopKContext(context.Background(), TopKConfig{K: 4, Largest: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Regions {
		if math.IsNaN(r.Estimate) {
			t.Error("NaN-estimate region reported")
		}
	}
}
