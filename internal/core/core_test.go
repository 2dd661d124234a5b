package core

import (
	"math"
	"slices"
	"testing"

	"surf/internal/dataset"
	"surf/internal/gbt"
	"surf/internal/geom"
	"surf/internal/gso"
	"surf/internal/synth"
)

func TestDirectionString(t *testing.T) {
	if Above.String() != "above" || Below.String() != "below" {
		t.Error("direction names wrong")
	}
	if Direction(7).String() != "Direction(7)" {
		t.Error("unknown direction name wrong")
	}
}

func TestObjectiveConfigValidate(t *testing.T) {
	if err := (ObjectiveConfig{YR: 1, C: 4}).Validate(); err != nil {
		t.Errorf("good config: %v", err)
	}
	if err := (ObjectiveConfig{YR: 1, C: 0}).Validate(); err == nil {
		t.Error("expected error for C=0")
	}
	if err := (ObjectiveConfig{YR: 1, C: 1, Dir: Direction(5)}).Validate(); err == nil {
		t.Error("expected error for unknown direction")
	}
}

func TestSatisfies(t *testing.T) {
	above := ObjectiveConfig{YR: 10, Dir: Above, C: 1}
	below := ObjectiveConfig{YR: 10, Dir: Below, C: 1}
	if !above.Satisfies(11) || above.Satisfies(9) || above.Satisfies(10) {
		t.Error("Above.Satisfies wrong")
	}
	if !below.Satisfies(9) || below.Satisfies(11) || below.Satisfies(10) {
		t.Error("Below.Satisfies wrong")
	}
	if above.Satisfies(math.NaN()) {
		t.Error("NaN should never satisfy")
	}
}

// constStat returns a fixed statistic for any region.
func constStat(v float64) StatFn {
	return func(x, l []float64) float64 { return v }
}

func TestLogObjectiveValues(t *testing.T) {
	// f = 5 everywhere, yR = 2, Above: diff = 3.
	obj, err := NewObjective(constStat(5), ObjectiveConfig{YR: 2, Dir: Above, C: 4})
	if err != nil {
		t.Fatal(err)
	}
	vec := geom.EncodeRegion([]float64{0.5}, []float64{0.1})
	got, ok := obj(vec)
	if !ok {
		t.Fatal("expected valid")
	}
	want := math.Log(3) - 4*math.Log(0.1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("J = %g, want %g", got, want)
	}
	// Constraint violation: f=5 < yR=2 is false for Below.
	objB, _ := NewObjective(constStat(5), ObjectiveConfig{YR: 2, Dir: Below, C: 4})
	if _, ok := objB(vec); ok {
		t.Error("Below with f > yR should be invalid")
	}
	// Non-positive side lengths are invalid.
	if _, ok := obj(geom.EncodeRegion([]float64{0.5}, []float64{0})); ok {
		t.Error("zero side should be invalid")
	}
	// NaN statistic is invalid.
	objNaN, _ := NewObjective(constStat(math.NaN()), ObjectiveConfig{YR: 2, Dir: Above, C: 4})
	if _, ok := objNaN(vec); ok {
		t.Error("NaN statistic should be invalid")
	}
}

func TestLogObjectivePenalizesSize(t *testing.T) {
	obj, _ := NewObjective(constStat(10), ObjectiveConfig{YR: 2, Dir: Above, C: 4})
	small, _ := obj(geom.EncodeRegion([]float64{0.5}, []float64{0.05}))
	large, _ := obj(geom.EncodeRegion([]float64{0.5}, []float64{0.5}))
	if small <= large {
		t.Errorf("smaller region should score higher: %g vs %g", small, large)
	}
}

func TestRatioObjectiveDefinedOnViolations(t *testing.T) {
	// The Eq. 2 form stays defined (negative) on violating regions —
	// the trap Fig. 7 illustrates.
	obj, _ := NewObjective(constStat(1), ObjectiveConfig{YR: 2, Dir: Above, C: 2, UseRatio: true})
	vec := geom.EncodeRegion([]float64{0.5}, []float64{0.1})
	got, ok := obj(vec)
	if !ok {
		t.Fatal("ratio objective should be defined")
	}
	want := (1.0 - 2.0) / math.Pow(0.1, 2)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ratio J = %g, want %g", got, want)
	}
	if got >= 0 {
		t.Error("violating region should score negative")
	}
}

func TestNewObjectiveErrors(t *testing.T) {
	if _, err := NewObjective(nil, ObjectiveConfig{YR: 1, C: 4}); err == nil {
		t.Error("expected error for nil stat")
	}
	if _, err := NewObjective(constStat(1), ObjectiveConfig{YR: 1, C: 0}); err == nil {
		t.Error("expected error for bad config")
	}
}

func TestStatFnFromEvaluator(t *testing.T) {
	ds := synth.MustGenerate(synth.Config{Dims: 2, Regions: 1, Stat: synth.Density, N: 2000, Seed: 1})
	ev, err := dataset.NewLinearScan(ds.Data, ds.Spec)
	if err != nil {
		t.Fatal(err)
	}
	fn := StatFnFromEvaluator(ev)
	gt := ds.GT[0]
	y := fn(gt.Center(), gt.HalfSides())
	want, _ := ev.Evaluate(gt)
	if y != want {
		t.Errorf("StatFn = %g, evaluator = %g", y, want)
	}
}

func trainTestSurrogate(t *testing.T, ds *synth.Dataset, queries int) *Surrogate {
	t.Helper()
	ev, err := dataset.NewLinearScan(ds.Data, ds.Spec)
	if err != nil {
		t.Fatal(err)
	}
	log, err := synth.GenerateWorkload(ev, ds.Domain(), synth.DefaultWorkloadConfig(queries))
	if err != nil {
		t.Fatal(err)
	}
	params := gbt.DefaultParams()
	params.NumTrees = 150
	s, err := TrainSurrogate(log, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTrainSurrogateAccuracy(t *testing.T) {
	ds := synth.MustGenerate(synth.Config{Dims: 2, Regions: 1, Stat: synth.Density, N: 8000, Seed: 2})
	s := trainTestSurrogate(t, ds, 3000)
	if s.Dims() != 2 {
		t.Fatalf("Dims = %d, want 2", s.Dims())
	}
	// The surrogate must rank the GT region far above a random
	// background region of equal size.
	gt := ds.GT[0]
	inGT := s.Predict(gt.Center(), gt.HalfSides())
	bg := s.Predict([]float64{0.05, 0.05}, gt.HalfSides())
	if inGT < 2*bg {
		t.Errorf("surrogate: GT=%g background=%g, want clear separation", inGT, bg)
	}
	if inGT < ds.SuggestedYR {
		t.Errorf("surrogate underestimates GT region: %g < %g", inGT, ds.SuggestedYR)
	}
}

func TestTrainSurrogateEmptyLog(t *testing.T) {
	if _, err := TrainSurrogate(nil, gbt.DefaultParams()); err != ErrEmptyLog {
		t.Errorf("want ErrEmptyLog, got %v", err)
	}
	if _, _, err := TrainSurrogateCV(nil, PaperGrid(gbt.DefaultParams()), 3, 1); err != ErrEmptyLog {
		t.Errorf("want ErrEmptyLog, got %v", err)
	}
}

func TestTrainSurrogateCV(t *testing.T) {
	ds := synth.MustGenerate(synth.Config{Dims: 1, Regions: 1, Stat: synth.Density, N: 3000, Seed: 3})
	ev, _ := dataset.NewLinearScan(ds.Data, ds.Spec)
	log, err := synth.GenerateWorkload(ev, ds.Domain(), synth.DefaultWorkloadConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	base := gbt.DefaultParams()
	base.NumTrees = 30
	// A tiny grid keeps the test fast while exercising the search.
	grid := ParamGrid(base, []float64{0.1, 0.3}, []int{2, 5}, []int{base.NumTrees}, []float64{base.Lambda})
	s, tune, err := TrainSurrogateCV(log, grid, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || tune == nil {
		t.Fatal("nil results")
	}
	if len(tune.RMSE) != 4 {
		t.Fatalf("grid evaluated %d combos, want 4", len(tune.RMSE))
	}
	best := slices.Index(grid, tune.Best)
	if best < 0 {
		t.Fatalf("Best %+v is not a grid entry", tune.Best)
	}
	for _, r := range tune.RMSE {
		if tune.RMSE[best] > r {
			t.Error("Best is not minimal")
		}
	}
	if p := s.Model().Params(); p != tune.Best {
		t.Errorf("final fit used %+v, want the winner %+v", p, tune.Best)
	}
}

func TestSurrogatePredictPanicsOnWrongDims(t *testing.T) {
	ds := synth.MustGenerate(synth.Config{Dims: 2, Regions: 1, Stat: synth.Density, N: 2000, Seed: 5})
	s := trainTestSurrogate(t, ds, 300)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Predict([]float64{0.5}, []float64{0.1})
}

func TestNewFinderValidation(t *testing.T) {
	if _, err := NewFinder(nil, geom.Unit(2)); err == nil {
		t.Error("expected error for nil stat")
	}
	if _, err := NewFinder(constStat(1), geom.Rect{}); err == nil {
		t.Error("expected error for empty domain")
	}
}

// TestFinderEndToEndDensity is the headline integration test: train a
// surrogate on past queries of a planted-density dataset, mine regions
// with GSO, and check the result overlaps the ground truth and
// verifies against the true f.
func TestFinderEndToEndDensity(t *testing.T) {
	ds := synth.MustGenerate(synth.Config{Dims: 2, Regions: 1, Stat: synth.Density, N: 8000, Seed: 6})
	s := trainTestSurrogate(t, ds, 3000)
	finder, err := NewFinder(s.StatFn(), ds.Domain())
	if err != nil {
		t.Fatal(err)
	}
	cfg := FinderConfig{Threshold: ds.SuggestedYR, Dir: Above}
	res, err := finder.Find(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("no regions found")
	}
	// Some region must overlap the ground truth.
	bestIoU := 0.0
	for _, r := range res.Regions {
		if iou := r.Rect.IoU(ds.GT[0]); iou > bestIoU {
			bestIoU = iou
		}
	}
	if bestIoU < 0.1 {
		t.Errorf("best IoU with GT = %g, want >= 0.1", bestIoU)
	}
	// Verify against the true f: most mined regions should comply.
	ev, _ := dataset.NewLinearScan(ds.Data, ds.Spec)
	frac, err := Verify(res.Regions, StatFnFromEvaluator(ev), ObjectiveConfig{YR: cfg.Threshold, Dir: Above, C: 4})
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.5 {
		t.Errorf("only %.0f%% of regions verified against true f", frac*100)
	}
	for _, r := range res.Regions {
		if !r.Verified {
			t.Error("region not marked verified")
		}
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
	if res.ValidFrac <= 0 {
		t.Error("no valid particles at termination")
	}
}

func TestFinderMultimodalFindsAllRegions(t *testing.T) {
	ds := synth.MustGenerate(synth.Config{Dims: 1, Regions: 3, Stat: synth.Density, N: 8000, Seed: 7})
	// Use the true f directly (the paper's f+GlowWorm): isolates the
	// optimizer's multimodal recall from surrogate error.
	ev, _ := dataset.NewLinearScan(ds.Data, ds.Spec)
	finder, err := NewFinder(StatFnFromEvaluator(ev), ds.Domain())
	if err != nil {
		t.Fatal(err)
	}
	cfg := FinderConfig{Threshold: ds.SuggestedYR, Dir: Above}
	cfg.GSO.MaxIters = 150
	res, err := finder.Find(cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, gt := range ds.GT {
		for _, r := range res.Regions {
			if r.Rect.IoU(gt) > 0.1 {
				found++
				break
			}
		}
	}
	if found < 2 {
		t.Errorf("found %d/3 ground-truth regions, want >= 2", found)
	}
}

func TestFinderKDERequiresDensity(t *testing.T) {
	finder, _ := NewFinder(constStat(5), geom.Unit(2))
	_, err := finder.Find(FinderConfig{Threshold: 1, Dir: Above, UseKDE: true})
	if err == nil {
		t.Error("expected error for UseKDE without AttachDensity")
	}
}

func TestFinderWithKDE(t *testing.T) {
	ds := synth.MustGenerate(synth.Config{Dims: 2, Regions: 1, Stat: synth.Density, N: 6000, Seed: 8})
	ev, _ := dataset.NewLinearScan(ds.Data, ds.Spec)
	finder, _ := NewFinder(StatFnFromEvaluator(ev), ds.Domain())
	points := make([][]float64, ds.Data.Len())
	for i := range points {
		points[i] = ds.Data.Row(i)[:2]
	}
	if err := finder.AttachDensity(points, 300, 1); err != nil {
		t.Fatal(err)
	}
	if finder.Density() == nil {
		t.Fatal("density not attached")
	}
	cfg := FinderConfig{Threshold: ds.SuggestedYR, Dir: Above, UseKDE: true}
	cfg.GSO.MaxIters = 60
	res, err := finder.Find(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Error("KDE-weighted run found nothing")
	}
}

func TestFinderBelowDirection(t *testing.T) {
	// Statistic grows with distance from origin; Below threshold
	// regions are near the origin.
	stat := func(x, l []float64) float64 { return 100 * (x[0] + x[1]) }
	finder, _ := NewFinder(stat, geom.Unit(2))
	res, err := finder.Find(FinderConfig{Threshold: 20, Dir: Below})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Regions {
		c := r.Rect.Center()
		if 100*(c[0]+c[1]) >= 20 {
			t.Errorf("region center %v violates Below constraint", c)
		}
	}
}

func TestFinderDedupe(t *testing.T) {
	// Single sharp optimum: all converged worms should merge into few
	// regions, with the representative carrying multiple worms.
	stat := func(x, l []float64) float64 {
		d := (x[0] - 0.5) * (x[0] - 0.5)
		return 1000 * math.Exp(-d/0.01)
	}
	finder, _ := NewFinder(stat, geom.Unit(1))
	cfg := FinderConfig{Threshold: 500, Dir: Above}
	cfg.GSO.MaxIters = 150
	res, err := finder.Find(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("nothing found")
	}
	if len(res.Regions) > 8 {
		t.Errorf("dedupe left %d regions for a single optimum", len(res.Regions))
	}
	totalWorms := 0
	for _, r := range res.Regions {
		totalWorms += r.Worms
	}
	if totalWorms < 2 {
		t.Error("worm attribution lost")
	}
}

func TestVerifyErrors(t *testing.T) {
	if _, err := Verify(nil, nil, ObjectiveConfig{YR: 1, C: 4}); err == nil {
		t.Error("expected error for nil true function")
	}
	if _, err := Verify(nil, constStat(1), ObjectiveConfig{YR: 1, C: 0}); err == nil {
		t.Error("expected error for bad config")
	}
	frac, err := Verify(nil, constStat(1), ObjectiveConfig{YR: 1, C: 4})
	if err != nil || frac != 0 {
		t.Errorf("empty regions: frac=%g err=%v", frac, err)
	}
}

// TestFinderConfigDefaults: withDefaults fills each zero knob on its
// own, the swarm's through SwarmParams (L = 50·2d, T = 100, seed 1),
// and keeps every field that was set — Workers and InitRadius
// included when Glowworms is left to its default.
func TestFinderConfigDefaults(t *testing.T) {
	tests := []struct {
		name string
		cfg  FinderConfig
		want FinderConfig
	}{
		{
			name: "zero",
			want: FinderConfig{C: 4, MinSideFrac: 0.01, MaxSideFrac: 0.15, MaxRegions: 16,
				GSO: gso.Params{Glowworms: 300, MaxIters: 100, Seed: 1}}, // L = 50·2d, d = 3
		},
		{
			name: "explicit knobs",
			cfg: FinderConfig{C: 2, MinSideFrac: 0.02, MaxSideFrac: 0.1, MaxRegions: 3,
				GSO: gso.Params{Glowworms: 42, MaxIters: 7, InitRadius: 0.5, Workers: 4, Seed: 3}},
			want: FinderConfig{C: 2, MinSideFrac: 0.02, MaxSideFrac: 0.1, MaxRegions: 3,
				GSO: gso.Params{Glowworms: 42, MaxIters: 7, InitRadius: 0.5, Workers: 4, Seed: 3}},
		},
		{
			name: "workers kept with default glowworms",
			cfg:  FinderConfig{GSO: gso.Params{MaxIters: 40, Seed: 5, Workers: 4}},
			want: FinderConfig{C: 4, MinSideFrac: 0.01, MaxSideFrac: 0.15, MaxRegions: 16,
				GSO: gso.Params{Glowworms: 300, MaxIters: 40, Workers: 4, Seed: 5}},
		},
		{
			name: "init radius kept with default glowworms",
			cfg:  FinderConfig{GSO: gso.Params{InitRadius: 0.5}},
			want: FinderConfig{C: 4, MinSideFrac: 0.01, MaxSideFrac: 0.15, MaxRegions: 16,
				GSO: gso.Params{Glowworms: 300, MaxIters: 100, InitRadius: 0.5, Seed: 1}},
		},
		{
			name: "default iterations and seed with explicit glowworms",
			cfg:  FinderConfig{GSO: gso.Params{Glowworms: 42}},
			want: FinderConfig{C: 4, MinSideFrac: 0.01, MaxSideFrac: 0.15, MaxRegions: 16,
				GSO: gso.Params{Glowworms: 42, MaxIters: 100, Seed: 1}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.cfg.withDefaults(3)
			if got.GSO != tt.want.GSO {
				t.Errorf("GSO = %+v, want %+v", got.GSO, tt.want.GSO)
			}
			if got.C != tt.want.C || got.MaxRegions != tt.want.MaxRegions {
				t.Errorf("C, MaxRegions = %g, %d, want %g, %d", got.C, got.MaxRegions, tt.want.C, tt.want.MaxRegions)
			}
			if got.MinSideFrac != tt.want.MinSideFrac || got.MaxSideFrac != tt.want.MaxSideFrac {
				t.Errorf("side fracs = [%g, %g], want [%g, %g]",
					got.MinSideFrac, got.MaxSideFrac, tt.want.MinSideFrac, tt.want.MaxSideFrac)
			}
		})
	}
}

func TestFinderInvalidSideFracs(t *testing.T) {
	finder, _ := NewFinder(constStat(5), geom.Unit(1))
	_, err := finder.Find(FinderConfig{Threshold: 1, Dir: Above, MinSideFrac: 0.5, MaxSideFrac: 0.1})
	if err == nil {
		t.Error("expected error for inverted side fractions")
	}
}
