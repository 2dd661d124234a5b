package synth

import (
	"math"
	"testing"

	"surf/internal/dataset"
	"surf/internal/geom"
	"surf/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Dims: 2, Regions: 1, Stat: Density, N: 100}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config: %v", err)
	}
	bad := []Config{
		{Dims: 0, Regions: 1, Stat: Density, N: 100},
		{Dims: 2, Regions: 0, Stat: Density, N: 100},
		{Dims: 2, Regions: 1, Stat: Density, N: 0},
		{Dims: 2, Regions: 1, Stat: StatType(9), N: 100},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestDensityDatasetStructure(t *testing.T) {
	ds := MustGenerate(Config{Dims: 2, Regions: 3, Stat: Density, N: 5000, Seed: 1})
	if len(ds.GT) != 3 {
		t.Fatalf("planted %d regions, want 3", len(ds.GT))
	}
	if ds.Data.Len() != 5000+3*1200 {
		t.Errorf("N = %d, want %d", ds.Data.Len(), 5000+3*1200)
	}
	if ds.SuggestedYR != 1000 {
		t.Errorf("SuggestedYR = %g, want 1000", ds.SuggestedYR)
	}
	// Each GT region must contain more than yR points; a random
	// same-sized box in background space must contain far fewer.
	ev, err := dataset.NewLinearScan(ds.Data, ds.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ds.GT {
		y, _ := ev.Evaluate(r)
		if y <= ds.SuggestedYR {
			t.Errorf("GT region %d has count %g, want > %g", i, y, ds.SuggestedYR)
		}
	}
	// GT regions stay in the unit cube and do not overlap each other.
	unit := geom.Unit(2)
	for i, r := range ds.GT {
		if !unit.ContainsRect(r) {
			t.Errorf("GT region %d escapes the unit cube: %v", i, r)
		}
		for j := i + 1; j < len(ds.GT); j++ {
			if r.Intersects(ds.GT[j]) {
				t.Errorf("GT regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestAggregateDatasetStructure(t *testing.T) {
	ds := MustGenerate(Config{Dims: 2, Regions: 1, Stat: Aggregate, N: 8000, Seed: 2})
	if ds.Data.NumCols() != 3 {
		t.Fatalf("cols = %d, want 3 (a1, a2, val)", ds.Data.NumCols())
	}
	if ds.Spec.Stat != stats.Mean || ds.Spec.TargetCol != 2 {
		t.Errorf("spec = %+v", ds.Spec)
	}
	ev, err := dataset.NewLinearScan(ds.Data, ds.Spec)
	if err != nil {
		t.Fatal(err)
	}
	// Inside the GT region the mean clears yR = 2; the global mean
	// does not.
	yIn, _ := ev.Evaluate(ds.GT[0])
	if yIn <= ds.SuggestedYR {
		t.Errorf("GT mean = %g, want > %g", yIn, ds.SuggestedYR)
	}
	yAll, _ := ev.Evaluate(geom.Unit(2))
	if yAll >= ds.SuggestedYR {
		t.Errorf("global mean = %g, want < %g", yAll, ds.SuggestedYR)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Config{Dims: 3, Regions: 1, Stat: Density, N: 1000, Seed: 5})
	b := MustGenerate(Config{Dims: 3, Regions: 1, Stat: Density, N: 1000, Seed: 5})
	if !a.GT[0].Equal(b.GT[0]) {
		t.Error("same seed should plant identical regions")
	}
	for j := 0; j < 3; j++ {
		if a.Data.Col(j)[500] != b.Data.Col(j)[500] {
			t.Error("same seed should generate identical points")
		}
	}
	c := MustGenerate(Config{Dims: 3, Regions: 1, Stat: Density, N: 1000, Seed: 6})
	if a.GT[0].Equal(c.GT[0]) {
		t.Error("different seeds should differ")
	}
}

func TestOneDimensionalThreeRegions(t *testing.T) {
	// The hardest packing case: 3 boxes of width ~0.2-0.3 on a unit
	// interval. Must not hang and must produce 3 in-bounds regions.
	ds := MustGenerate(Config{Dims: 1, Regions: 3, Stat: Aggregate, N: 2000, Seed: 3})
	if len(ds.GT) != 3 {
		t.Fatalf("planted %d, want 3", len(ds.GT))
	}
	for i, r := range ds.GT {
		if r.Min[0] < -0.01 || r.Max[0] > 1.01 {
			t.Errorf("region %d out of bounds: %v", i, r)
		}
	}
}

func TestPaperSuite(t *testing.T) {
	suite := PaperSuite(1)
	if len(suite) != 20 {
		t.Fatalf("suite has %d configs, want 20", len(suite))
	}
	seen := make(map[string]bool)
	for _, c := range suite {
		key := c.Stat.String() + string(rune('0'+c.Dims)) + string(rune('0'+c.Regions))
		if seen[key] {
			t.Errorf("duplicate setting %s", key)
		}
		seen[key] = true
		if c.N < 7500 || c.N > 12500 {
			t.Errorf("N = %d outside the paper's range", c.N)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("suite config invalid: %v", err)
		}
	}
}

func TestCrimesSimulator(t *testing.T) {
	cfg := DefaultCrimesConfig()
	cfg.N = 20000
	c, err := Crimes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Data.Len() != 20000 {
		t.Fatalf("N = %d", c.Data.Len())
	}
	// All points inside the unit square.
	for i := 0; i < c.Data.Len(); i++ {
		x, y := c.Data.Col(0)[i], c.Data.Col(1)[i]
		if x < 0 || x > 1 || y < 0 || y > 1 {
			t.Fatalf("point %d out of bounds: (%g, %g)", i, x, y)
		}
	}
	// Hotspot neighbourhoods must be denser than average: compare a
	// box at a hotspot with the expected uniform count.
	ev, err := dataset.NewLinearScan(c.Data, c.Spec)
	if err != nil {
		t.Fatal(err)
	}
	center := c.HotspotCenters[0]
	box := geom.FromCenter(center, []float64{0.05, 0.05})
	yHot, _ := ev.Evaluate(box)
	uniformExpect := float64(c.Data.Len()) * box.Volume()
	if yHot < 3*uniformExpect {
		t.Errorf("hotspot box count %g not clearly above uniform expectation %g", yHot, uniformExpect)
	}
}

func TestCrimesValidation(t *testing.T) {
	if _, err := Crimes(CrimesConfig{N: 0}); err == nil {
		t.Error("expected error for N=0")
	}
}

func TestHumanActivitySimulator(t *testing.T) {
	cfg := DefaultHARConfig()
	cfg.N = 20000
	h, err := HumanActivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Data.NumCols() != 4 {
		t.Fatalf("cols = %d, want 4", h.Data.NumCols())
	}
	// Global standing fraction ~ standFrac.
	var standing float64
	for _, v := range h.Data.Col(3) {
		standing += v
	}
	frac := standing / float64(h.Data.Len())
	if math.Abs(frac-standFrac) > 0.02 {
		t.Errorf("global stand fraction = %g, want ~%g", frac, standFrac)
	}
	// Ratio inside the stand cluster must be high; the paper's query
	// is ratio > 0.3.
	ev, err := dataset.NewLinearScan(h.Data, h.Spec)
	if err != nil {
		t.Fatal(err)
	}
	yIn, n := ev.Evaluate(h.StandCluster)
	if n == 0 || yIn < 0.3 {
		t.Errorf("stand-cluster ratio = %g (n=%d), want >= 0.3", yIn, n)
	}
	// And a random region almost surely has a low ratio (Eq. 5's
	// "highly unlikely event").
	yOut, _ := ev.Evaluate(geom.FromCenter([]float64{0.45, 0.55, 0.5}, []float64{0.1, 0.1, 0.1}))
	if !math.IsNaN(yOut) && yOut > 0.3 {
		t.Errorf("walking-region stand ratio = %g, want < 0.3", yOut)
	}
}

func TestHARValidation(t *testing.T) {
	if _, err := HumanActivity(HARConfig{N: 0}); err == nil {
		t.Error("expected error for N=0")
	}
}

func TestGenerateWorkload(t *testing.T) {
	ds := MustGenerate(Config{Dims: 2, Regions: 1, Stat: Density, N: 3000, Seed: 9})
	ev, err := dataset.NewLinearScan(ds.Data, ds.Spec)
	if err != nil {
		t.Fatal(err)
	}
	log, err := GenerateWorkload(ev, ds.Domain(), DefaultWorkloadConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 500 {
		t.Fatalf("got %d queries, want 500", len(log))
	}
	for i, q := range log {
		if len(q.X) != 2 || len(q.L) != 2 {
			t.Fatalf("query %d has wrong shape", i)
		}
		for j := 0; j < 2; j++ {
			if q.X[j] < 0 || q.X[j] > 1 {
				t.Errorf("query %d center out of domain: %v", i, q.X)
			}
			if q.L[j] < 0.01-1e-9 || q.L[j] > 0.15+1e-9 {
				t.Errorf("query %d half-side %g outside [0.01, 0.15]", i, q.L[j])
			}
		}
		if math.IsNaN(q.Y) {
			t.Errorf("query %d has NaN label", i)
		}
		// Label must match a fresh evaluation.
		y, _ := ev.Evaluate(geom.FromCenter(q.X, q.L))
		if y != q.Y {
			t.Errorf("query %d label %g does not match re-evaluation %g", i, q.Y, y)
		}
	}
}

func TestGenerateWorkloadSkipsUndefined(t *testing.T) {
	// Mean statistic over a sparse dataset: some boxes are empty.
	ds := MustGenerate(Config{Dims: 2, Regions: 1, Stat: Aggregate, N: 200, Seed: 10})
	ev, _ := dataset.NewLinearScan(ds.Data, ds.Spec)
	cfg := DefaultWorkloadConfig(300)
	log, err := GenerateWorkload(ev, ds.Domain(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range log {
		if math.IsNaN(q.Y) {
			t.Fatalf("query %d is NaN; undefined queries must be redrawn", i)
		}
	}
}

func TestGenerateWorkloadValidation(t *testing.T) {
	ds := MustGenerate(Config{Dims: 1, Regions: 1, Stat: Density, N: 100, Seed: 11})
	ev, _ := dataset.NewLinearScan(ds.Data, ds.Spec)
	if _, err := GenerateWorkload(ev, ds.Domain(), WorkloadConfig{Queries: 0, MaxSideFrac: 0.1}); err == nil {
		t.Error("expected error for zero queries")
	}
	if _, err := GenerateWorkload(ev, ds.Domain(), WorkloadConfig{Queries: 5, MaxSideFrac: minSideFrac / 2}); err == nil {
		t.Error("expected error for MaxSideFrac below the minimum half-side")
	}
	if _, err := GenerateWorkload(ev, geom.Unit(3), DefaultWorkloadConfig(5)); err == nil {
		t.Error("expected error for domain dimension mismatch")
	}
}

func TestStatTypeString(t *testing.T) {
	if Density.String() != "density" || Aggregate.String() != "aggregate" {
		t.Error("stat names wrong")
	}
	if StatType(9).String() != "StatType(9)" {
		t.Error("unknown stat name wrong")
	}
}
