package naive

import (
	"math"
	"sort"
	"testing"
	"time"

	"surf/internal/geom"
	"surf/internal/gso"
)

// bumpObjective scores regions by closeness of their center to target
// and is undefined left of the validity wall.
func bumpObjective(target []float64, wall float64) gso.ObjectiveFunc {
	return func(vec []float64) (float64, bool) {
		d := len(vec) / 2
		if vec[0] < wall {
			return 0, false
		}
		var d2 float64
		for j := 0; j < d; j++ {
			dd := vec[j] - target[j]
			d2 += dd * dd
		}
		return -d2, true
	}
}

func TestRunRejectsNegativeBudget(t *testing.T) {
	space := geom.SolutionSpace(geom.Unit(1), 0.01, 0.15)
	if _, err := Run(-1, space, bumpObjective([]float64{0.5}, -1)); err == nil {
		t.Error("expected error for a negative budget")
	}
}

func TestRunRejectsOddSpace(t *testing.T) {
	if _, err := Run(0, geom.Unit(3), bumpObjective([]float64{0}, -1)); err == nil {
		t.Error("expected error for odd-dimensional space")
	}
	if _, err := Run(0, geom.Rect{}, bumpObjective([]float64{0}, -1)); err == nil {
		t.Error("expected error for empty space")
	}
}

func TestTotalCount(t *testing.T) {
	// d=2, n=6 centers, m=6 lengths -> (6*6)^2 = 1296.
	space := geom.SolutionSpace(geom.Unit(2), 0.01, 0.15)
	res, err := Run(0, space, bumpObjective([]float64{0.5, 0.5}, -1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 1296 {
		t.Errorf("Total = %d, want 1296", res.Total)
	}
	if res.Examined != 1296 {
		t.Errorf("Examined = %d, want 1296", res.Examined)
	}
	if res.TimedOut {
		t.Error("should not time out without a budget")
	}
	if res.ExaminedRatio() != 1 {
		t.Errorf("ExaminedRatio = %g, want 1", res.ExaminedRatio())
	}
}

func TestFindsBestGridPoint(t *testing.T) {
	space := geom.SolutionSpace(geom.Unit(1), 0.01, 0.15)
	target := []float64{0.4}
	res, err := Run(0, space, bumpObjective(target, -1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("no regions found")
	}
	best := res.Regions[0]
	// Best grid center should be the closest of the 6 linspace points
	// {0, 0.2, 0.4, 0.6, 0.8, 1} to 0.4, i.e. exactly 0.4.
	if math.Abs(best.Vector[0]-0.4) > 1e-12 {
		t.Errorf("best center = %g, want 0.4", best.Vector[0])
	}
	// Regions sorted by fitness descending.
	for i := 1; i < len(res.Regions); i++ {
		if res.Regions[i].Fitness > res.Regions[i-1].Fitness {
			t.Fatal("regions not sorted by fitness")
		}
	}
}

func TestInvalidRegionsExcluded(t *testing.T) {
	space := geom.SolutionSpace(geom.Unit(1), 0.01, 0.15)
	res, err := Run(0, space, bumpObjective([]float64{1}, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Regions {
		if r.Vector[0] < 0.5 {
			t.Errorf("invalid region retained: %v", r.Vector)
		}
	}
	// All candidates still count as examined.
	if res.Examined != res.Total {
		t.Errorf("Examined = %d, want %d", res.Examined, res.Total)
	}
}

func TestMaxKeepCaps(t *testing.T) {
	// d = 3 gives (6·6)^3 = 46,656 valid candidates, enough to trim
	// both while enumerating and at the end.
	target := []float64{0.4, 0.4, 0.4}
	space := geom.SolutionSpace(geom.Unit(3), 0.01, 0.15)
	res, err := Run(0, space, bumpObjective(target, -1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != maxKeep {
		t.Fatalf("retained %d regions, want the cap %d", len(res.Regions), maxKeep)
	}
	// The kept regions must be the global best ones. Fitness depends
	// only on the center, so each center's fitness occurs once per
	// combination of half-side lengths.
	grid := linspace(0, 1, centersPerDim)
	var all []float64
	for _, a := range grid {
		for _, b := range grid {
			for _, c := range grid {
				fit, _ := bumpObjective(target, -1)([]float64{a, b, c, 0, 0, 0})
				for k := 0; k < lengthsPerDim*lengthsPerDim*lengthsPerDim; k++ {
					all = append(all, fit)
				}
			}
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	if got, want := res.Regions[len(res.Regions)-1].Fitness, all[maxKeep-1]; got != want {
		t.Errorf("worst kept fitness = %g, want the %dth best %g", got, maxKeep, want)
	}
	if res.Regions[0].Fitness != all[0] {
		t.Errorf("best kept fitness = %g, want %g", res.Regions[0].Fitness, all[0])
	}
}

func TestTimeBudget(t *testing.T) {
	slow := gso.ObjectiveFunc(func(vec []float64) (float64, bool) {
		time.Sleep(10 * time.Microsecond)
		return 0, true
	})
	space := geom.SolutionSpace(geom.Unit(2), 0.01, 0.15)
	res, err := Run(time.Microsecond, space, slow)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("expected timeout")
	}
	if res.Examined >= res.Total {
		t.Errorf("examined all %d candidates despite timeout", res.Total)
	}
	if r := res.ExaminedRatio(); r <= 0 || r >= 1 {
		t.Errorf("ExaminedRatio = %g, want in (0,1)", r)
	}
}

func TestLinspace(t *testing.T) {
	got := linspace(0, 1, 6)
	want := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("linspace[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	single := linspace(2, 4, 1)
	if len(single) != 1 || single[0] != 3 {
		t.Errorf("single linspace = %v, want [3]", single)
	}
}

func TestNaNFitnessExcluded(t *testing.T) {
	obj := gso.ObjectiveFunc(func(vec []float64) (float64, bool) {
		return math.NaN(), true
	})
	space := geom.SolutionSpace(geom.Unit(1), 0.01, 0.15)
	res, err := Run(0, space, obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 0 {
		t.Errorf("NaN-fitness regions retained: %d", len(res.Regions))
	}
}
