package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"surf/internal/geom"
	"surf/internal/gso"
)

// Property: the log objective is defined exactly when the constraint
// is satisfied and all half-sides are positive.
func TestObjectiveValidityMatchesConstraintQuick(t *testing.T) {
	cfg := ObjectiveConfig{YR: 10, Dir: Above, C: 2}
	f := func(y, x, l float64) bool {
		stat := constStat(y)
		obj, err := NewObjective(stat, cfg)
		if err != nil {
			return false
		}
		l = math.Abs(l)
		_, ok := obj(geom.EncodeRegion([]float64{x}, []float64{l}))
		want := cfg.Satisfies(y) && l > 0
		return ok == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: at fixed region size, the log objective is strictly
// increasing in the constraint margin.
func TestObjectiveMonotoneInMarginQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vec := geom.EncodeRegion([]float64{0.5}, []float64{0.1})
	for trial := 0; trial < 300; trial++ {
		y1 := 10 + rng.Float64()*100
		y2 := y1 + 1e-6 + rng.Float64()*100
		obj1, _ := NewObjective(constStat(y1), ObjectiveConfig{YR: 10, Dir: Above, C: 3})
		obj2, _ := NewObjective(constStat(y2), ObjectiveConfig{YR: 10, Dir: Above, C: 3})
		v1, ok1 := obj1(vec)
		v2, ok2 := obj2(vec)
		if !ok1 || !ok2 {
			t.Fatalf("both margins positive but objective invalid")
		}
		if v2 <= v1 {
			t.Fatalf("objective not monotone: J(%g)=%g >= J(%g)=%g", y1, v1, y2, v2)
		}
	}
}

// Property: Above and Below are mirror images around yR.
func TestObjectiveDirectionSymmetryQuick(t *testing.T) {
	f := func(delta, l float64) bool {
		delta = math.Abs(delta) + 1e-9
		l = math.Abs(l) + 1e-9
		vec := geom.EncodeRegion([]float64{0}, []float64{l})
		above, _ := NewObjective(constStat(5+delta), ObjectiveConfig{YR: 5, Dir: Above, C: 1})
		below, _ := NewObjective(constStat(5-delta), ObjectiveConfig{YR: 5, Dir: Below, C: 1})
		va, oka := above(vec)
		vb, okb := below(vec)
		if !oka || !okb {
			return false
		}
		return math.Abs(va-vb) < 1e-9*math.Max(1, math.Abs(va))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ClusterRegions never returns regions outside the domain
// and never returns more clusters than valid particles.
func TestClusterRegionsBoundsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	domain := geom.Unit(2)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		swarm := swarmAt2D(rng, n)
		regions := ClusterRegions(swarm, domain, 0.01+rng.Float64()*0.2)
		valid := 0
		for _, ok := range swarm.Valid {
			if ok {
				valid++
			}
		}
		if len(regions) > valid {
			t.Fatalf("%d clusters from %d valid particles", len(regions), valid)
		}
		for _, r := range regions {
			if !domain.ContainsRect(r) {
				t.Fatalf("cluster %v escapes the domain", r)
			}
		}
	}
}

func swarmAt2D(rng *rand.Rand, n int) *gso.Result {
	s := &gso.Result{}
	for i := 0; i < n; i++ {
		s.Positions = append(s.Positions, []float64{
			rng.Float64(), rng.Float64(), // centers
			rng.Float64() * 0.2, rng.Float64() * 0.2, // half-sides
		})
		s.Valid = append(s.Valid, rng.Intn(3) > 0)
	}
	return s
}
