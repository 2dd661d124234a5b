package synth

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"surf/internal/dataset"
	"surf/internal/geom"
	"surf/internal/stats"
)

// Simulators for the paper's two real datasets (Section V-C). The real
// artifacts (Chicago Crimes, UCI Human Activity Recognition) are not
// redistributable here; these generators produce data with the same
// structure SuRF consumes — a multimodal spatial point process for
// Crimes and class-conditional accelerometer readings for HAR — so the
// qualitative experiments exercise the identical code paths.

// CrimesConfig configures the spatial crime-incident simulator.
type CrimesConfig struct {
	// N is the number of incidents.
	N int
	// Hotspots is the number of Gaussian crime hotspots.
	Hotspots int
	// HotspotFrac is the fraction of incidents drawn from hotspots
	// (the rest are uniform background).
	HotspotFrac float64
	// Seed makes generation deterministic.
	Seed uint64
}

// DefaultCrimesConfig mirrors the scale of the paper's qualitative
// study: a city-like map with a handful of dense hotspots.
func DefaultCrimesConfig() CrimesConfig {
	return CrimesConfig{N: 50000, Hotspots: 5, HotspotFrac: 0.6, Seed: 7}
}

// CrimesDataset is the generated spatial dataset.
type CrimesDataset struct {
	// Data has columns x, y (normalized spatial coordinates in
	// [0,1]).
	Data *dataset.Dataset
	// HotspotCenters are the generating hotspot means.
	HotspotCenters [][]float64
	// Spec counts incidents per region.
	Spec dataset.Spec
}

// Domain returns the unit square.
func (c *CrimesDataset) Domain() geom.Rect { return geom.Unit(2) }

// Crimes simulates the Chicago Crimes spatial point pattern: a mixture
// of Gaussian hotspots over a uniform background, clipped to the unit
// square.
func Crimes(c CrimesConfig) (*CrimesDataset, error) {
	if c.N < 1 {
		return nil, errors.New("synth: Crimes N must be >= 1")
	}
	if c.Hotspots < 1 {
		return nil, errors.New("synth: Crimes Hotspots must be >= 1")
	}
	if c.HotspotFrac < 0 || c.HotspotFrac > 1 {
		return nil, fmt.Errorf("synth: HotspotFrac %g out of [0,1]", c.HotspotFrac)
	}
	rng := rand.New(rand.NewPCG(c.Seed, 0x9e3779b97f4a7c15))

	centers := make([][]float64, c.Hotspots)
	sigmas := make([]float64, c.Hotspots)
	for h := range centers {
		centers[h] = []float64{0.15 + rng.Float64()*0.7, 0.15 + rng.Float64()*0.7}
		sigmas[h] = 0.02 + rng.Float64()*0.04
	}

	xs := make([]float64, c.N)
	ys := make([]float64, c.N)
	for i := 0; i < c.N; i++ {
		if rng.Float64() < c.HotspotFrac {
			h := rng.IntN(c.Hotspots)
			xs[i] = clamp01(centers[h][0] + rng.NormFloat64()*sigmas[h])
			ys[i] = clamp01(centers[h][1] + rng.NormFloat64()*sigmas[h])
		} else {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
	}
	data, err := dataset.New([]string{"x", "y"}, [][]float64{xs, ys})
	if err != nil {
		return nil, err
	}
	return &CrimesDataset{
		Data:           data,
		HotspotCenters: centers,
		Spec:           dataset.Spec{FilterCols: []int{0, 1}, Stat: stats.Count},
	}, nil
}

// Activity labels for the HAR simulator, following the UCI HAR
// dataset's six classes.
const (
	ActivityWalking = iota
	ActivityWalkingUp
	ActivityWalkingDown
	ActivitySitting
	ActivityStanding
	ActivityLaying
	numActivities
)

// ActivityNames maps activity ids to names.
var ActivityNames = [...]string{
	"walking", "walking_up", "walking_down", "sitting", "standing", "laying",
}

// HARConfig configures the human-activity simulator.
type HARConfig struct {
	// N is the number of accelerometer samples.
	N int
	// StandFrac is the global fraction of "standing" samples; the
	// paper's query (ratio ≥ 0.3 inside a box) targets a highly
	// unlikely region, so the global fraction is kept low.
	StandFrac float64
	// Seed makes generation deterministic.
	Seed uint64
}

// DefaultHARConfig mirrors the paper's setting where
// P(ratio > 0.3) ≈ 0.0035 over random regions.
func DefaultHARConfig() HARConfig {
	return HARConfig{N: 30000, StandFrac: 0.08, Seed: 11}
}

// HARDataset is the generated activity dataset.
type HARDataset struct {
	// Data has columns ax, ay, az (normalized accelerometer axes in
	// [0,1]) plus "stand": 1 for standing samples, 0 otherwise.
	Data *dataset.Dataset
	// Spec computes the standing ratio per region over (ax, ay, az).
	Spec dataset.Spec
	// StandCluster is the region of accelerometer space where
	// standing samples concentrate (a qualitative ground truth).
	StandCluster geom.Rect
}

// Domain returns the unit cube of normalized accelerometer axes.
func (h *HARDataset) Domain() geom.Rect { return geom.Unit(3) }

// HumanActivity simulates tri-axial accelerometer data with
// class-conditional Gaussian signatures per activity. Standing samples
// concentrate in a compact cluster, so boxes there have a high
// standing ratio while random boxes almost never do.
func HumanActivity(c HARConfig) (*HARDataset, error) {
	if c.N < 1 {
		return nil, errors.New("synth: HAR N must be >= 1")
	}
	if c.StandFrac <= 0 || c.StandFrac >= 1 {
		return nil, fmt.Errorf("synth: StandFrac %g out of (0,1)", c.StandFrac)
	}
	rng := rand.New(rand.NewPCG(c.Seed, 0x853c49e6748fea9b))

	// Class-conditional means in normalized accelerometer space. The
	// dynamic activities are spread out (high variance); the static
	// postures form tight clusters.
	means := [numActivities][3]float64{
		{0.45, 0.55, 0.50}, // walking
		{0.55, 0.60, 0.55}, // walking upstairs
		{0.50, 0.45, 0.40}, // walking downstairs
		{0.25, 0.30, 0.70}, // sitting
		{0.80, 0.20, 0.30}, // standing
		{0.20, 0.75, 0.20}, // laying
	}
	sigmas := [numActivities]float64{0.12, 0.12, 0.12, 0.05, 0.035, 0.05}

	ax := make([]float64, c.N)
	ay := make([]float64, c.N)
	az := make([]float64, c.N)
	stand := make([]float64, c.N)
	// Non-standing activities share the remaining probability mass.
	otherFrac := (1 - c.StandFrac) / float64(numActivities-1)
	for i := 0; i < c.N; i++ {
		u := rng.Float64()
		var act int
		if u < c.StandFrac {
			act = ActivityStanding
		} else {
			act = int((u - c.StandFrac) / otherFrac)
			if act >= ActivityStanding {
				act++ // skip the standing slot
			}
			if act >= numActivities {
				act = numActivities - 1
			}
		}
		m, s := means[act], sigmas[act]
		ax[i] = clamp01(m[0] + rng.NormFloat64()*s)
		ay[i] = clamp01(m[1] + rng.NormFloat64()*s)
		az[i] = clamp01(m[2] + rng.NormFloat64()*s)
		if act == ActivityStanding {
			stand[i] = 1
		}
	}
	data, err := dataset.New([]string{"ax", "ay", "az", "stand"}, [][]float64{ax, ay, az, stand})
	if err != nil {
		return nil, err
	}
	m := means[ActivityStanding]
	spread := 2.5 * sigmas[ActivityStanding]
	cluster := geom.FromCenter([]float64{m[0], m[1], m[2]}, []float64{spread, spread, spread}).Clip(geom.Unit(3))
	return &HARDataset{
		Data:         data,
		Spec:         dataset.Spec{FilterCols: []int{0, 1, 2}, Stat: stats.Ratio, TargetCol: 3},
		StandCluster: cluster,
	}, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
