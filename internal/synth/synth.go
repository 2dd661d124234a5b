// Package synth generates the evaluation workloads of paper Section
// V-A: synthetic datasets with planted ground-truth (GT) regions for
// the density and aggregate statistics, simulators standing in for the
// two real datasets (Chicago Crimes and Human Activity Recognition),
// and the past-query workloads surrogate models train on.
//
// The paper's 20 synthetic datasets vary three settings: data
// dimensionality d ∈ {1..5}, number of GT regions k ∈ {1, 3} and the
// statistic type (density = COUNT inside the box, aggregate = AVG of a
// value dimension). GT regions are hyper-rectangles either denser than
// the background or with an elevated value dimension.
package synth

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"surf/internal/dataset"
	"surf/internal/geom"
	"surf/internal/stats"
)

// StatType selects which planted structure a synthetic dataset has.
type StatType int

const (
	// Density plants regions containing more points than the
	// background (statistic: COUNT).
	Density StatType = iota
	// Aggregate plants regions whose value dimension has an elevated
	// mean (statistic: AVG of the value column).
	Aggregate
)

// String names the statistic type.
func (s StatType) String() string {
	switch s {
	case Density:
		return "density"
	case Aggregate:
		return "aggregate"
	}
	return fmt.Sprintf("StatType(%d)", int(s))
}

// aggMean is the value-dimension mean inside the GT regions of
// Aggregate datasets: the background is N(0,1), and the paper's
// yR = 2 lies between the two.
const aggMean = 3

// Config describes one synthetic dataset.
type Config struct {
	// Dims is the data dimensionality d (1..5 in the paper).
	Dims int
	// Regions is the number of planted GT regions k (1 or 3).
	Regions int
	// Stat selects density or aggregate structure.
	Stat StatType
	// N is the number of background points (the paper uses
	// 7,500–12,500 for accuracy runs and up to 10^7 for Table I).
	N int
	// BoostPerRegion is the number of extra points planted inside
	// each GT region for Density datasets. Default 1200 (so the GT
	// count clears the paper's yR = 1000).
	BoostPerRegion int
	// Seed makes generation deterministic.
	Seed uint64
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Dims < 1:
		return errors.New("synth: Dims must be >= 1")
	case c.Regions < 1:
		return errors.New("synth: Regions must be >= 1")
	case c.N < 1:
		return errors.New("synth: N must be >= 1")
	case c.Stat != Density && c.Stat != Aggregate:
		return fmt.Errorf("synth: unknown stat type %d", int(c.Stat))
	}
	return nil
}

// Dataset bundles generated data with its ground truth.
type Dataset struct {
	// Data is the generated dataset. Columns a1..ad are the filter
	// dimensions; Aggregate datasets append a "val" column.
	Data *dataset.Dataset
	// GT holds the planted ground-truth regions in data space.
	GT []geom.Rect
	// Spec is the region-query spec matching the planted structure.
	Spec dataset.Spec
	// SuggestedYR is the paper's threshold for this structure:
	// 1000 for density, 2 for aggregate.
	SuggestedYR float64
	// Config echoes the generation settings.
	Config Config
}

// Domain returns the data-space domain (the unit hyper-cube).
func (d *Dataset) Domain() geom.Rect { return geom.Unit(d.Config.Dims) }

// Generate builds a synthetic dataset per the config.
func Generate(c Config) (*Dataset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.BoostPerRegion == 0 {
		c.BoostPerRegion = 1200
	}
	rng := rand.New(rand.NewPCG(c.Seed, 0x2545f4914f6cdd1d))

	gt := plantRegions(rng, c.Dims, c.Regions)

	switch c.Stat {
	case Density:
		return generateDensity(c, rng, gt)
	case Aggregate:
		return generateAggregate(c, rng, gt)
	}
	panic("unreachable")
}

// MustGenerate is Generate but panics on error (for tests/benches with
// static configs).
func MustGenerate(c Config) *Dataset {
	d, err := Generate(c)
	if err != nil {
		panic(err)
	}
	return d
}

// plantRegions places k non-overlapping GT hyper-rectangles in the
// unit cube with per-dimension half-sides in [0.10, 0.15] (full sides
// 20%–30% of the domain, matching the paper's Fig. 2 scale).
func plantRegions(rng *rand.Rand, dims, k int) []geom.Rect {
	var out []geom.Rect
	const maxAttempts = 10000
	for attempt := 0; len(out) < k && attempt < maxAttempts; attempt++ {
		x := make([]float64, dims)
		l := make([]float64, dims)
		for j := 0; j < dims; j++ {
			l[j] = 0.10 + rng.Float64()*0.05
			x[j] = l[j] + rng.Float64()*(1-2*l[j])
		}
		cand := geom.FromCenter(x, l)
		// Keep GT regions separated so multimodal peaks are distinct.
		ok := true
		for _, prev := range out {
			if cand.Expand(0.05).Intersects(prev) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, cand)
		}
	}
	// Fall back to a deterministic lattice when rejection sampling
	// cannot place all k boxes (possible in d=1 with k=3).
	for len(out) < k {
		i := len(out)
		x := make([]float64, dims)
		l := make([]float64, dims)
		for j := 0; j < dims; j++ {
			l[j] = 0.10
			x[j] = (float64(i) + 0.5) / float64(k)
		}
		out = append(out, geom.FromCenter(x, l))
	}
	return out
}

func generateDensity(c Config, rng *rand.Rand, gt []geom.Rect) (*Dataset, error) {
	total := c.N + c.Regions*c.BoostPerRegion
	cols := make([][]float64, c.Dims)
	for j := range cols {
		cols[j] = make([]float64, 0, total)
	}
	// Uniform background.
	for i := 0; i < c.N; i++ {
		for j := 0; j < c.Dims; j++ {
			cols[j] = append(cols[j], rng.Float64())
		}
	}
	// Dense clusters inside each GT region.
	for _, r := range gt {
		for i := 0; i < c.BoostPerRegion; i++ {
			for j := 0; j < c.Dims; j++ {
				cols[j] = append(cols[j], r.Min[j]+rng.Float64()*(r.Max[j]-r.Min[j]))
			}
		}
	}
	names := make([]string, c.Dims)
	filter := make([]int, c.Dims)
	for j := 0; j < c.Dims; j++ {
		names[j] = fmt.Sprintf("a%d", j+1)
		filter[j] = j
	}
	data, err := dataset.New(names, cols)
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Data:        data,
		GT:          gt,
		Spec:        dataset.Spec{FilterCols: filter, Stat: stats.Count},
		SuggestedYR: 1000,
		Config:      c,
	}, nil
}

func generateAggregate(c Config, rng *rand.Rand, gt []geom.Rect) (*Dataset, error) {
	cols := make([][]float64, c.Dims+1)
	for j := range cols {
		cols[j] = make([]float64, c.N)
	}
	point := make([]float64, c.Dims)
	for i := 0; i < c.N; i++ {
		for j := 0; j < c.Dims; j++ {
			point[j] = rng.Float64()
			cols[j][i] = point[j]
		}
		val := rng.NormFloat64() // background: N(0,1)
		for _, r := range gt {
			if r.Contains(point) {
				val = aggMean + rng.NormFloat64()*0.5 // elevated: N(mean, 0.5)
				break
			}
		}
		cols[c.Dims][i] = val
	}
	names := make([]string, c.Dims+1)
	filter := make([]int, c.Dims)
	for j := 0; j < c.Dims; j++ {
		names[j] = fmt.Sprintf("a%d", j+1)
		filter[j] = j
	}
	names[c.Dims] = "val"
	data, err := dataset.New(names, cols)
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Data:        data,
		GT:          gt,
		Spec:        dataset.Spec{FilterCols: filter, Stat: stats.Mean, TargetCol: c.Dims},
		SuggestedYR: 2,
		Config:      c,
	}, nil
}

// PaperSuite returns the paper's 20 synthetic dataset configurations:
// d ∈ {1..5} × k ∈ {1,3} × {density, aggregate}, each with N drawn
// from the paper's 7,500–12,500 range (deterministically from seed).
func PaperSuite(seed uint64) []Config {
	rng := rand.New(rand.NewPCG(seed, 0xda3e39cb94b95bdb))
	var out []Config
	for _, stat := range []StatType{Aggregate, Density} {
		for _, k := range []int{1, 3} {
			for d := 1; d <= 5; d++ {
				out = append(out, Config{
					Dims:    d,
					Regions: k,
					Stat:    stat,
					N:       7500 + rng.IntN(5001),
					Seed:    rng.Uint64(),
				})
			}
		}
	}
	return out
}
