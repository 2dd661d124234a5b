package synth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"surf/internal/dataset"
	"surf/internal/geom"
)

// minSideFrac is the smallest workload half-side as a fraction of
// each dimension's extent (paper Section V-A: sides "cover 1%−15% of
// the data domain").
const minSideFrac = 0.01

// WorkloadConfig configures past-query generation (paper Section V-A:
// "centers x selected uniformly at random and region side lengths l
// set to cover 1%−15% of the data domain"). A query whose statistic is
// undefined (NaN, e.g. the mean of an empty region) is dropped and
// redrawn, up to 10× oversampling.
type WorkloadConfig struct {
	// Queries is the number of past evaluations to produce.
	Queries int
	// MaxSideFrac bounds the half-side lengths, from minSideFrac up,
	// as a fraction of each dimension's extent.
	MaxSideFrac float64
	// Seed makes generation deterministic.
	Seed uint64
}

// DefaultWorkloadConfig mirrors the paper's training workload.
func DefaultWorkloadConfig(queries int) WorkloadConfig {
	return WorkloadConfig{
		Queries:     queries,
		MaxSideFrac: 0.15,
		Seed:        13,
	}
}

// GenerateWorkload executes random region queries against the true
// evaluator and returns the resulting query log Q = {[x, l, y]}.
func GenerateWorkload(ev dataset.Evaluator, domain geom.Rect, c WorkloadConfig) (dataset.QueryLog, error) {
	return GenerateWorkloadContext(context.Background(), ev, domain, c)
}

// GenerateWorkloadContext is GenerateWorkload with cancellation,
// checked before each (potentially O(N)) true-function evaluation.
func GenerateWorkloadContext(ctx context.Context, ev dataset.Evaluator, domain geom.Rect, c WorkloadConfig) (dataset.QueryLog, error) {
	if c.Queries < 1 {
		return nil, errors.New("synth: Queries must be >= 1")
	}
	if c.MaxSideFrac < minSideFrac {
		return nil, fmt.Errorf("synth: side fractions [%g, %g] invalid", minSideFrac, c.MaxSideFrac)
	}
	d := ev.Dims()
	if domain.Dims() != d {
		return nil, fmt.Errorf("synth: domain of dimension %d for evaluator of dimension %d", domain.Dims(), d)
	}
	rng := rand.New(rand.NewPCG(c.Seed, 0x94d049bb133111eb))

	log := make(dataset.QueryLog, 0, c.Queries)
	for attempt := 0; attempt < 10*c.Queries && len(log) < c.Queries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := make([]float64, d)
		l := make([]float64, d)
		for j := 0; j < d; j++ {
			extent := domain.Max[j] - domain.Min[j]
			x[j] = domain.Min[j] + rng.Float64()*extent
			l[j] = (minSideFrac + rng.Float64()*(c.MaxSideFrac-minSideFrac)) * extent
		}
		y, _ := ev.Evaluate(geom.FromCenter(x, l))
		if math.IsNaN(y) {
			continue
		}
		log = append(log, dataset.Query{X: x, L: l, Y: y})
	}
	if len(log) < c.Queries {
		return nil, fmt.Errorf("synth: only %d/%d defined queries after oversampling (statistic undefined almost everywhere?)", len(log), c.Queries)
	}
	return log, nil
}
