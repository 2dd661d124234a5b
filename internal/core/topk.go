package core

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"surf/internal/geom"
	"surf/internal/gso"
)

// Top-k formulation. The paper's Related Work (Section VI) discusses
// the alternative of asking for the k highest-statistic regions rather
// than all regions beyond a threshold, noting the two are
// complementary: "each approach can be used in cases when one of the
// values (k or threshold) is known". It also observes a failure mode
// of top-k — if the statistic is slightly higher in one region, all k
// results concentrate there. FindTopK implements the formulation on
// the same surrogate + multimodal-optimizer machinery so both query
// types share one trained model, and its swarm-cluster extraction
// counters (but cannot fully eliminate) the concentration issue.

// TopKConfig configures a top-k run.
type TopKConfig struct {
	// K is the number of regions requested.
	K int
	// Largest selects the k highest-statistic regions; false selects
	// the k lowest.
	Largest bool
	// C is the region-size regularizer of the threshold objective,
	// reused so tiny boxes do not dominate (default 4).
	C float64
	// GSO overrides optimizer parameters (defaults as FinderConfig).
	GSO gso.Params
	// MinSideFrac/MaxSideFrac bound region half-sides (defaults 0.01
	// and 0.15).
	MinSideFrac float64
	MaxSideFrac float64
	// OnIteration, when non-nil, receives every swarm iteration's
	// telemetry as it completes. Top-k regions are only materialized
	// by the end-of-run clustering, so there is no per-region
	// streaming counterpart here.
	OnIteration func(gso.IterStats)
}

// topKClusterEps is the swarm-cluster linkage threshold of top-k
// extraction, as a fraction of the domain extent.
const topKClusterEps = 0.05

// TopKResult is the outcome of FindTopK.
type TopKResult struct {
	// Regions are the k best regions found, best first. Fewer than k
	// are returned when the swarm discovered fewer distinct optima —
	// the concentration behaviour Section VI warns about.
	Regions []Region
	// Swarm is the raw optimizer outcome.
	Swarm *gso.Result
	// Elapsed is the wall-clock mining time.
	Elapsed time.Duration
}

// FindTopK mines the k regions with the highest (or lowest) statistic.
// Without a threshold there is no constraint to reject regions, so the
// objective is the size-regularized statistic itself:
//
//	J(x, l) = ±f̂(x, l) / (Π l_i)^(C/d)
//
// maximized by GSO; converged particles are grouped into clusters and
// each cluster's extent is scored by the statistic function.
func (f *Finder) FindTopK(cfg TopKConfig) (*TopKResult, error) {
	return f.FindTopKContext(context.Background(), cfg)
}

// FindTopKContext is FindTopK with cancellation: the context is
// propagated to the optimizer, which checks it once per swarm
// iteration.
func (f *Finder) FindTopKContext(ctx context.Context, cfg TopKConfig) (*TopKResult, error) {
	if cfg.K < 1 {
		return nil, errors.New("core: TopK K must be >= 1")
	}
	dims := f.domain.Dims()
	fc := FinderConfig{C: cfg.C, GSO: cfg.GSO, MinSideFrac: cfg.MinSideFrac, MaxSideFrac: cfg.MaxSideFrac}
	fc = fc.withDefaults(dims)

	sign := 1.0
	if !cfg.Largest {
		sign = -1
	}
	// Softer size pressure than the threshold objective: the raw
	// statistic is not log-compressed here, so the exponent is spread
	// over the dimensions to stay comparable.
	sizeExp := fc.C / float64(dims)
	stat := f.stat
	score := func(l []float64, y float64) (float64, bool) {
		if math.IsNaN(y) {
			return 0, false
		}
		vol := 1.0
		for _, li := range l {
			if li <= 0 {
				return 0, false
			}
			vol *= li
		}
		return sign * y / math.Pow(vol, sizeExp), true
	}
	var obj gso.Objective = gso.ObjectiveFunc(func(vec []float64) (float64, bool) {
		x, l := geom.DecodeRegion(vec)
		return score(l, stat(x, l))
	})
	if f.batch != nil {
		obj = newBatchObjective(obj, f.batch, score)
	}

	space := geom.SolutionSpace(f.domain, fc.MinSideFrac, fc.MaxSideFrac)
	opts := gso.Options{InvalidWalk: 1}
	if cfg.OnIteration != nil {
		onIter := cfg.OnIteration
		opts.Observer = func(it gso.IterStats, _ gso.SwarmView) { onIter(it) }
	}
	start := time.Now()
	res, err := gso.RunContext(ctx, fc.GSO, space, obj, opts)
	if err != nil {
		return nil, err
	}

	clusters := ClusterRegions(res, f.domain, topKClusterEps)
	regions := make([]Region, 0, len(clusters))
	for _, rect := range clusters {
		y := stat(rect.Center(), rect.HalfSides())
		if math.IsNaN(y) {
			continue
		}
		regions = append(regions, Region{Rect: rect, Estimate: y, Worms: 1})
	}
	sort.Slice(regions, func(i, j int) bool {
		if cfg.Largest {
			return regions[i].Estimate > regions[j].Estimate
		}
		return regions[i].Estimate < regions[j].Estimate
	})
	if len(regions) > cfg.K {
		regions = regions[:cfg.K]
	}
	return &TopKResult{Regions: regions, Swarm: res, Elapsed: time.Since(start)}, nil
}
