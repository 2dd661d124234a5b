package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"

	"surf/internal/gso"
)

// Top-k formulation. The paper's Related Work (Section VI) discusses
// the alternative of asking for the k highest-statistic regions rather
// than all regions beyond a threshold, noting the two are
// complementary: "each approach can be used in cases when one of the
// values (k or threshold) is known". It also observes a failure mode
// of top-k — if the statistic is slightly higher in one region, all k
// results concentrate there. FindTopKContext implements the
// formulation on the same surrogate + multimodal-optimizer machinery:
// both query types share one trained model and one swarm runner
// (Finder.mine), differing only in the per-row score and the
// extraction, and the top-k swarm-cluster extraction counters (but
// cannot fully eliminate) the concentration issue.

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

// FindTopKContext mines the k regions with the highest (or lowest)
// statistic. Without a threshold there is no constraint to reject
// regions, so GSO maximizes the size-regularized statistic itself:
//
//	J(x, l) = ±f̂(x, l) / (Π l_i)^(C/d)
//
// The swarm's cluster extents with a defined Estimate are ranked and
// cut to K (fewer when the swarm found fewer distinct optima — the
// concentration Section VI warns about); their Score stays 0.
func (f *Finder) FindTopKContext(ctx context.Context, cfg TopKConfig) (*FindResult, error) {
	if cfg.K < 1 {
		return nil, errors.New("core: TopK K must be >= 1")
	}
	sign := 1.0
	if !cfg.Largest {
		sign = -1
	}
	objFor := func(fc FinderConfig) (regionObjective, error) {
		// Softer size pressure than the threshold objective: the raw
		// statistic is not log-compressed here, so the exponent is
		// spread over the dimensions to stay comparable.
		sizeExp := fc.C / float64(f.domain.Dims())
		return regionObjective{pred: f.pred, score: func(l []float64, y float64) (float64, bool) {
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
		}}, nil
	}
	extract := func(res *gso.Result, _ gso.Objective, _ FinderConfig) []Region {
		regions := slices.DeleteFunc(f.ClusterExtents(res, topKClusterEps, 0), func(r Region) bool {
			return math.IsNaN(r.Estimate)
		})
		sort.Slice(regions, func(i, j int) bool {
			if cfg.Largest {
				return regions[i].Estimate > regions[j].Estimate
			}
			return regions[i].Estimate < regions[j].Estimate
		})
		return regions[:min(len(regions), cfg.K)]
	}
	fc := FinderConfig{C: cfg.C, GSO: cfg.GSO, MinSideFrac: cfg.MinSideFrac, MaxSideFrac: cfg.MaxSideFrac, OnIteration: cfg.OnIteration}
	return f.mine(ctx, fc, objFor, extract)
}
