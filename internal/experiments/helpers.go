package experiments

import (
	"fmt"
	"math"
	"time"

	"surf/internal/core"
	"surf/internal/dataset"
	"surf/internal/gbt"
	"surf/internal/geom"
	"surf/internal/gso"
	"surf/internal/naive"
	"surf/internal/prim"
	"surf/internal/synth"
)

// evaluatorFor builds the cheapest correct true-f evaluator for a
// dataset: a grid index in low dimensions, a linear scan otherwise.
func evaluatorFor(ds *dataset.Dataset, spec dataset.Spec) (dataset.Evaluator, error) {
	if len(spec.FilterCols) <= 3 && spec.Stat.Decomposable() {
		return dataset.NewGridIndex(ds, spec, 0)
	}
	return dataset.NewLinearScan(ds, spec)
}

// workloadSize mirrors the paper's 300–300K query range: training sets
// grow with dimensionality.
func workloadSize(dims int, scale Scale) int {
	if scale == Full {
		switch dims {
		case 1:
			return 5000
		case 2:
			return 20000
		case 3:
			return 50000
		case 4:
			return 100000
		default:
			return 200000
		}
	}
	return 800 + 1200*dims
}

// gbtParamsFor returns surrogate hyper-parameters per scale.
func gbtParamsFor(scale Scale) gbt.Params {
	p := gbt.DefaultParams()
	if scale == Full {
		p.NumTrees = 300
		p.MaxDepth = 8
	} else {
		p.NumTrees = 120
		p.MaxDepth = 6
	}
	return p
}

// gsoParamsFor resolves the swarm through core.SwarmParams (the
// paper's L = 50·2d, T = 100) with scale-dependent budgets: Small caps
// the swarm at 200 worms, Full runs 250 iterations. Every run uses its
// whole budget.
func gsoParamsFor(dims int, scale Scale, seed uint64) gso.Params {
	p := core.SwarmParams(dims, gso.Params{Seed: seed})
	if scale == Full {
		p.MaxIters = 250
	} else {
		p.Glowworms = min(p.Glowworms, 200)
	}
	return p
}

// trainedSurrogate builds the true-f evaluator, generates the training
// workload and fits the surrogate for a synthetic dataset.
func trainedSurrogate(ds *synth.Dataset, scale Scale, seed uint64) (*core.Surrogate, dataset.Evaluator, time.Duration, error) {
	ev, err := evaluatorFor(ds.Data, ds.Spec)
	if err != nil {
		return nil, nil, 0, err
	}
	wcfg := synth.DefaultWorkloadConfig(workloadSize(ds.Config.Dims, scale))
	wcfg.Seed = seed
	log, err := synth.GenerateWorkload(ev, ds.Domain(), wcfg)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	s, err := core.TrainSurrogate(log, gbtParamsFor(scale))
	if err != nil {
		return nil, nil, 0, err
	}
	return s, ev, time.Since(start), nil
}

// proposed converts a find result to plain rectangles. Proposals are
// assessed the paper's way ("all the proposed regions given by the
// algorithms", Section V-B): every valid converged particle counts,
// and additionally the swarm-cluster extents — under the c-regularized
// objective the particles carpet each interesting region with small
// boxes (paper Fig. 1), so the cluster bounding boxes recover the
// regions' full extents.
func proposed(res *core.FindResult, domain geom.Rect) []geom.Rect {
	var out []geom.Rect
	for i, pos := range res.Swarm.Positions {
		if !res.Swarm.Valid[i] {
			continue
		}
		out = append(out, geom.RectFromVector(pos).Clip(domain))
	}
	out = append(out, core.ClusterRegions(res.Swarm, domain, core.ExtentClusterEps)...)
	if len(out) == 0 {
		for _, r := range res.Regions {
			out = append(out, r.Rect)
		}
	}
	return out
}

// meanIoUPerGT scores a proposal set against ground truth the way the
// paper does (Section V-B, footnote 5): for each GT region take the
// best IoU among the proposals, then average over the GT regions.
func meanIoUPerGT(proposals, gt []geom.Rect) float64 {
	if len(gt) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, g := range gt {
		best := 0.0
		for _, p := range proposals {
			if iou := p.IoU(g); iou > best {
				best = iou
			}
		}
		sum += best
	}
	return sum / float64(len(gt))
}

// runSuRF trains a surrogate (time excluded from mining time, matching
// the paper's train-once deployment) and mines regions with GSO over
// the compiled kernel.
func runSuRF(ds *synth.Dataset, scale Scale, seed uint64) (regions []geom.Rect, mine time.Duration, err error) {
	s, _, _, err := trainedSurrogate(ds, scale, seed)
	if err != nil {
		return nil, 0, err
	}
	finder, err := core.NewSurrogateFinder(s, ds.Domain())
	if err != nil {
		return nil, 0, err
	}
	return mineWith(finder, ds, scale, seed)
}

// runFGlowWorm mines with GSO against the true f — the paper's
// f+GlowWorm baseline.
func runFGlowWorm(ds *synth.Dataset, scale Scale, seed uint64) ([]geom.Rect, time.Duration, error) {
	ev, err := evaluatorFor(ds.Data, ds.Spec)
	if err != nil {
		return nil, 0, err
	}
	finder, err := core.NewFinder(core.StatFnFromEvaluator(ev), ds.Domain())
	if err != nil {
		return nil, 0, err
	}
	return mineWith(finder, ds, scale, seed)
}

// mineWith runs the experiments' threshold find over ds on finder and
// returns every proposal with the mining time.
func mineWith(finder *core.Finder, ds *synth.Dataset, scale Scale, seed uint64) ([]geom.Rect, time.Duration, error) {
	cfg := core.FinderConfig{
		Threshold: ds.SuggestedYR,
		Dir:       core.Above,
		C:         4,
		GSO:       gsoParamsFor(ds.Config.Dims, scale, seed),
		// GT half-sides are 0.10–0.15 of the unit domain; search the
		// training workload's side range.
		MinSideFrac: 0.01,
		MaxSideFrac: 0.15,
		MaxRegions:  8,
	}
	res, err := finder.Find(cfg)
	if err != nil {
		return nil, 0, err
	}
	return proposed(res, ds.Domain()), res.Elapsed, nil
}

// predict returns the surrogate's predictions for the feature rows X.
func predict(s *core.Surrogate, X [][]float64) []float64 {
	out := make([]float64, len(X))
	s.Kernel().PredictBatch(X, out)
	return out
}

// runNaive enumerates the paper's n = m = 6 grid against the true f
// under a scale-dependent time budget and keeps the surviving
// candidates as proposals. The accuracy experiments (fig3/fig4) give
// it the indexed evaluator; Table I forces linear scans via
// runNaiveScan to expose the paper's O((n·m)^d · N) cost model.
func runNaive(ds *synth.Dataset, scale Scale, budget time.Duration) ([]geom.Rect, *naive.Result, error) {
	ev, err := evaluatorFor(ds.Data, ds.Spec)
	if err != nil {
		return nil, nil, err
	}
	return runNaiveOn(ev, ds, budget)
}

// runNaiveScan is runNaive with every f evaluation a full O(N) scan.
func runNaiveScan(ds *synth.Dataset, budget time.Duration) ([]geom.Rect, *naive.Result, error) {
	ev, err := dataset.NewLinearScan(ds.Data, ds.Spec)
	if err != nil {
		return nil, nil, err
	}
	return runNaiveOn(ev, ds, budget)
}

func runNaiveOn(ev dataset.Evaluator, ds *synth.Dataset, budget time.Duration) ([]geom.Rect, *naive.Result, error) {
	obj, err := core.NewObjective(core.StatFnFromEvaluator(ev), core.ObjectiveConfig{
		YR: ds.SuggestedYR, Dir: core.Above, C: 4,
	})
	if err != nil {
		return nil, nil, err
	}
	space := geom.SolutionSpace(ds.Domain(), 0.01, 0.15)
	res, err := naive.Run(budget, space, obj)
	if err != nil {
		return nil, nil, err
	}
	// Every retained valid candidate counts as a proposal, matching
	// the particle-level IoU evaluation used for the GSO methods.
	regions := make([]geom.Rect, 0, len(res.Regions))
	for _, sr := range res.Regions {
		regions = append(regions, geom.RectFromVector(sr.Vector).Clip(ds.Domain()))
	}
	return regions, res, nil
}

// runPRIM applies PRIM with the paper's settings: β₀ = 0.01 and a
// response threshold of 2 for aggregate statistics. For density
// datasets the response is constant 1 (PRIM has no density notion —
// the paper's point).
func runPRIM(ds *synth.Dataset) ([]geom.Rect, time.Duration, error) {
	n := ds.Data.Len()
	dims := ds.Config.Dims
	X := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, dims)
		for j := 0; j < dims; j++ {
			row[j] = ds.Data.Col(j)[i]
		}
		X[i] = row
	}
	y := make([]float64, n)
	if ds.Config.Stat == synth.Aggregate {
		copy(y, ds.Data.Col(ds.Spec.TargetCol))
	} else {
		for i := range y {
			y[i] = 1
		}
	}
	p := prim.DefaultParams()
	p.MaxBoxes = 4
	if ds.Config.Stat == synth.Aggregate {
		p.Threshold = 2
	}
	start := time.Now()
	boxes, err := prim.Fit(p, X, y)
	if err != nil {
		return nil, 0, err
	}
	var regions []geom.Rect
	for _, b := range boxes {
		regions = append(regions, b.Rect)
	}
	return regions, time.Since(start), nil
}

// fmtSeconds renders a duration in seconds with sensible precision.
func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.3g", d.Seconds())
}
