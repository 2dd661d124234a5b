package experiments

import (
	"math"
	"time"

	"surf/internal/core"
	"surf/internal/geom"
	"surf/internal/gso"
	"surf/internal/stats"
	"surf/internal/synth"
)

// Fig9Convergence reproduces paper Fig. 9: the expected objective
// value E[J] of the swarm over iterations, for region-space
// dimensionality 2d ∈ {2, 4, 6, 8, 10} and k ∈ {1, 3} GT regions,
// using L = 50·(2d) glowworms and the Section V-G initial-radius
// rule. The paper finds convergence after ~63 iterations on average;
// each curve ends where convergedAt finds the plateau.
func Fig9Convergence(scale Scale) (*Report, error) {
	rep := &Report{Name: "fig9"}
	maxD := 5
	iters := 250
	if scale == Small {
		maxD = 3
		iters = 120
	}

	curves := &Table{
		Name:   "eJ",
		Title:  "Fig 9: E[J] per iteration (region dims = 2d)",
		Header: []string{"k", "region_dims", "iteration", "mean_J"},
	}
	conv := &Table{
		Name:   "iterations",
		Title:  "Fig 9: iterations to convergence per setting",
		Header: []string{"k", "region_dims", "iterations"},
	}
	var convIters []float64
	for _, k := range []int{1, 3} {
		for d := 1; d <= maxD; d++ {
			ds := synth.MustGenerate(synth.Config{
				Dims: d, Regions: k, Stat: synth.Density,
				N: 6000, Seed: uint64(90 + 10*k + d),
			})
			s, _, _, err := trainedSurrogate(ds, Small, uint64(91+d))
			if err != nil {
				return nil, err
			}
			obj, err := core.NewObjective(s.StatFn(), core.ObjectiveConfig{
				YR: ds.SuggestedYR, Dir: core.Above, C: 4,
			})
			if err != nil {
				return nil, err
			}
			p := gsoParamsFor(d, scale, uint64(92+d))
			p.MaxIters = iters
			space := geom.SolutionSpace(ds.Domain(), 0.01, 0.15)
			res, err := gso.Run(p, space, obj, gso.Options{})
			if err != nil {
				return nil, err
			}
			n := convergedAt(res.Trace, convergeWindow, convergeEps)
			trace := res.Trace[:n]
			step := 1 + len(trace)/25 // downsample the curve
			for i := 0; i < len(trace); i += step {
				tr := trace[i]
				curves.AddRow(k, 2*d, tr.Iteration, tr.MeanFitness)
			}
			conv.AddRow(k, 2*d, n)
			convIters = append(convIters, float64(n))
		}
	}
	rep.Tables = append(rep.Tables, curves, conv)
	rep.Notef("average iterations to convergence: %.0f (paper: 63)", stats.MeanOf(convIters))
	return rep, nil
}

// The plateau rule Fig. 9 reads convergence by: the mean luciferin
// spans less than convergeEps over convergeWindow iterations.
const (
	convergeWindow = 15
	convergeEps    = 1e-4
)

// convergedAt returns the number of iterations a swarm took to
// converge: t+1 for the first iteration t ≥ window at which the mean
// luciferin of iterations t−window+1 … t spans less than eps, or
// len(trace) when no window does. A NaN in the window never converges.
// window must be at least 1.
func convergedAt(trace []gso.IterStats, window int, eps float64) int {
	for t := window; t < len(trace); t++ {
		win := trace[t-window+1 : t+1]
		lo, hi := win[0].MeanLuciferin, win[0].MeanLuciferin
		for _, it := range win {
			lo = math.Min(lo, it.MeanLuciferin)
			hi = math.Max(hi, it.MeanLuciferin)
		}
		if hi-lo < eps {
			return t + 1
		}
	}
	return len(trace)
}

// Fig10GSOScaling reproduces paper Fig. 10: GSO wall time as region
// dimensionality grows, for swarm sizes L ∈ {100..500} at T = 100
// (left panel) and iteration budgets T ∈ {100..400} at L = 100 (right
// panel), all against a surrogate-backed objective. The paper sees
// near-linear growth in both parameters with runs of a few seconds.
func Fig10GSOScaling(scale Scale) (*Report, error) {
	rep := &Report{Name: "fig10"}
	maxD := 5
	glowworms := []int{100, 200, 300, 400, 500}
	itersList := []int{100, 200, 300, 400}
	if scale == Small {
		maxD = 3
		glowworms = []int{100, 200, 300}
		itersList = []int{100, 200}
	}

	left := &Table{
		Name:   "glowworms",
		Title:  "Fig 10 (left): GSO seconds vs region dims for varying L (T = 100)",
		Header: []string{"region_dims", "glowworms", "seconds"},
	}
	right := &Table{
		Name:   "iterations",
		Title:  "Fig 10 (right): GSO seconds vs region dims for varying T (L = 100)",
		Header: []string{"region_dims", "iterations", "seconds"},
	}

	for d := 1; d <= maxD; d++ {
		ds := synth.MustGenerate(synth.Config{
			Dims: d, Regions: 3, Stat: synth.Density, N: 6000, Seed: uint64(100 + d),
		})
		s, _, _, err := trainedSurrogate(ds, Small, uint64(101+d))
		if err != nil {
			return nil, err
		}
		obj, err := core.NewObjective(s.StatFn(), core.ObjectiveConfig{
			YR: ds.SuggestedYR, Dir: core.Above, C: 4,
		})
		if err != nil {
			return nil, err
		}
		space := geom.SolutionSpace(ds.Domain(), 0.01, 0.15)

		run := func(L, T int) (time.Duration, error) {
			p := gso.DefaultParams()
			p.Glowworms = L
			p.MaxIters = T
			p.Seed = uint64(102 + d)
			start := time.Now()
			if _, err := gso.Run(p, space, obj, gso.Options{}); err != nil {
				return 0, err
			}
			return time.Since(start), nil
		}
		for _, L := range glowworms {
			el, err := run(L, 100)
			if err != nil {
				return nil, err
			}
			left.AddRow(2*d, L, el.Seconds())
		}
		for _, T := range itersList {
			el, err := run(100, T)
			if err != nil {
				return nil, err
			}
			right.AddRow(2*d, T, el.Seconds())
		}
	}
	rep.Tables = append(rep.Tables, left, right)
	rep.Notef("time grows near-linearly in L and T: prediction cost of f̂ dominates the O(TL²d) neighbour bookkeeping (paper Section V-G)")
	return rep, nil
}

// Fig11Surrogate reproduces paper Fig. 11. Left: the correlation
// between a surrogate's out-of-sample RMSE and the IoU it achieves —
// the paper estimates Pearson −0.57, i.e. better statistic estimators
// find better regions. Right: held-out RMSE as the number of training
// examples grows, per dimensionality — error levels off around 10³
// examples.
func Fig11Surrogate(scale Scale) (*Report, error) {
	rep := &Report{Name: "fig11"}

	// --- Left panel: IoU vs RMSE over surrogates of varying quality.
	// The paper runs this at d = 3 with up to 300K training queries;
	// the Small scale drops to d = 2 so the handful of thousand
	// queries it can afford still cover the region space (paper
	// Section V-B: training needs grow sharply with d).
	leftDims := 2
	if scale == Full {
		leftDims = 3
	}
	ds := synth.MustGenerate(synth.Config{Dims: leftDims, Regions: 1, Stat: synth.Density, N: 8000, Seed: 111})
	ev, err := evaluatorFor(ds.Data, ds.Spec)
	if err != nil {
		return nil, err
	}
	testCfg := synth.DefaultWorkloadConfig(1500)
	testCfg.Seed = 112
	testLog, err := synth.GenerateWorkload(ev, ds.Domain(), testCfg)
	if err != nil {
		return nil, err
	}
	testX, testY := testLog.Features()

	left := &Table{
		Name:   "iou_vs_rmse",
		Title:  "Fig 11 (left): surrogate RMSE vs achieved IoU",
		Header: []string{"train_queries", "trees", "depth", "rmse", "iou"},
	}
	type quality struct {
		queries, trees, depth int
	}
	qualities := []quality{
		{100, 10, 2}, {200, 20, 3}, {400, 40, 3}, {800, 60, 4},
		{1500, 80, 5}, {3000, 120, 6}, {5000, 150, 6},
	}
	if scale == Full {
		qualities = append(qualities, quality{10000, 200, 8}, quality{20000, 300, 8})
	}
	var rmses, ious []float64
	for qi, q := range qualities {
		wcfg := synth.DefaultWorkloadConfig(q.queries)
		wcfg.Seed = uint64(113 + qi)
		log, err := synth.GenerateWorkload(ev, ds.Domain(), wcfg)
		if err != nil {
			return nil, err
		}
		params := gbtParamsFor(Small)
		params.NumTrees = q.trees
		params.MaxDepth = q.depth
		s, err := core.TrainSurrogate(log, params)
		if err != nil {
			return nil, err
		}
		pred := predict(s, testX)
		rmse, err := stats.RMSE(pred, testY)
		if err != nil {
			return nil, err
		}
		finder, err := core.NewSurrogateFinder(s, ds.Domain())
		if err != nil {
			return nil, err
		}
		regions, _, err := mineWith(finder, ds, Small, uint64(114+qi))
		if err != nil {
			return nil, err
		}
		iou := meanIoUPerGT(regions, ds.GT)
		left.AddRow(q.queries, q.trees, q.depth, rmse, iou)
		rmses = append(rmses, rmse)
		ious = append(ious, iou)
	}
	rep.Tables = append(rep.Tables, left)
	if corr, err := stats.Pearson(rmses, ious); err == nil && !math.IsNaN(corr) {
		rep.Notef("Pearson correlation between RMSE and IoU: %.2f (paper: -0.57)", corr)
	}

	// --- Right panel: RMSE vs training examples per dimensionality.
	right := &Table{
		Name:   "rmse_vs_examples",
		Title:  "Fig 11 (right): held-out RMSE vs training examples (region dims = 2d)",
		Header: []string{"region_dims", "train_examples", "rmse"},
	}
	maxD := 5
	sizesList := []int{30, 100, 300, 1000, 3000}
	if scale == Small {
		maxD = 3
		sizesList = []int{30, 100, 300, 1000}
	}
	for d := 1; d <= maxD; d++ {
		dsd := synth.MustGenerate(synth.Config{Dims: d, Regions: 1, Stat: synth.Density, N: 6000, Seed: uint64(120 + d)})
		evd, err := evaluatorFor(dsd.Data, dsd.Spec)
		if err != nil {
			return nil, err
		}
		holdCfg := synth.DefaultWorkloadConfig(1000)
		holdCfg.Seed = uint64(121 + d)
		hold, err := synth.GenerateWorkload(evd, dsd.Domain(), holdCfg)
		if err != nil {
			return nil, err
		}
		hx, hy := hold.Features()
		for _, sz := range sizesList {
			wcfg := synth.DefaultWorkloadConfig(sz)
			wcfg.Seed = uint64(122+d) * uint64(sz)
			log, err := synth.GenerateWorkload(evd, dsd.Domain(), wcfg)
			if err != nil {
				return nil, err
			}
			s, err := core.TrainSurrogate(log, gbtParamsFor(Small))
			if err != nil {
				return nil, err
			}
			rmse, err := stats.RMSE(predict(s, hx), hy)
			if err != nil {
				return nil, err
			}
			right.AddRow(2*d, sz, rmse)
		}
	}
	rep.Tables = append(rep.Tables, right)
	rep.Notef("RMSE falls with training size and levels off around 10^3 examples (paper Fig. 11 right)")
	return rep, nil
}

// Fig12Complexity reproduces paper Fig. 12: training-set and
// cross-validated RMSE (left) and the resulting IoU (right) as the
// trees' maximum depth grows — deeper models fit better and IoU tends
// up, saturating early.
func Fig12Complexity(scale Scale) (*Report, error) {
	rep := &Report{Name: "fig12"}
	depths := []int{2, 4, 6, 8}
	dims := 2 // as in fig11: Small-scale workloads cannot cover d = 3
	if scale == Full {
		depths = []int{2, 3, 4, 5, 6, 8, 10, 12, 15}
		dims = 3
	}

	ds := synth.MustGenerate(synth.Config{Dims: dims, Regions: 1, Stat: synth.Density, N: 8000, Seed: 131})
	ev, err := evaluatorFor(ds.Data, ds.Spec)
	if err != nil {
		return nil, err
	}
	trainCfg := synth.DefaultWorkloadConfig(3000)
	trainCfg.Seed = 132
	log, err := synth.GenerateWorkload(ev, ds.Domain(), trainCfg)
	if err != nil {
		return nil, err
	}
	split := len(log) * 3 / 4
	trainLog, cvLog := log[:split], log[split:]
	trainX, trainY := trainLog.Features()
	cvX, cvY := cvLog.Features()

	t := &Table{
		Name:   "depth",
		Title:  "Fig 12: RMSE (train and CV) and IoU vs max tree depth",
		Header: []string{"max_depth", "train_rmse", "cv_rmse", "iou"},
	}
	for _, depth := range depths {
		params := gbtParamsFor(Small)
		params.MaxDepth = depth
		s, err := core.TrainSurrogate(trainLog, params)
		if err != nil {
			return nil, err
		}
		trainRMSE, err := stats.RMSE(predict(s, trainX), trainY)
		if err != nil {
			return nil, err
		}
		cvRMSE, err := stats.RMSE(predict(s, cvX), cvY)
		if err != nil {
			return nil, err
		}
		finder, err := core.NewSurrogateFinder(s, ds.Domain())
		if err != nil {
			return nil, err
		}
		regions, _, err := mineWith(finder, ds, Small, uint64(133+depth))
		if err != nil {
			return nil, err
		}
		t.AddRow(depth, trainRMSE, cvRMSE, meanIoUPerGT(regions, ds.GT))
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notef("RMSE drops with model complexity; IoU saturates once the surrogate is good enough (paper Fig. 12: 'a good enough approximation with relatively less complex models')")
	return rep, nil
}
