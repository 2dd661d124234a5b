package experiments

import (
	"surf/internal/core"
	"surf/internal/dataset"
	"surf/internal/geom"
	"surf/internal/stats"
	"surf/internal/synth"
)

// Fig5Crimes reproduces paper Fig. 5 and the Section V-C qualitative
// study: train a surrogate over the crimes point pattern, ask for
// regions whose incident count exceeds the third quartile of random
// region evaluations (yR = Q3), and check every proposed region
// against the true function. The paper reports that 100% of the
// proposed regions comply with f(x, l) > yR, and shows the surrogate's
// density field as a coarse approximation of the true one.
func Fig5Crimes(scale Scale) (*Report, error) {
	rep := &Report{Name: "fig5"}

	ccfg := synth.DefaultCrimesConfig()
	if scale == Small {
		ccfg.N = 20000
	}
	crimes, err := synth.Crimes(ccfg)
	if err != nil {
		return nil, err
	}
	ev, err := dataset.NewGridIndex(crimes.Data, crimes.Spec, 0)
	if err != nil {
		return nil, err
	}

	// Past evaluations double as both the training set and the sample
	// defining Q3. The Small workload must stay dense enough that the
	// surrogate's peak sits on the true hotspot: at 3000 queries the
	// compliance outcome is a knife-edge — equal-quality retrains (any
	// reordering of training-time float arithmetic) swing it between
	// ~0.3 and ~0.8 — while 6000 keeps it stable across swarm seeds.
	queries := 6000
	if scale == Full {
		queries = 20000
	}
	wcfg := synth.DefaultWorkloadConfig(queries)
	wcfg.Seed = 51
	log, err := synth.GenerateWorkload(ev, crimes.Domain(), wcfg)
	if err != nil {
		return nil, err
	}
	ys := make([]float64, len(log))
	for i, q := range log {
		ys[i] = q.Y
	}
	ecdf, err := stats.NewECDF(ys)
	if err != nil {
		return nil, err
	}
	yR := ecdf.Quantile(0.75)

	surrogate, err := core.TrainSurrogate(log, gbtParamsFor(scale))
	if err != nil {
		return nil, err
	}

	finder, err := core.NewSurrogateFinder(surrogate, crimes.Domain())
	if err != nil {
		return nil, err
	}
	gsoParams := gsoParamsFor(2, scale, 52)
	if scale == Small {
		// The crimes surface is spiky; at the shared Small budget of
		// 100 iterations the swarm reports half-converged clusters on
		// marginal shoulders of the hotspot (measured compliance
		// 0.3–0.86 depending on seed). 150 iterations lets every
		// cluster settle and holds compliance at 1.0 across seeds.
		gsoParams.MaxIters = 150
	}
	cfg := core.FinderConfig{
		Threshold: yR,
		Dir:       core.Above,
		C:         4,
		GSO:       gsoParams,
		// Q3-sized counts need room: search the full trained range.
		MinSideFrac: 0.03,
		MaxSideFrac: 0.15,
		MaxRegions:  10,
	}
	res, err := finder.Find(cfg)
	if err != nil {
		return nil, err
	}
	objCfg := core.ObjectiveConfig{YR: yR, Dir: core.Above, C: 4}
	compliance, err := core.Verify(res.Regions, core.StatFnFromEvaluator(ev), objCfg)
	if err != nil {
		return nil, err
	}

	regions := &Table{
		Name:   "regions",
		Title:  "Fig 5: proposed regions (surrogate estimate vs true count)",
		Header: []string{"region", "bounds", "estimate", "true_count", "satisfies_true"},
	}
	for i, r := range res.Regions {
		regions.AddRow(i, r.Rect.String(), r.Estimate, r.TrueValue, r.SatisfiesTrue)
	}
	rep.Tables = append(rep.Tables, regions)

	// Density heatmaps: true counts and surrogate estimates over a
	// fixed probe box swept across the map (the figure's two panels).
	const gridRes = 20
	probe := []float64{0.05, 0.05}
	heat := &Table{
		Name:   "heatmap",
		Title:  "Fig 5: true vs surrogate region counts over the map (probe box ±0.05)",
		Header: []string{"x", "y", "true_count", "surrogate_count"},
	}
	for i := 0; i < gridRes; i++ {
		x := (float64(i) + 0.5) / gridRes
		for j := 0; j < gridRes; j++ {
			y := (float64(j) + 0.5) / gridRes
			center := []float64{x, y}
			yTrue, _ := ev.Evaluate(geom.FromCenter(center, probe))
			yHat := surrogate.Predict(center, probe)
			heat.AddRow(x, y, yTrue, yHat)
		}
	}
	rep.Tables = append(rep.Tables, heat)

	rep.Notef("yR = Q3 = %.1f over %d random region evaluations", yR, len(ys))
	rep.Notef("%.0f%% of proposed regions comply with the TRUE f > yR (paper: 100%%)", compliance*100)
	rep.Notef("P(f > yR) over random regions = %.3f by construction of Q3", ecdf.Exceedance(yR))
	return rep, nil
}

// HARStudy runs the Human Activity half of the Section V-C qualitative
// study as a reportable experiment: SuRF must locate regions with a
// standing-activity ratio above 0.3 even though such regions are a
// highly unlikely event under random exploration (the paper measures
// P(ratio > 0.3) = 0.0035 over random regions).
func HARStudy(scale Scale) (*Report, error) {
	rep := &Report{Name: "har"}
	res, err := RunHAR(scale, 53)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "regions",
		Title:  "HAR (paper §V-C): regions with standing ratio > 0.3",
		Header: []string{"region", "bounds", "estimate", "true_ratio", "satisfies_true"},
	}
	for i, r := range res.Regions {
		t.AddRow(i, r.Rect.String(), r.Estimate, r.TrueValue, r.SatisfiesTrue)
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notef("P(ratio > %.1f) over random regions = %.4f (paper: 0.0035)", res.YR, res.Exceedance)
	rep.Notef("%.0f%% of proposed regions comply with the TRUE ratio > %.1f", res.Compliance*100, res.YR)
	return rep, nil
}

// HARResult summarizes the Human Activity use case of Section V-C
// (part of the same qualitative study; exposed for the activityregions
// example and tests).
type HARResult struct {
	// YR is the ratio threshold (paper: 0.3).
	YR float64
	// Exceedance is P(ratio > yR) over random regions (paper:
	// 0.0035 — a highly unlikely event).
	Exceedance float64
	// Regions are the mined high-ratio regions.
	Regions []core.Region
	// Compliance is the verified fraction.
	Compliance float64
}

// RunHAR executes the Human Activity ratio study.
func RunHAR(scale Scale, seed uint64) (*HARResult, error) {
	hcfg := synth.DefaultHARConfig()
	if scale == Small {
		hcfg.N = 15000
	}
	har, err := synth.HumanActivity(hcfg)
	if err != nil {
		return nil, err
	}
	ev, err := dataset.NewLinearScan(har.Data, har.Spec)
	if err != nil {
		return nil, err
	}
	queries := 4000
	if scale == Full {
		queries = 20000
	}
	wcfg := synth.DefaultWorkloadConfig(queries)
	wcfg.Seed = seed
	wcfg.MaxSideFrac = 0.2
	log, err := synth.GenerateWorkload(ev, har.Domain(), wcfg)
	if err != nil {
		return nil, err
	}
	ys := make([]float64, len(log))
	for i, q := range log {
		ys[i] = q.Y
	}
	ecdf, err := stats.NewECDF(ys)
	if err != nil {
		return nil, err
	}
	const yR = 0.3

	surrogate, err := core.TrainSurrogate(log, gbtParamsFor(scale))
	if err != nil {
		return nil, err
	}
	finder, err := core.NewSurrogateFinder(surrogate, har.Domain())
	if err != nil {
		return nil, err
	}
	// The ratio surrogate extrapolates confidently into data-free
	// accelerometer space; the Eq. 8 KDE prior keeps particles where
	// samples actually exist.
	prior, err := core.FitDensity([][]float64{har.Data.Col(0), har.Data.Col(1), har.Data.Col(2)}, 800)
	if err != nil {
		return nil, err
	}
	if err := finder.AttachPrior(prior); err != nil {
		return nil, err
	}
	cfg := core.FinderConfig{
		Threshold:   yR,
		Dir:         core.Above,
		C:           1, // ratio statistics do not shrink with volume; mild size pressure suffices
		GSO:         gsoParamsFor(3, scale, seed+1),
		UseKDE:      true,
		MinSideFrac: 0.05,
		MaxSideFrac: 0.2,
		MaxRegions:  8,
	}
	res, err := finder.Find(cfg)
	if err != nil {
		return nil, err
	}
	objCfg := core.ObjectiveConfig{YR: yR, Dir: core.Above, C: 1}
	compliance, err := core.Verify(res.Regions, core.StatFnFromEvaluator(ev), objCfg)
	if err != nil {
		return nil, err
	}
	return &HARResult{
		YR:         yR,
		Exceedance: ecdf.Exceedance(yR),
		Regions:    res.Regions,
		Compliance: compliance,
	}, nil
}
