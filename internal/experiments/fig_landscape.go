package experiments

import (
	"fmt"
	"math"

	"surf/internal/core"
	"surf/internal/geom"
	"surf/internal/gso"
	"surf/internal/synth"
)

// Fig1Convergence reproduces paper Fig. 1: final particle positions in
// the 2-dim region solution space (center x1 vs half-side l1) for a
// d = 1 density dataset, plus the objective-value grid the particles
// climb. The paper reports 84% of particles converging to regions
// satisfying f(x, l) > yR.
func Fig1Convergence(scale Scale) (*Report, error) {
	rep := &Report{Name: "fig1"}

	n := 8000
	if scale == Full {
		n = 12000
	}
	ds := synth.MustGenerate(synth.Config{Dims: 1, Regions: 3, Stat: synth.Density, N: n, Seed: 41})
	s, ev, _, err := trainedSurrogate(ds, scale, 1)
	if err != nil {
		return nil, err
	}
	// Paper uses yR = 1080 for this figure.
	const yR = 1080
	objCfg := core.ObjectiveConfig{YR: yR, Dir: core.Above, C: 4}
	obj, err := core.NewObjective(s.StatFn(), objCfg)
	if err != nil {
		return nil, err
	}

	space := geom.SolutionSpace(ds.Domain(), 0.01, 0.2)
	p := gsoParamsFor(1, scale, 5)
	res, err := gso.Run(p, space, obj, gso.Options{})
	if err != nil {
		return nil, err
	}

	// Final positions, their objective value and whether the TRUE f
	// satisfies the constraint (the figure's claim is about true
	// satisfaction).
	particles := &Table{
		Name:   "particles",
		Title:  "Fig 1: final particle positions (x1 = region center, l1 = half side)",
		Header: []string{"particle", "x1", "l1", "objective", "valid_surrogate", "valid_true"},
	}
	validTrue := 0
	for i, pos := range res.Positions {
		x, l := geom.DecodeRegion(pos)
		fit := math.NaN()
		if res.Valid[i] {
			fit = res.Fitness[i]
		}
		yTrue, _ := ev.Evaluate(geom.FromCenter(x, l))
		vt := objCfg.Satisfies(yTrue)
		if vt {
			validTrue++
		}
		particles.AddRow(i, x[0], l[0], fit, res.Valid[i], vt)
	}
	rep.Tables = append(rep.Tables, particles)

	// Objective grid over the (x1, l1) plane for the figure's shading.
	const gridRes = 40
	grid := &Table{
		Name:   "grid",
		Title:  "Fig 1: objective value over the (x1, l1) region space (NaN = constraint violated)",
		Header: []string{"x1", "l1", "objective"},
	}
	for i := 0; i < gridRes; i++ {
		x1 := space.Min[0] + (float64(i)+0.5)*(space.Max[0]-space.Min[0])/gridRes
		for j := 0; j < gridRes; j++ {
			l1 := space.Min[1] + (float64(j)+0.5)*(space.Max[1]-space.Min[1])/gridRes
			v, ok := obj([]float64{x1, l1})
			if !ok {
				v = math.NaN()
			}
			grid.AddRow(x1, l1, v)
		}
	}
	rep.Tables = append(rep.Tables, grid)

	frac := float64(validTrue) / float64(len(res.Positions))
	rep.Notef("%.0f%% of particles converged to regions truly satisfying f > %d (paper: 84%%)", frac*100, yR)
	rep.Notef("ground-truth regions: %d; GSO iterations: %d", len(ds.GT), res.Iterations)
	return rep, nil
}

// Fig2Datasets reproduces paper Fig. 2: the four corner settings of
// the synthetic generator (aggregate/density × k = 1/3), summarized as
// ground-truth boxes and their statistic values.
func Fig2Datasets(scale Scale) (*Report, error) {
	rep := &Report{Name: "fig2"}
	t := &Table{
		Name:   "datasets",
		Title:  "Fig 2: synthetic ground-truth regions",
		Header: []string{"stat", "k", "d", "N", "gt_region", "gt_bounds", "gt_statistic", "suggested_yR"},
	}
	n := 6000
	if scale == Full {
		n = 12000
	}
	settings := []struct {
		stat synth.StatType
		k, d int
	}{
		{synth.Aggregate, 1, 1},
		{synth.Aggregate, 3, 1},
		{synth.Density, 1, 2},
		{synth.Density, 3, 2},
	}
	for si, cfg := range settings {
		ds := synth.MustGenerate(synth.Config{
			Dims: cfg.d, Regions: cfg.k, Stat: cfg.stat, N: n, Seed: uint64(100 + si),
		})
		ev, err := evaluatorFor(ds.Data, ds.Spec)
		if err != nil {
			return nil, err
		}
		for gi, gt := range ds.GT {
			y, _ := ev.Evaluate(gt)
			t.AddRow(cfg.stat.String(), cfg.k, cfg.d, ds.Data.Len(), gi, gt.String(), y, ds.SuggestedYR)
		}
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notef("every ground-truth statistic exceeds its suggested yR, so the planted regions are the interesting ones")
	return rep, nil
}

// Fig7Objectives reproduces paper Fig. 7: the region solution space of
// a d = 1, k = 3 dataset under the Eq. 4 log objective (top row; the
// constraint-violating area is undefined) versus the Eq. 2 ratio
// objective (bottom row; defined everywhere), for c ∈ {1, 2, 3, 4}.
func Fig7Objectives(scale Scale) (*Report, error) {
	rep := &Report{Name: "fig7"}
	n := 8000
	if scale == Full {
		n = 12000
	}
	ds := synth.MustGenerate(synth.Config{Dims: 1, Regions: 3, Stat: synth.Density, N: n, Seed: 71})
	ev, err := evaluatorFor(ds.Data, ds.Spec)
	if err != nil {
		return nil, err
	}
	stat := core.StatFnFromEvaluator(ev)
	space := geom.SolutionSpace(ds.Domain(), 0.01, 0.2)

	const gridRes = 30
	summary := &Table{
		Name:   "undefined_fraction",
		Title:  "Fig 7: fraction of the solution space the objective leaves undefined",
		Header: []string{"objective", "c", "undefined_frac"},
	}
	for _, form := range []struct {
		name     string
		useRatio bool
	}{{"eq4_log", false}, {"eq2_ratio", true}} {
		for c := 1.0; c <= 4.0; c++ {
			obj, err := core.NewObjective(stat, core.ObjectiveConfig{
				YR: ds.SuggestedYR, Dir: core.Above, C: c, UseRatio: form.useRatio,
			})
			if err != nil {
				return nil, err
			}
			grid := &Table{
				Name:   fmt.Sprintf("%s_c%d", form.name, int(c)),
				Title:  fmt.Sprintf("Fig 7: %s objective over (x1, l1), c = %d", form.name, int(c)),
				Header: []string{"x1", "l1", "value"},
			}
			undefinedCells := 0
			for i := 0; i < gridRes; i++ {
				x1 := space.Min[0] + (float64(i)+0.5)*(space.Max[0]-space.Min[0])/gridRes
				for j := 0; j < gridRes; j++ {
					l1 := space.Min[1] + (float64(j)+0.5)*(space.Max[1]-space.Min[1])/gridRes
					v, ok := obj([]float64{x1, l1})
					if !ok {
						v = math.NaN()
						undefinedCells++
					}
					grid.AddRow(x1, l1, v)
				}
			}
			rep.Tables = append(rep.Tables, grid)
			summary.AddRow(form.name, c, float64(undefinedCells)/(gridRes*gridRes))
		}
	}
	rep.Tables = append(rep.Tables, summary)
	rep.Notef("the log form leaves constraint-violating space undefined (isolating glowworms); the ratio form assigns it misleading finite values")
	return rep, nil
}

// Fig8Sensitivity reproduces paper Fig. 8: the share of uniformly
// spread candidate solutions that remain viable (valid and within
// radius 0.2 of the objective's peak) as c grows — c acts as a size
// regularizer shrinking the acceptable-region set.
func Fig8Sensitivity(scale Scale) (*Report, error) {
	rep := &Report{Name: "fig8"}
	n := 8000
	if scale == Full {
		n = 12000
	}
	ds := synth.MustGenerate(synth.Config{Dims: 1, Regions: 1, Stat: synth.Density, N: n, Seed: 81})
	ev, err := evaluatorFor(ds.Data, ds.Spec)
	if err != nil {
		return nil, err
	}
	stat := core.StatFnFromEvaluator(ev)
	// The side range extends well past the ground-truth size so the
	// peak has room to slide: for small c the count term dominates
	// and the optimum sits at the largest valid box; once c ≳ 1 the
	// size regularizer pulls the peak down the narrowing "valid cone"
	// and progressively fewer candidates remain near it.
	space := geom.SolutionSpace(ds.Domain(), 0.005, 0.5)

	// A fixed uniform lattice of candidate solutions.
	const lattice = 60
	var cands [][]float64
	for i := 0; i < lattice; i++ {
		x1 := space.Min[0] + (float64(i)+0.5)*(space.Max[0]-space.Min[0])/lattice
		for j := 0; j < lattice; j++ {
			l1 := space.Min[1] + (float64(j)+0.5)*(space.Max[1]-space.Min[1])/lattice
			cands = append(cands, []float64{x1, l1})
		}
	}

	t := &Table{
		Name:   "viable",
		Title:  "Fig 8: viable solutions (valid and within radius 0.2 of the peak) vs c",
		Header: []string{"c", "viable_frac"},
	}
	const radius = 0.2
	for _, c := range []float64{0.01, 0.25, 0.5, 0.75, 1.0, 1.125, 1.25, 1.375, 1.5, 1.625, 1.75, 1.875, 2.0} {
		obj, err := core.NewObjective(stat, core.ObjectiveConfig{
			YR: ds.SuggestedYR, Dir: core.Above, C: c,
		})
		if err != nil {
			return nil, err
		}
		// Locate the peak, then count valid candidates near it.
		var peak []float64
		best := math.Inf(-1)
		vals := make([]float64, len(cands))
		valid := make([]bool, len(cands))
		for i, cand := range cands {
			v, ok := obj(cand)
			vals[i], valid[i] = v, ok
			if ok && v > best {
				best = v
				peak = cand
			}
		}
		viable := 0
		if peak != nil {
			for i, cand := range cands {
				if !valid[i] {
					continue
				}
				dx := cand[0] - peak[0]
				dl := cand[1] - peak[1]
				if math.Sqrt(dx*dx+dl*dl) <= radius {
					viable++
				}
			}
		}
		t.AddRow(c, float64(viable)/float64(len(cands)))
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notef("once the size regularizer governs the peak (c ≳ 1) the viable share decays with c, the paper's Fig. 8 shape; below that the count term pins the peak to the largest valid box and the share is flat")
	return rep, nil
}
