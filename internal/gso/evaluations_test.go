package gso

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"surf/internal/geom"
)

// countingObjective scores fn and counts the positions it scores:
// one-off Fitness calls in scalar, rows of EvaluateBatch in batch.
type countingObjective struct {
	fn            func(pos []float64) (float64, bool)
	scalar, batch *atomic.Int64
}

func (o countingObjective) Fitness(pos []float64) (float64, bool) {
	o.scalar.Add(1)
	return o.fn(pos)
}

// countingBatchObjective is countingObjective through the
// BatchObjective interface.
type countingBatchObjective struct{ countingObjective }

func (o countingBatchObjective) NewBatchEvaluator() BatchEvaluator {
	return countingEval{o.countingObjective}
}

type countingEval struct{ countingObjective }

func (e countingEval) EvaluateBatch(pos [][]float64, fitness []float64, valid []bool) {
	e.batch.Add(int64(len(pos)))
	for i, p := range pos {
		fitness[i], valid[i] = e.fn(p)
	}
}

// bumpFn thresholds a Gaussian bump at (0.7, 0.7, …): it is defined,
// with the bump's height, only where that height exceeds 1/2, a disc
// over about 4% of the unit square, so most worms start on invalid
// positions.
func bumpFn(pos []float64) (float64, bool) {
	var d2 float64
	for _, v := range pos {
		d2 += (v - 0.7) * (v - 0.7)
	}
	h := math.Exp(-d2 / 0.02)
	return h, h > 0.5
}

// nanFn is sphereFn with a slab where the fitness is a valid NaN, so
// the worms that start there carry NaN luciferin for the whole run.
func nanFn(pos []float64) (float64, bool) {
	if pos[0] < 0.2 {
		return math.NaN(), true
	}
	return sphereFn(pos)
}

// clumpedStarts puts the L worms on five points, so many start on top
// of a brighter worm and skip their first move (d = 0).
func clumpedStarts(L int) [][]float64 {
	pos := make([][]float64, L)
	for i := range pos {
		c := 0.1 + 0.2*float64(i%5)
		pos[i] = []float64{c, 1 - c}
	}
	return pos
}

// TestEvaluationsCountMovedWorms: after the first iteration the swarm
// scores only the worms that moved. The rows the objective saw and
// Result.Evaluations both equal L + Σ_{t<T−1} Moved_t, fewer than L·T.
// The Weight calls are at most as many: a worm ranked in the dimmest
// tie group is no worm's candidate, so it is weighed only once a phase
// ranks it brighter. Where most of the space is invalid, fewer than
// half the evaluated positions are weighed; once some luciferin is NaN
// every worm is a candidate and every evaluated position is weighed.
// Either way the Result is the one of the reference that re-evaluates
// and re-weighs every worm, bit for bit.
func TestEvaluationsCountMovedWorms(t *testing.T) {
	const (
		weighSome = iota // weight calls ≤ Evaluations
		weighFew         // weight calls < Evaluations/2
		weighAll         // weight calls = Evaluations
	)
	tests := []struct {
		name    string
		fn      func(pos []float64) (float64, bool)
		workers int
		batch   bool
		weight  bool
		walk    bool
		init    bool
		weighs  int
	}{
		{name: "scalar"},
		{name: "scalar/workers=3", workers: 3},
		{name: "batch/workers=0", batch: true},
		{name: "batch/workers=1", workers: 1, batch: true},
		{name: "batch/workers=3", workers: 3, batch: true},
		{name: "scalar/weight", weight: true},
		{name: "batch/weight/workers=3", workers: 3, batch: true, weight: true},
		{name: "scalar/walk", walk: true},
		{name: "batch/weight/walk/workers=3", workers: 3, batch: true, weight: true, walk: true},
		{name: "scalar/init", init: true},
		{name: "batch/weight/walk/init/workers=3", workers: 3, batch: true, weight: true, walk: true, init: true},
		{name: "bump/scalar/weight", fn: bumpFn, weight: true, weighs: weighFew},
		{name: "bump/batch/weight/workers=3", fn: bumpFn, workers: 3, batch: true, weight: true, weighs: weighFew},
		{name: "bump/scalar/weight/walk", fn: bumpFn, weight: true, walk: true, weighs: weighFew},
		{name: "bump/batch/weight/walk/workers=3", fn: bumpFn, workers: 3, batch: true, weight: true, walk: true, weighs: weighFew},
		{name: "nan/scalar/weight/walk", fn: nanFn, weight: true, walk: true, weighs: weighAll},
		{name: "nan/batch/weight/walk/workers=3", fn: nanFn, workers: 3, batch: true, weight: true, walk: true, weighs: weighAll},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			p.Glowworms, p.MaxIters, p.Workers, p.Seed = 50, 30, tt.workers, 5
			bounds := geom.Unit(2)
			var scalar, batch, weighed atomic.Int64
			fn := tt.fn
			if fn == nil {
				fn = sphereFn
			}
			counting := countingObjective{fn, &scalar, &batch}
			var obj Objective = counting
			if tt.batch {
				obj = countingBatchObjective{counting}
			}
			var opts Options
			if tt.weight {
				opts.Weight = func(pos []float64) float64 {
					weighed.Add(1)
					return 1 + pos[0]
				}
			}
			if tt.walk {
				opts.InvalidWalk = 1
			}
			var start [][]float64
			if tt.init {
				start = clumpedStarts(p.Glowworms)
			}

			got, err := run(context.Background(), p, bounds, obj, opts, start)
			if err != nil {
				t.Fatal(err)
			}
			rows := scalar.Load() + batch.Load()
			if tt.batch && scalar.Load() != 0 {
				t.Errorf("batch objective scored %d positions one at a time", scalar.Load())
			}
			if want := evaluationsMade(got); got.Evaluations != want || rows != int64(want) {
				t.Errorf("%d evaluations and %d rows scored, want L + moved = %d", got.Evaluations, rows, want)
			}
			if tt.weight {
				w, e := weighed.Load(), int64(got.Evaluations)
				switch {
				case w > e:
					t.Errorf("%d weight calls, more than the %d evaluations", w, e)
				case tt.weighs == weighFew && 2*w >= e:
					t.Errorf("%d weight calls, not below half the %d evaluations", w, e)
				case tt.weighs == weighAll && w != e:
					t.Errorf("%d weight calls, want one per evaluation (%d)", w, e)
				}
			}
			if got.Evaluations >= p.Glowworms*got.Iterations {
				t.Errorf("%d evaluations over %d iterations: no worm ever stayed put", got.Evaluations, got.Iterations)
			}

			want, err := runReference(context.Background(), p, bounds, obj, opts, start)
			if err != nil {
				t.Fatal(err)
			}
			if diff := diffResults(got, want); diff != "" {
				t.Fatal(diff)
			}
			if diff := diffEvaluations(got, want); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}

// TestWeighsWormOnceItIsACandidate follows three worms on a line
// through two phases. A starts invalid at 0.1, out of everyone's
// reach, C at 0.51 and the brightest, D, at 0.65. Phase 0 ranks D, C,
// A: A is nobody's candidate, so only C and D are weighed, and A stays
// put. C steps toward D onto a fitness of −10 and turns dimmest, so
// phase 1 ranks A before the cut: A is weighed then, at the position
// it has kept since the start, and C's roulette between A and D reads
// that weight. C, moved but now past the cut, is not weighed.
func TestWeighsWormOnceItIsACandidate(t *testing.T) {
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) {
		switch x := pos[0]; {
		case x < 0.2:
			return 0, false
		case x >= 0.6:
			return 5, true
		case x >= 0.5 && x < 0.52:
			return 1, true
		}
		return -10, true
	})
	var weighed []float64
	opts := Options{Weight: func(pos []float64) float64 {
		weighed = append(weighed, pos[0])
		if pos[0] < 0.2 {
			return 100
		}
		return 1
	}}
	p := DefaultParams()
	p.Glowworms, p.MaxIters = 3, 2
	start := [][]float64{{0.1}, {0.51}, {0.65}}
	got, err := run(context.Background(), p, geom.Unit(1), obj, opts, start)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.51, 0.65, 0.1}; !slices.Equal(weighed, want) {
		t.Errorf("weighed positions %v, want %v", weighed, want)
	}
	weighed = nil
	want, err := runReference(context.Background(), p, geom.Unit(1), obj, opts, start)
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffResults(got, want); diff != "" {
		t.Fatal(diff)
	}
}
