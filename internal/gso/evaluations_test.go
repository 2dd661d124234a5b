package gso

import (
	"context"
	"sync/atomic"
	"testing"

	"surf/internal/geom"
)

// countingSphere scores sphereFn and counts the positions it scores:
// one-off Fitness calls in scalar, rows of EvaluateBatch in batch.
type countingSphere struct {
	scalar, batch *atomic.Int64
}

func (o countingSphere) Fitness(pos []float64) (float64, bool) {
	o.scalar.Add(1)
	return sphereFn(pos)
}

// countingBatchSphere is countingSphere through the BatchObjective
// interface.
type countingBatchSphere struct{ countingSphere }

func (o countingBatchSphere) NewBatchEvaluator() BatchEvaluator {
	return countingSphereEval{o.countingSphere}
}

type countingSphereEval struct{ countingSphere }

func (e countingSphereEval) EvaluateBatch(pos [][]float64, fitness []float64, valid []bool) {
	e.batch.Add(int64(len(pos)))
	for i, p := range pos {
		fitness[i], valid[i] = sphereFn(p)
	}
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
// scores and weighs only the worms that moved. The rows the objective
// saw, the Weight calls and Result.Evaluations all equal
// L + Σ_{t<T−1} Moved_t, fewer than L·T, and the Result is the one of
// the reference that re-evaluates every worm, bit for bit.
func TestEvaluationsCountMovedWorms(t *testing.T) {
	tests := []struct {
		name    string
		workers int
		batch   bool
		weight  bool
		walk    bool
		init    bool
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
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			p.Glowworms, p.MaxIters, p.Workers, p.Seed = 50, 30, tt.workers, 5
			bounds := geom.Unit(2)
			var scalar, batch, weighed atomic.Int64
			var obj Objective = countingSphere{&scalar, &batch}
			if tt.batch {
				obj = countingBatchSphere{countingSphere{&scalar, &batch}}
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
			if tt.weight && weighed.Load() != int64(got.Evaluations) {
				t.Errorf("%d weight calls, want one per evaluation (%d)", weighed.Load(), got.Evaluations)
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
