package gso

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"surf/internal/geom"
)

// sphereFn is a cheap multimodal-ish objective with an undefined
// pocket, exercising both valid and invalid positions.
func sphereFn(pos []float64) (float64, bool) {
	var s float64
	for _, v := range pos {
		s -= (v - 0.5) * (v - 0.5)
	}
	if s < -0.4 {
		return 0, false
	}
	return s, true
}

// TestBatchObjectiveMatchesScalar: an objective that scores whole
// shards must drive the swarm to exactly the same outcome as the
// per-position ObjectiveFunc, for any worker count.
func TestBatchObjectiveMatchesScalar(t *testing.T) {
	p := DefaultParams()
	p.Glowworms = 60
	p.MaxIters = 30
	bounds := geom.Unit(3)

	base, err := Run(p, bounds, ObjectiveFunc(sphereFn), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4, 7} {
		pw := p
		pw.Workers = workers
		got, err := Run(pw, bounds, newCountingObjective(sphereFn), Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Iterations != base.Iterations || got.Evaluations != base.Evaluations {
			t.Fatalf("workers=%d: %d iters/%d evals, want %d/%d",
				workers, got.Iterations, got.Evaluations, base.Iterations, base.Evaluations)
		}
		for i := range base.Positions {
			for j := range base.Positions[i] {
				if got.Positions[i][j] != base.Positions[i][j] {
					t.Fatalf("workers=%d: position[%d][%d] = %v, want %v",
						workers, i, j, got.Positions[i][j], base.Positions[i][j])
				}
			}
			if got.Luciferin[i] != base.Luciferin[i] || got.Valid[i] != base.Valid[i] {
				t.Fatalf("workers=%d: worm %d luciferin/valid diverged", workers, i)
			}
			bothNaN := math.IsNaN(got.Fitness[i]) && math.IsNaN(base.Fitness[i])
			if !bothNaN && got.Fitness[i] != base.Fitness[i] {
				t.Fatalf("workers=%d: fitness[%d] = %v, want %v", workers, i, got.Fitness[i], base.Fitness[i])
			}
		}
	}
}

// TestBatchEvaluatorPerWorker: each iteration hands the objective one
// contiguous shard per worker, the worker count capped at GOMAXPROCS,
// so Evaluate runs at most once per worker per iteration. The first
// iteration scores all 64 worms, so every shard is used; later ones
// score only the worms that moved, which may leave a shard empty, and
// an empty shard is not evaluated.
func TestBatchEvaluatorPerWorker(t *testing.T) {
	obj := newCountingObjective(sphereFn)
	p := DefaultParams()
	p.Glowworms = 64
	p.MaxIters = 10
	p.Workers = 4
	shards := int64(min(p.Workers, runtime.GOMAXPROCS(0)))
	var calls, rows []int64
	opts := Options{Observer: func(IterStats, SwarmView) {
		calls = append(calls, obj.calls.Swap(0))
		rows = append(rows, obj.rows.Swap(0))
	}}
	res, err := Run(p, geom.Unit(2), obj, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls[0] != shards {
		t.Errorf("first iteration: %d Evaluate calls, want one per worker (%d)", calls[0], shards)
	}
	for it, c := range calls {
		if c > shards || (c == 0) != (rows[it] == 0) {
			t.Errorf("iteration %d: %d Evaluate calls for %d rows over %d workers", it, c, rows[it], shards)
		}
		if it > 0 && rows[it] != int64(res.Trace[it-1].Moved) {
			t.Errorf("iteration %d: %d rows scored, want the %d worms that moved", it, rows[it], res.Trace[it-1].Moved)
		}
	}
}

// TestWeightedRunMatchesAcrossWorkers: the Eq. 8 selection weights are
// computed on the worker shards, and each depends only on its own
// position, so a weighted run must be bit-identical for any worker
// count — including counts the evaluator clamps.
func TestWeightedRunMatchesAcrossWorkers(t *testing.T) {
	p := DefaultParams()
	p.Glowworms = 40
	p.MaxIters = 25
	bounds := geom.Unit(2)
	weight := func(pos []float64) float64 { return math.Exp(-4 * (pos[0] - 0.3) * (pos[0] - 0.3)) }
	opts := Options{Weight: weight, InvalidWalk: 1}

	base, err := Run(p, bounds, newCountingObjective(sphereFn), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 64} {
		pw := p
		pw.Workers = workers
		got, err := Run(pw, bounds, newCountingObjective(sphereFn), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range base.Positions {
			for j := range base.Positions[i] {
				if got.Positions[i][j] != base.Positions[i][j] {
					t.Fatalf("workers=%d: position[%d][%d] = %v, want %v",
						workers, i, j, got.Positions[i][j], base.Positions[i][j])
				}
			}
			if got.Luciferin[i] != base.Luciferin[i] {
				t.Fatalf("workers=%d: worm %d luciferin diverged", workers, i)
			}
		}
	}
}

// TestRunSameForEveryWorkerCount: Workers spreads the fitness
// evaluations, the selection weights and the movement phase's neighbour
// scan over goroutines, while the draws stay on the calling goroutine
// in worm order, so a run returns the same Result, bit for bit, for
// every worker count. At L = 300 the first phase has L(L−1)/2 pair
// tests, enough for eight scan shards, and GOMAXPROCS is raised for the
// test so that 3 and 8 workers are not clamped to the host's CPUs.
func TestRunSameForEveryWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const L = 300
	if L*(L-1)/2 < 8*minShardPairs {
		t.Fatalf("%d worms are too few for eight scan shards", L)
	}
	weight := func(pos []float64) float64 { return math.Exp(-4 * (pos[0] - 0.3) * (pos[0] - 0.3)) }
	opts := Options{Weight: weight, InvalidWalk: 1}
	for _, tt := range []struct {
		name string
		obj  Objective
	}{
		{"scalar", ObjectiveFunc(sphereFn)},
		{"batch", newCountingObjective(sphereFn)},
	} {
		p := DefaultParams()
		p.Glowworms, p.MaxIters, p.Workers = L, 20, 1
		wantOpts := opts
		wantTrail := recordTrail(&wantOpts)
		want, err := Run(p, geom.Unit(4), tt.obj, wantOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tt.name, workers), func(t *testing.T) {
				pw := p
				pw.Workers = workers
				gotOpts := opts
				gotTrail := recordTrail(&gotOpts)
				got, err := Run(pw, geom.Unit(4), tt.obj, gotOpts)
				if err != nil {
					t.Fatal(err)
				}
				if diff := diffResults(got, want); diff != "" {
					t.Fatal(diff)
				}
				if diff := diffTrails(*gotTrail, *wantTrail, L); diff != "" {
					t.Fatal(diff)
				}
				if got.Evaluations != want.Evaluations {
					t.Errorf("%d evaluations, want %d", got.Evaluations, want.Evaluations)
				}
			})
		}
	}
}

// TestSwarmEvaluatorWorkerClamp: the pool is capped at GOMAXPROCS and
// at one worker per two positions instead of collapsing to a
// sequential run when more workers are requested than the swarm can
// use.
func TestSwarmEvaluatorWorkerClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	tests := []struct {
		workers, swarm, want int
	}{
		{workers: 0, swarm: 100, want: 1},
		{workers: 1, swarm: 100, want: 1},
		{workers: 2, swarm: 2, want: 1},
		{workers: 2, swarm: 100, want: min(2, procs)},
		{workers: 64, swarm: 20, want: min(10, procs)},
		{workers: 64, swarm: 1000, want: min(64, procs)},
	}
	for _, tt := range tests {
		if e := newSwarmEvaluator(ObjectiveFunc(sphereFn), tt.workers, tt.swarm); e.workers != tt.want {
			t.Errorf("workers=%d swarm=%d: %d workers, want %d", tt.workers, tt.swarm, e.workers, tt.want)
		}
	}
}
