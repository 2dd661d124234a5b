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

// batchSphere exposes sphereFn through the BatchObjective interface.
type batchSphere struct{}

func (batchSphere) Fitness(pos []float64) (float64, bool) { return sphereFn(pos) }
func (batchSphere) NewBatchEvaluator() BatchEvaluator     { return &batchSphereEval{} }

// batchSphereEval counts calls so tests can prove the batch path ran.
type batchSphereEval struct{ calls int }

func (e *batchSphereEval) EvaluateBatch(pos [][]float64, fitness []float64, valid []bool) {
	e.calls++
	for i, p := range pos {
		fitness[i], valid[i] = sphereFn(p)
	}
}

// TestBatchObjectiveMatchesScalar: a batch objective must drive the
// swarm to exactly the same outcome as the scalar objective, for any
// worker count.
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
		got, err := Run(pw, bounds, batchSphere{}, Options{})
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

// TestBatchEvaluatorPerWorker: the run must create one evaluator per
// worker up front and reuse it every iteration (no per-iteration
// evaluator churn). The worker count is capped at GOMAXPROCS. Each
// evaluator runs at most once per iteration: the first iteration
// scores all 64 worms, so every shard is used, and later ones score
// only the worms that moved, which may leave a shard empty.
func TestBatchEvaluatorPerWorker(t *testing.T) {
	var evals []*batchSphereEval
	rec := &recordingBatchObj{newEval: func() *batchSphereEval {
		e := &batchSphereEval{}
		evals = append(evals, e)
		return e
	}}
	p := DefaultParams()
	p.Glowworms = 64
	p.MaxIters = 10
	p.Workers = 4
	if _, err := Run(p, geom.Unit(2), rec, Options{}); err != nil {
		t.Fatal(err)
	}
	if want := min(p.Workers, runtime.GOMAXPROCS(0)); len(evals) != want {
		t.Fatalf("created %d evaluators, want one per worker (%d)", len(evals), want)
	}
	for i, e := range evals {
		if e.calls < 1 || e.calls > p.MaxIters {
			t.Errorf("evaluator %d ran %d times, want between 1 and once per iteration (%d)", i, e.calls, p.MaxIters)
		}
	}
}

type recordingBatchObj struct {
	newEval func() *batchSphereEval
}

func (*recordingBatchObj) Fitness(pos []float64) (float64, bool) { return sphereFn(pos) }
func (o *recordingBatchObj) NewBatchEvaluator() BatchEvaluator   { return o.newEval() }

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

	base, err := Run(p, bounds, batchSphere{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 64} {
		pw := p
		pw.Workers = workers
		got, err := Run(pw, bounds, batchSphere{}, opts)
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
	opts := Options{Weight: weight, InvalidWalk: 1, RecordHistory: true}
	for _, tt := range []struct {
		name string
		obj  Objective
	}{
		{"scalar", ObjectiveFunc(sphereFn)},
		{"batch", batchSphere{}},
	} {
		p := DefaultParams()
		p.Glowworms, p.MaxIters, p.Workers = L, 20, 1
		want, err := Run(p, geom.Unit(4), tt.obj, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tt.name, workers), func(t *testing.T) {
				pw := p
				pw.Workers = workers
				got, err := Run(pw, geom.Unit(4), tt.obj, opts)
				if err != nil {
					t.Fatal(err)
				}
				if diff := diffResults(got, want); diff != "" {
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
		e := newSwarmEvaluator(batchSphere{}, tt.workers, tt.swarm)
		if e.workers != tt.want || len(e.batch) != tt.want {
			t.Errorf("workers=%d swarm=%d: %d workers, %d evaluators, want %d",
				tt.workers, tt.swarm, e.workers, len(e.batch), tt.want)
		}
	}
}
