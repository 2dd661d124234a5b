package gso

import (
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
// evaluator churn). The worker count is capped at GOMAXPROCS.
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
		if e.calls != p.MaxIters {
			t.Errorf("evaluator %d ran %d times, want once per iteration (%d)", i, e.calls, p.MaxIters)
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
