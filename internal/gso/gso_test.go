package gso

import (
	"context"
	"math"
	"testing"

	"surf/internal/geom"
)

// peaksObjective is a classic multimodal test function: a sum of k
// Gaussian bumps in [0,1]^d. Every bump is a local optimum GSO should
// discover.
type peaksObjective struct {
	centers [][]float64
	sigma   float64
}

func (o *peaksObjective) fitness(pos []float64) (float64, bool) {
	var best float64
	for _, c := range o.centers {
		var d2 float64
		for j := range pos {
			d := pos[j] - c[j]
			d2 += d * d
		}
		v := math.Exp(-d2 / (2 * o.sigma * o.sigma))
		if v > best {
			best = v
		}
	}
	return best, true
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Glowworms = 1 },
		func(p *Params) { p.MaxIters = 0 },
		func(p *Params) { p.InitRadius = -1 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

func TestRunInputValidation(t *testing.T) {
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) { return 0, true })
	if _, err := Run(DefaultParams(), geom.Rect{}, obj, Options{}); err == nil {
		t.Error("expected error for zero-dimensional bounds")
	}
	p := DefaultParams()
	p.Glowworms = 1
	if _, err := Run(p, geom.Unit(2), obj, Options{}); err == nil {
		t.Error("expected error for a one-worm swarm")
	}
}

func TestConvergesToSinglePeak(t *testing.T) {
	obj := ObjectiveFunc((&peaksObjective{centers: [][]float64{{0.5, 0.5}}, sigma: 0.15}).fitness)
	p := DefaultParams()
	p.MaxIters = 150
	res, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	near := 0
	for _, pos := range res.Positions {
		if distTo(pos, []float64{0.5, 0.5}) < 0.15 {
			near++
		}
	}
	if frac := float64(near) / float64(p.Glowworms); frac < 0.5 {
		t.Errorf("only %.0f%% of worms near the single peak, want >= 50%%", frac*100)
	}
}

func TestCapturesMultiplePeaks(t *testing.T) {
	centers := [][]float64{{0.2, 0.2}, {0.8, 0.8}, {0.2, 0.8}}
	obj := ObjectiveFunc((&peaksObjective{centers: centers, sigma: 0.1}).fitness)
	p := DefaultParams()
	p.Glowworms = 150
	p.MaxIters = 200
	res, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every peak should capture some worms — the multimodal property
	// PSO lacks.
	for ci, c := range centers {
		captured := 0
		for _, pos := range res.Positions {
			if distTo(pos, c) < 0.15 {
				captured++
			}
		}
		if captured == 0 {
			t.Errorf("peak %d at %v captured no worms", ci, c)
		}
	}
}

func TestInvalidRegionsIsolated(t *testing.T) {
	// Objective undefined on the left half; a single peak on the
	// right. Worms starting left must go dim and not form clusters.
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) {
		if pos[0] < 0.5 {
			return 0, false
		}
		d := pos[0] - 0.75
		return math.Exp(-d * d / 0.005), true
	})
	p := DefaultParams()
	p.MaxIters = 120
	res, err := Run(p, geom.Unit(1), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Invalid-side worms should have near-zero luciferin (decayed from
	// ℓ0) unless they migrated right.
	for i, pos := range res.Positions {
		if pos[0] < 0.4 && res.Luciferin[i] > 1 {
			t.Errorf("worm %d stuck invalid at %v with bright luciferin %g", i, pos, res.Luciferin[i])
		}
	}
	// And the final mean valid fraction should not have collapsed.
	last := res.Trace[len(res.Trace)-1]
	if last.ValidFrac == 0 {
		t.Error("no worm ever reached the valid space")
	}
}

func TestLuciferinDecayWithoutSignal(t *testing.T) {
	// All positions invalid: luciferin must decay toward zero.
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) { return 0, false })
	p := DefaultParams()
	p.MaxIters = 50
	res, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Luciferin {
		want := initLuciferin * math.Pow(1-rho, float64(p.MaxIters))
		if math.Abs(l-want) > 1e-9 {
			t.Fatalf("worm %d luciferin = %g, want exact decay %g", i, l, want)
		}
	}
	if res.Trace[len(res.Trace)-1].Moved != 0 {
		t.Error("worms moved with no luciferin differences")
	}
}

func TestDeterminism(t *testing.T) {
	obj := ObjectiveFunc((&peaksObjective{centers: [][]float64{{0.3, 0.7}}, sigma: 0.2}).fitness)
	p := DefaultParams()
	p.MaxIters = 30
	r1, _ := Run(p, geom.Unit(2), obj, Options{})
	r2, _ := Run(p, geom.Unit(2), obj, Options{})
	for i := range r1.Positions {
		for j := range r1.Positions[i] {
			if r1.Positions[i][j] != r2.Positions[i][j] {
				t.Fatal("same seed must give identical trajectories")
			}
		}
	}
	p.Seed = 2
	r3, _ := Run(p, geom.Unit(2), obj, Options{})
	same := true
	for i := range r1.Positions {
		for j := range r1.Positions[i] {
			if r1.Positions[i][j] != r3.Positions[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestPositionsStayInBounds(t *testing.T) {
	obj := ObjectiveFunc((&peaksObjective{centers: [][]float64{{0.99, 0.99}}, sigma: 0.3}).fitness)
	bounds := geom.NewRect([]float64{-1, 0}, []float64{1, 2})
	p := DefaultParams()
	p.MaxIters = 80
	res, err := Run(p, bounds, obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pos := range res.Positions {
		if !bounds.Contains(pos) {
			t.Errorf("worm %d escaped bounds: %v", i, pos)
		}
	}
}

func TestLuciferinFixedPoint(t *testing.T) {
	// Constant objective: luciferin converges to γ·J/ρ, and every run
	// executes its whole budget.
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) { return 1, true })
	p := DefaultParams()
	p.MaxIters = 120
	res, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != p.MaxIters || len(res.Trace) != p.MaxIters {
		t.Errorf("%d iterations and %d trace entries, want %d", res.Iterations, len(res.Trace), p.MaxIters)
	}
	// Luciferin fixed point is γ·J/ρ = 0.6/0.4 = 1.5.
	for _, l := range res.Luciferin {
		if math.Abs(l-1.5) > 1e-3 {
			t.Errorf("luciferin %g, want fixed point 1.5", l)
		}
	}
}

func TestSelectionWeightBias(t *testing.T) {
	// Two identical peaks; weight function suppresses the right one.
	// Selection re-weighting (Eq. 8) should skew convergence left.
	centers := [][]float64{{0.2}, {0.8}}
	obj := ObjectiveFunc((&peaksObjective{centers: centers, sigma: 0.08}).fitness)
	p := DefaultParams()
	p.Glowworms = 200
	p.MaxIters = 150
	count := func(weight SelectionWeight, seed uint64) (left, right int) {
		pp := p
		pp.Seed = seed
		res, err := Run(pp, geom.Unit(1), obj, Options{Weight: weight})
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range res.Positions {
			if math.Abs(pos[0]-0.2) < 0.1 {
				left++
			}
			if math.Abs(pos[0]-0.8) < 0.1 {
				right++
			}
		}
		return left, right
	}
	suppressRight := func(pos []float64) float64 {
		if pos[0] > 0.5 {
			return 0.01
		}
		return 1
	}
	var lw, rw int
	for seed := uint64(1); seed <= 3; seed++ {
		l, r := count(suppressRight, seed)
		lw += l
		rw += r
	}
	if lw <= rw {
		t.Errorf("weighted runs: left %d, right %d; want left-biased", lw, rw)
	}
}

func TestHistoryRecording(t *testing.T) {
	obj := ObjectiveFunc((&peaksObjective{centers: [][]float64{{0.5}}, sigma: 0.2}).fitness)
	p := DefaultParams()
	p.Glowworms = 10
	p.MaxIters = 20
	res, err := Run(p, geom.Unit(1), obj, Options{RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 10 {
		t.Fatalf("history for %d worms, want 10", len(res.History))
	}
	for i, h := range res.History {
		if len(h) != res.Iterations {
			t.Errorf("worm %d history %d entries for %d iterations", i, len(h), res.Iterations)
		}
	}
}

func TestTraceShape(t *testing.T) {
	obj := ObjectiveFunc((&peaksObjective{centers: [][]float64{{0.5, 0.5}}, sigma: 0.2}).fitness)
	p := DefaultParams()
	p.MaxIters = 25
	res, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 25 || res.Iterations != 25 {
		t.Fatalf("trace %d entries, iterations %d", len(res.Trace), res.Iterations)
	}
	// Only the first iteration scores every worm; later ones score the
	// worms that moved in the iteration before.
	if want := evaluationsMade(res); res.Evaluations != want {
		t.Errorf("evaluations = %d, want L + moved = %d", res.Evaluations, want)
	}
	if res.Evaluations >= 25*p.Glowworms {
		t.Errorf("evaluations = %d, want fewer than L·T = %d: no worm ever stayed put", res.Evaluations, 25*p.Glowworms)
	}
	// Mean fitness should improve from start to finish on a unimodal
	// landscape.
	if res.Trace[len(res.Trace)-1].MeanFitness <= res.Trace[0].MeanFitness {
		t.Errorf("mean fitness did not improve: %g -> %g",
			res.Trace[0].MeanFitness, res.Trace[len(res.Trace)-1].MeanFitness)
	}
}

func TestInitialRadius(t *testing.T) {
	// Monotonicity: more worms -> smaller radius; more dims -> larger.
	r1 := InitialRadius(50, 2, 1)
	r2 := InitialRadius(500, 2, 1)
	if r2 >= r1 {
		t.Errorf("radius should shrink with swarm size: %g vs %g", r1, r2)
	}
	r3 := InitialRadius(50, 8, 1)
	if r3 <= r1 {
		t.Errorf("radius should grow with dimensions: %g vs %g", r3, r1)
	}
	if InitialRadius(0, 0, 2.5) != 2.5 {
		t.Error("degenerate arguments should return the extent")
	}
	// Scales linearly with extent.
	if math.Abs(InitialRadius(50, 2, 2)-2*r1) > 1e-12 {
		t.Error("radius should scale with extent")
	}
}

func TestInitPositionsHonored(t *testing.T) {
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) { return 0, false })
	p := DefaultParams()
	p.Glowworms = 4
	p.MaxIters = 1
	init := [][]float64{{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}, {0.4, 0.4}}
	res, err := run(context.Background(), p, geom.Unit(2), obj, Options{}, init)
	if err != nil {
		t.Fatal(err)
	}
	// With an all-invalid objective nothing moves, so positions stay.
	for i := range init {
		if res.Positions[i][0] != init[i][0] {
			t.Errorf("worm %d moved from its init position", i)
		}
	}
}

func distTo(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestParallelWorkersMatchSequential(t *testing.T) {
	obj := ObjectiveFunc((&peaksObjective{centers: [][]float64{{0.3, 0.3}, {0.7, 0.7}}, sigma: 0.1}).fitness)
	p := DefaultParams()
	p.MaxIters = 60
	seq, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 8
	par, err := Run(p, geom.Unit(2), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Positions {
		for j := range seq.Positions[i] {
			if seq.Positions[i][j] != par.Positions[i][j] {
				t.Fatalf("worker parallelism changed trajectories at worm %d dim %d", i, j)
			}
		}
	}
	if seq.Evaluations != par.Evaluations {
		t.Errorf("evaluation counts differ: %d vs %d", seq.Evaluations, par.Evaluations)
	}
}

// TestMovementIsSynchronous places three worms in the unit square,
// with fitness x + 2y: B at (0.5, 0.4) is worm 0, A at (0.4, 0.4) worm
// 1 and C at (0.5, 0.55), the brightest, worm 2. At radius 0.16 each
// worm but C has one brighter neighbour: B sees C at 0.15, and A sees
// B at 0.1 but not C at 0.18. B moves first, a step toward C. A then
// steps toward B's start position, straight along the x axis, not
// toward where B has just moved.
func TestMovementIsSynchronous(t *testing.T) {
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) { return pos[0] + 2*pos[1], true })
	p := DefaultParams()
	p.Glowworms, p.MaxIters, p.InitRadius = 3, 1, 0.16
	b, a, c := []float64{0.5, 0.4}, []float64{0.4, 0.4}, []float64{0.5, 0.55}
	res, err := run(context.Background(), p, geom.Unit(2), obj, Options{}, [][]float64{b, a, c})
	if err != nil {
		t.Fatal(err)
	}
	step := stepSize // the unit square's mean extent is 1
	toward := func(from, to []float64) []float64 {
		d := dist(from, to)
		return []float64{from[0] + step*(to[0]-from[0])/d, from[1] + step*(to[1]-from[1])/d}
	}
	movedB := toward(b, c)
	for k, want := range [][]float64{movedB, toward(a, b), c} {
		if !sameBits(res.Positions[k], want) {
			t.Errorf("worm %d at %v, want %v", k, res.Positions[k], want)
		}
	}
	if inPlace := toward(a, movedB); sameBits(res.Positions[1], inPlace) {
		t.Errorf("worm 1 at %v stepped toward worm 0's moved position", inPlace)
	}
}

func TestWorkersValidation(t *testing.T) {
	p := DefaultParams()
	p.Workers = -1
	if err := p.Validate(); err == nil {
		t.Error("expected error for negative Workers")
	}
}

func TestInvalidWalkDiscoversNarrowBasin(t *testing.T) {
	// Valid space is a narrow slab; every worm deliberately starts
	// far outside it. Canonical GSO freezes; InvalidWalk diffuses
	// until the slab is found.
	obj := ObjectiveFunc(func(pos []float64) (float64, bool) {
		if pos[0] < 0.70 || pos[0] > 0.75 {
			return 0, false
		}
		return 1, true
	})
	p := DefaultParams()
	p.Glowworms = 50
	p.MaxIters = 600
	p.Seed = 5
	init := make([][]float64, p.Glowworms)
	for i := range init {
		init[i] = []float64{0.5 * float64(i) / float64(p.Glowworms)}
	}
	res, err := run(context.Background(), p, geom.Unit(1), obj, Options{InvalidWalk: 2}, init)
	if err != nil {
		t.Fatal(err)
	}
	anyValid := false
	for _, ok := range res.Valid {
		if ok {
			anyValid = true
		}
	}
	if !anyValid {
		t.Error("random walk never discovered the valid slab")
	}
	// Canonical behaviour from the same all-invalid start: frozen.
	frozen, err := run(context.Background(), p, geom.Unit(1), obj, Options{}, init)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, tr := range frozen.Trace {
		moved += tr.Moved
	}
	if moved != 0 {
		t.Errorf("canonical GSO moved %d times from an all-invalid start", moved)
	}
	for _, ok := range frozen.Valid {
		if ok {
			t.Error("canonical GSO cannot reach the slab without movement")
		}
	}
}
