// Package gso implements Glowworm Swarm Optimization (Krishnanand &
// Ghose, Swarm Intelligence 2009), the evolutionary multimodal
// optimizer SuRF uses to locate many interesting regions at once
// (paper Section III-A).
//
// Each glowworm i carries a luciferin level ℓ_i updated as
//
//	ℓ_i(t) = (1−ρ)·ℓ_i(t−1) + γ·J(p_i(t))            (paper Eq. 6)
//
// and moves toward a probabilistically chosen brighter neighbour
// within an adaptive local-decision radius:
//
//	P{j} = (ℓ_j−ℓ_i) / Σ_k (ℓ_k−ℓ_i)                 (paper Eq. 7)
//	r_i(t+1) = min{r_s, max{0, r_i(t) + β(n_t − |N_i(t)|)}}
//
// ρ, γ, β, ℓ_0, n_t and the step s are the constants of Krishnanand &
// Ghose that SuRF uses throughout; the sensor range r_s is the domain
// diagonal, the longest distance between two worms.
//
// Because interactions are local, the swarm splits into disjoint
// groups that converge to distinct local optima — exactly the
// behaviour needed when several regions satisfy the analyst's
// threshold.
//
// Each iteration has two phases. Evaluation scores the worms through
// the one Objective contract: the worms to score, gathered into one
// contiguous shard per worker, so a model-backed objective predicts a
// whole shard per pass. A worm with no brighter neighbour stays put,
// and its fitness is a function of its position alone, so the first
// iteration scores every worm and each later one only the worms that
// moved in the iteration before; the rest keep the values they have.
// On the benchmark's surrogate finds (L = 200, T = 100) about 30% of
// worm-iterations stay put.
//
// An Eq. 8 weight is read only when its worm is a candidate in some
// roulette, i.e. strictly brighter than another worm, so each movement
// phase weighs only the moved worms ranked above the dimmest tie
// group. A moved worm in that group is weighed in the first phase that
// ranks it above the group, at the position it has kept since. Worms
// that were never valid share one decaying luciferin and usually make
// up the group, so on a mostly invalid space most moved worms are
// never weighed.
//
// Movement is synchronous, as in Krishnanand & Ghose: every worm
// picks its neighbour and steps from the positions the swarm held at
// the start of the phase, never toward a move made earlier in the same
// phase. Its neighbour search is quadratic in L: with luciferin ranked
// once per iteration, each worm tests only the strictly brighter worms,
// about half the L(L−1) ordered pairs, and compares squared distances
// without a square root (see rankedScan). Each ranking repairs the
// previous iteration's by insertion sort, as luciferin drifts little
// between iterations. At the surrogate's default L = 200 this search is
// most of the movement phase's cost. It reads only the phase's frozen
// state, so it shards over the workers; the random draws that follow,
// one per roulette and n per invalid-walk step, are made on the calling
// goroutine in worm order, so a run's answer depends on its seed alone,
// not on Params.Workers.
//
// Two SuRF-specific extensions are supported:
//
//  1. The objective may be *undefined* at a position (the log-form
//     objective of paper Eq. 4 rejects regions violating the
//     constraint). Undefined positions receive no luciferin
//     enhancement, so their carriers go dim, stop attracting others
//     and are drawn toward the valid space — the isolation behaviour
//     of paper Fig. 7.
//  2. Neighbour selection probabilities can be re-weighted by an
//     arbitrary positive weight (SuRF passes the KDE box mass of the
//     candidate region, paper Eq. 8).
package gso

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"surf/internal/geom"
)

// Objective scores swarm positions in R^n: Evaluate writes fitness[i]
// and valid[i] for pos[i], valid[i] = false marking a position outside
// the objective's domain (e.g. the log objective's argument was
// non-positive). The optimizer hands it the worms it scores as one
// contiguous shard per worker and, with Params.Workers > 1, calls it
// concurrently on disjoint shards. A shard holds whichever worms
// moved, so the same worm lands in different shards and positions from
// one iteration to the next: each result must be a pure function of
// its position, and the optimizer keeps the result of a worm that did
// not move instead of asking again.
type Objective interface {
	Evaluate(pos [][]float64, fitness []float64, valid []bool)
}

// ObjectiveFunc adapts a per-position fitness function to Objective.
type ObjectiveFunc func(pos []float64) (value float64, ok bool)

// Evaluate calls f on each position in turn.
func (f ObjectiveFunc) Evaluate(pos [][]float64, fitness []float64, valid []bool) {
	for i, p := range pos {
		fitness[i], valid[i] = f(p)
	}
}

// SelectionWeight optionally re-weights the probability of selecting a
// neighbour at the given position (paper Eq. 8). Must return a
// non-negative value and be a pure function of the position: a worm
// that did not move keeps its last weight. nil disables re-weighting.
type SelectionWeight func(pos []float64) float64

// The constants of the GSO paper used throughout SuRF's experiments.
const (
	// rho is the luciferin decay ρ.
	rho float64 = 0.4
	// gamma is the luciferin enhancement γ.
	gamma float64 = 0.6
	// beta is the neighbourhood radius adaptation rate β.
	beta float64 = 0.08
	// initLuciferin is ℓ_0, every worm's starting luciferin.
	initLuciferin float64 = 5
	// desiredNeighbors is n_t, the target neighbourhood size.
	desiredNeighbors = 5
	// stepSize is the movement step s, as a fraction of the average
	// domain extent (the canonical s=0.03 assumes a unit-ish domain).
	stepSize float64 = 0.03
)

// Params configure a GSO run. Zero value is invalid; start from
// DefaultParams.
type Params struct {
	// Glowworms is the swarm size L.
	Glowworms int
	// MaxIters is the iteration budget T; every run executes all of it.
	MaxIters int
	// InitRadius is r_0. When 0, the rule of paper Section V-G is
	// used: r_0 = (1 − (1/2)^(1/L))^(1/n) scaled by the domain extent.
	InitRadius float64
	// Workers evaluates the objective for the worms being scored, the
	// selection weights for the worms being weighed, and the movement
	// phase's neighbour scan with this many goroutines per iteration
	// (0 or 1 = sequential), capped at GOMAXPROCS and at one worker per
	// two glowworms; a phase with few pair tests scans on fewer.
	// Results are identical to the sequential run: the parallel work
	// reads only the iteration's frozen state, and the movement phase
	// makes its random draws on the calling goroutine in worm order.
	// The objective is handed one contiguous shard of the worms being
	// scored per worker; it and Options.Weight must be safe for
	// concurrent calls (the boosted-tree surrogate and the KDE box mass
	// are).
	Workers int
	// Seed drives initialization and neighbour selection.
	Seed uint64
}

// DefaultParams returns L=100 worms and T=100 iterations, with the
// Section V-G initial radius.
func DefaultParams() Params {
	return Params{
		Glowworms: 100,
		MaxIters:  100,
		Seed:      1,
	}
}

// Validate reports the first invalid parameter.
func (p Params) Validate() error {
	switch {
	case p.Glowworms < 2:
		return errors.New("gso: need at least 2 glowworms")
	case p.MaxIters < 1:
		return errors.New("gso: MaxIters must be >= 1")
	case p.InitRadius < 0:
		return errors.New("gso: InitRadius must be >= 0")
	case p.Workers < 0:
		return errors.New("gso: Workers must be >= 0")
	}
	return nil
}

// IterStats is one iteration's convergence telemetry (drives the
// paper's Fig. 9 E[J] curves).
type IterStats struct {
	// Iteration index (0-based).
	Iteration int
	// MeanFitness is E[J] over worms whose position is currently
	// valid; NaN when no worm is valid.
	MeanFitness float64
	// MeanLuciferin is the swarm's average luciferin.
	MeanLuciferin float64
	// ValidFrac is the fraction of worms at valid positions.
	ValidFrac float64
	// Moved is how many worms moved this iteration.
	Moved int
}

// Result is the outcome of a GSO run.
type Result struct {
	// Positions are the final particle positions.
	Positions [][]float64
	// Fitness holds each particle's last evaluated fitness (NaN when
	// invalid).
	Fitness []float64
	// Valid flags particles whose final position is in the
	// objective's domain.
	Valid []bool
	// Luciferin holds final luciferin levels.
	Luciferin []float64
	// Iterations executed: always Params.MaxIters.
	Iterations int
	// Evaluations counts the positions scored: every worm in the
	// first iteration, then only the worms that moved in the iteration
	// before, i.e. L + Σ_{t<T−1} Trace[t].Moved. The weights, when
	// Options.Weight is set, are computed for at most these positions:
	// only for those a roulette reads (see Options.Weight).
	Evaluations int
	// Trace is per-iteration telemetry.
	Trace []IterStats
}

// SwarmView is a read-only window onto the optimizer's working state,
// handed to Options.Observer once per iteration. All slices alias the
// optimizer's live buffers: they are valid only for the duration of
// the callback and must be copied if retained, and must not be
// mutated. Fitness and Valid hold the evaluation results at the
// start-of-iteration positions; Positions have already taken this
// iteration's movement step (worms drift at most one step between
// evaluation and observation).
type SwarmView struct {
	Positions [][]float64
	Fitness   []float64
	Valid     []bool
	Luciferin []float64
}

// Options tune run behaviour beyond the core parameters.
type Options struct {
	// Weight re-weights neighbour selection (paper Eq. 8); nil
	// disables. It is called only for worms a roulette can read: a
	// worm strictly brighter than some other worm (every worm, once
	// some luciferin is NaN), at its start-of-phase position, and
	// again only after it moves. A worm in the dimmest tie group,
	// where never-valid worms usually sit, is nobody's candidate and
	// is not weighed. With Params.Workers > 1 it is called concurrently,
	// over shards of the worms to weigh.
	Weight SelectionWeight
	// Observer, when non-nil, is invoked synchronously at the end of
	// every iteration with that iteration's telemetry (the same entry
	// appended to Result.Trace) and a live view of the swarm. The
	// observer is passive — it cannot perturb the run, so results are
	// bit-identical with or without one — but it executes on the
	// optimizer's goroutine: a slow observer stalls the swarm.
	Observer func(IterStats, SwarmView)
	// InvalidWalk makes worms sitting on *invalid* positions with no
	// brighter neighbour take a uniform random step of
	// InvalidWalk × s instead of staying stationary. Canonical
	// GSO keeps such worms put (the paper's Fig. 1 shows them frozen
	// in the undefined area); a small walk lets a swarm that
	// initialized entirely outside a narrow valid basin still
	// discover it. 0 disables (the canonical behaviour); worms on
	// valid positions are never perturbed.
	InvalidWalk float64
}

// Run executes GSO over the given solution-space bounds.
func Run(p Params, bounds geom.Rect, obj Objective, opts Options) (*Result, error) {
	return RunContext(context.Background(), p, bounds, obj, opts)
}

// RunContext is Run with cancellation: the context is checked once per
// swarm iteration, so a cancelled run returns ctx.Err() within one
// iteration's worth of objective evaluations.
func RunContext(ctx context.Context, p Params, bounds geom.Rect, obj Objective, opts Options) (*Result, error) {
	return run(ctx, p, bounds, obj, opts, nil)
}

// run is RunContext with the swarm's starting positions: uniform over
// bounds when start is nil, else a copy of start, which must hold
// Glowworms positions inside bounds. Only tests pass a start, to place
// worms exactly where an edge case needs them.
func run(ctx context.Context, p Params, bounds geom.Rect, obj Objective, opts Options, start [][]float64) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := bounds.Dims()
	if n == 0 {
		return nil, errors.New("gso: zero-dimensional bounds")
	}
	rng := rand.New(rand.NewPCG(p.Seed, 0x6c62272e07bb0142))

	extent := make([]float64, n)
	var meanExtent float64
	for j := 0; j < n; j++ {
		extent[j] = bounds.Max[j] - bounds.Min[j]
		meanExtent += extent[j]
	}
	meanExtent /= float64(n)
	if meanExtent <= 0 {
		meanExtent = 1
	}
	step := stepSize * meanExtent

	// The sensor range r_s is the domain diagonal.
	var sensor float64
	for j := 0; j < n; j++ {
		sensor += extent[j] * extent[j]
	}
	sensor = math.Sqrt(sensor)
	r0 := p.InitRadius
	if r0 == 0 {
		r0 = InitialRadius(p.Glowworms, n, meanExtent)
	}
	if r0 > sensor {
		r0 = sensor
	}

	L := p.Glowworms
	pos := make([][]float64, L)
	for i := range pos {
		if start != nil {
			pos[i] = append([]float64(nil), start[i]...)
		} else {
			pos[i] = randomPoint(rng, bounds)
		}
	}

	luc := make([]float64, L)
	radius := make([]float64, L)
	fitness := make([]float64, L)
	valid := make([]bool, L)
	for i := range luc {
		luc[i] = initLuciferin
		radius[i] = r0
	}

	res := &Result{}

	// wcache[i] is worm i's selection weight, valid at its current
	// position unless unweighed[i]; toWeigh lists the worms weighed in
	// one phase.
	var wcache []float64
	var unweighed []bool
	var toWeigh []int
	if opts.Weight != nil {
		wcache = make([]float64, L)
		unweighed = make([]bool, L)
		toWeigh = make([]int, 0, L)
	}
	eval := newSwarmEvaluator(obj, p.Workers, L)
	mv := newMover(eval.workers, L, n)
	// next holds the movement phase's targets, n coordinates per worm.
	next := make([]float64, L*n)
	// stale lists, in ascending order, the worms whose position changed
	// since they were last scored: every worm at first, then the worms
	// that moved in the previous movement phase. A worm that stayed put
	// keeps its fitness and validity.
	stale := make([]int, L)
	for i := range stale {
		stale[i] = i
	}

	for t := 0; t < p.MaxIters; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Phase 1: fitness evaluation (optionally parallel) followed
		// by the luciferin update. Invalid positions decay only,
		// emulating the undefined log objective (paper Section V-F).
		eval.run(stale, pos, fitness, valid)
		res.Evaluations += len(stale)
		var sumFit float64
		var nValid int
		for i := 0; i < L; i++ {
			if valid[i] {
				luc[i] = (1-rho)*luc[i] + gamma*fitness[i]
				sumFit += fitness[i]
				nValid++
			} else {
				fitness[i] = math.NaN()
				luc[i] = (1 - rho) * luc[i]
			}
		}

		// Phase 2: movement. Every worm moves from the start-of-phase
		// positions, so selection weights (e.g. KDE box masses) are
		// evaluated against those positions too — the synchronous
		// reading of Eq. 8 — rather than per candidate pair, and only
		// for the worms ranked before the cut, the only ones a roulette
		// can read this phase. A moved worm past the cut stays unweighed
		// until a phase ranks it before the cut; its position cannot
		// change without it being marked anew, so its weight is then
		// taken at the same position.
		mv.prepare(luc, pos)
		if opts.Weight != nil {
			for _, i := range stale {
				unweighed[i] = true
			}
			toWeigh = toWeigh[:0]
			for i, u := range unweighed {
				if u && mv.candidate(i) {
					toWeigh = append(toWeigh, i)
					unweighed[i] = false
				}
			}
			eval.weigh(opts.Weight, toWeigh, pos, wcache)
		}
		// Every worm's neighbours and adapted radius, on the workers.
		mv.scanAll(radius, luc, wcache, sensor)
		// The draws, in worm order on this goroutine, so the answer
		// does not depend on how the scan was sharded. Moves land in
		// next and are copied back once every worm has moved.
		stale = stale[:0]
		for i := 0; i < L; i++ {
			to := next[i*n : (i+1)*n]
			totalW := mv.total[i]
			if totalW <= 0 { // no neighbours
				if opts.InvalidWalk > 0 && !valid[i] {
					// Diffuse constraint-violating stragglers.
					for j := 0; j < n; j++ {
						delta := (rng.Float64()*2 - 1) * step * opts.InvalidWalk
						to[j] = clamp(pos[i][j]+delta, bounds.Min[j], bounds.Max[j])
					}
					stale = append(stale, i)
				}
				continue
			}
			// Roulette selection over (ℓ_j − ℓ_i) · weight.
			sel := mv.roulette(i, rng.Float64()*totalW, luc, wcache)
			d := dist(pos[i], pos[sel])
			if d == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				to[j] = clamp(pos[i][j]+step*(pos[sel][j]-pos[i][j])/d, bounds.Min[j], bounds.Max[j])
			}
			stale = append(stale, i)
		}
		for _, i := range stale {
			copy(pos[i], next[i*n:(i+1)*n])
		}

		meanFit := math.NaN()
		if nValid > 0 {
			meanFit = sumFit / float64(nValid)
		}
		var meanLuc float64
		for _, v := range luc {
			meanLuc += v
		}
		meanLuc /= float64(L)
		it := IterStats{
			Iteration:     t,
			MeanFitness:   meanFit,
			MeanLuciferin: meanLuc,
			ValidFrac:     float64(nValid) / float64(L),
			Moved:         len(stale),
		}
		res.Trace = append(res.Trace, it)
		if opts.Observer != nil {
			opts.Observer(it, SwarmView{Positions: pos, Fitness: fitness, Valid: valid, Luciferin: luc})
		}
		res.Iterations = t + 1
	}

	res.Positions = pos
	res.Fitness = fitness
	res.Valid = valid
	res.Luciferin = luc
	return res, nil
}

// InitialRadius implements the paper's Section V-G heuristic
// r_0 = (1 − (1/2)^(1/L))^(1/d), taken from Friedman et al. Eq. 2.24
// (the expected edge length of a hyper-cube capturing 1/(2L) of a unit
// volume), scaled by the mean domain extent.
func InitialRadius(glowworms, dims int, meanExtent float64) float64 {
	if glowworms < 1 || dims < 1 {
		return meanExtent
	}
	frac := 1 - math.Pow(0.5, 1/float64(glowworms))
	return math.Pow(frac, 1/float64(dims)) * meanExtent
}

// swarmEvaluator runs an iteration's per-worm work on the workers:
// the objective over the worms being scored, gathered into one
// contiguous shard per worker, and the selection weights.
type swarmEvaluator struct {
	obj     Objective
	workers int
	pos     [][]float64 // gathered positions, one per evaluated worm
	fitness []float64   // gathered results, scattered back by index
	valid   []bool
}

// newSwarmEvaluator sizes the worker pool for a swarm of the given
// size: at most the requested workers, GOMAXPROCS, and one worker per
// two positions, and at least one.
func newSwarmEvaluator(obj Objective, workers, swarm int) *swarmEvaluator {
	return &swarmEvaluator{
		obj:     obj,
		workers: max(1, min(workers, runtime.GOMAXPROCS(0), swarm/2)),
		pos:     make([][]float64, swarm),
		fitness: make([]float64, swarm),
		valid:   make([]bool, swarm),
	}
}

// run fills fitness[i] and valid[i] for each worm i in idx. The listed
// positions are gathered into one contiguous shard per worker and the
// results scattered back by index.
func (e *swarmEvaluator) run(idx []int, pos [][]float64, fitness []float64, valid []bool) {
	sharded(len(idx), e.workers, func(lo, hi int) {
		for k, i := range idx[lo:hi] {
			e.pos[lo+k] = pos[i]
		}
		e.obj.Evaluate(e.pos[lo:hi], e.fitness[lo:hi], e.valid[lo:hi])
		for k, i := range idx[lo:hi] {
			fitness[i], valid[i] = e.fitness[lo+k], e.valid[lo+k]
		}
	})
}

// weigh fills out[i] with the clamped selection weight of pos[i] for
// each worm i in idx. Each weight depends only on its own position, so
// the sharded result is the sequential one.
func (e *swarmEvaluator) weigh(weight SelectionWeight, idx []int, pos [][]float64, out []float64) {
	sharded(len(idx), e.workers, func(lo, hi int) {
		for _, i := range idx[lo:hi] {
			out[i] = math.Max(0, weight(pos[i]))
		}
	})
}

// sharded splits [0, n) into one contiguous shard per worker and runs
// fn(lo, hi) for each, concurrently when there is more than one
// worker. Shards are disjoint and each worm is listed once, so writes
// indexed by worm never race and results match the sequential pass
// exactly.
func sharded(n, workers int, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

func randomPoint(rng *rand.Rand, bounds geom.Rect) []float64 {
	p := make([]float64, bounds.Dims())
	for j := range p {
		p[j] = bounds.Min[j] + rng.Float64()*(bounds.Max[j]-bounds.Min[j])
	}
	return p
}

func dist(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += d * d
	}
	return math.Sqrt(s)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
