package gso

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"

	"surf/internal/geom"
)

// runReference is RunContext as it was before the swarm kept the
// evaluations of worms that stayed put: every iteration it scores and
// weighs every worm, one Fitness and one Weight call at a time, and
// its movement phase runs the original all-pairs neighbour loop, where
// every worm tests every other worm, in index order, with dist. Every
// worm moves synchronously: its neighbours, its roulette and its step
// read a snapshot of the positions taken at the start of the phase,
// never a move made earlier in the same phase. It is the reference
// RunContext is held to bit for bit in everything but Evaluations,
// which here is always L per iteration; keep it in step with
// RunContext everywhere else. start is run's start.
func runReference(ctx context.Context, p Params, bounds geom.Rect, obj Objective, opts Options, start [][]float64) (*Result, error) {
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

	// The sensor range is the domain diagonal.
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

	var neighbors []int
	var weights []float64
	var wcache []float64
	if opts.Weight != nil {
		wcache = make([]float64, L)
	}

	for t := 0; t < p.MaxIters; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Phase 1: fitness evaluation followed by the luciferin
		// update. Invalid positions decay only, emulating the
		// undefined log objective (paper Section V-F).
		obj.Evaluate(pos, fitness, valid)
		res.Evaluations += L
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

		// Phase 2: movement, from a snapshot of the start-of-phase
		// positions. Selection weights (e.g. KDE box masses) are
		// evaluated once per particle per iteration against the same
		// positions — the synchronous reading of Eq. 8 — rather than
		// per candidate pair.
		from := make([][]float64, L)
		for i := range pos {
			from[i] = append([]float64(nil), pos[i]...)
		}
		if opts.Weight != nil {
			for i := range pos {
				wcache[i] = math.Max(0, opts.Weight(pos[i]))
			}
		}
		moved := 0
		for i := 0; i < L; i++ {
			var totalW float64
			neighbors, weights, totalW = referenceNeighbors(i, from, luc, wcache, radius[i], neighbors[:0], weights[:0])
			// Adaptive radius uses the pre-move neighbourhood size.
			radius[i] = math.Min(sensor, math.Max(0, radius[i]+beta*(desiredNeighbors-float64(len(neighbors)))))
			if len(neighbors) == 0 || totalW <= 0 {
				if opts.InvalidWalk > 0 && !valid[i] {
					// Diffuse constraint-violating stragglers.
					for j := 0; j < n; j++ {
						delta := (rng.Float64()*2 - 1) * step * opts.InvalidWalk
						pos[i][j] = clamp(from[i][j]+delta, bounds.Min[j], bounds.Max[j])
					}
					moved++
				}
				continue
			}
			// Roulette selection over (ℓ_j − ℓ_i) · weight.
			pick := rng.Float64() * totalW
			sel := neighbors[len(neighbors)-1]
			var cum float64
			for k, w := range weights {
				cum += w
				if pick <= cum {
					sel = neighbors[k]
					break
				}
			}
			d := dist(from[i], from[sel])
			if d == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				pos[i][j] = from[i][j] + step*(from[sel][j]-from[i][j])/d
				pos[i][j] = clamp(pos[i][j], bounds.Min[j], bounds.Max[j])
			}
			moved++
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
			Moved:         moved,
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

// referenceNeighbors is the original all-pairs neighbour loop: worm
// i's neighbours in ascending index, with roulette weights and their
// sum, as rankedScan.within and neighbors must find them.
func referenceNeighbors(i int, pos [][]float64, luc, weight []float64, r float64, nb []int, w []float64) ([]int, []float64, float64) {
	var total float64
	for j := range pos {
		if j == i || luc[j] <= luc[i] {
			continue
		}
		if dist(pos[i], pos[j]) > r {
			continue
		}
		wj := luc[j] - luc[i]
		if weight != nil {
			wj *= weight[j]
		}
		if wj <= 0 {
			continue
		}
		nb = append(nb, j)
		w = append(w, wj)
		total += wj
	}
	return nb, w, total
}
