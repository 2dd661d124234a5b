// Package naive implements the paper's baseline solution (Section
// II-A): discretize the region solution space into n center points and
// m side lengths per dimension and exhaustively evaluate all (n·m)^d
// candidate regions against the objective. Complexity is
// O((n·m)^d · N) when the objective is backed by the true f — the
// exponential blow-up Table I demonstrates. A wall-clock budget makes
// the blow-up observable without hanging the harness: when the budget
// expires the examined-to-total ratio is reported, matching the
// "- (22%)" entries of Table I.
package naive

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"surf/internal/geom"
	"surf/internal/gso"
)

// The discretization is the paper's n = m = 6: centersPerDim center
// positions and lengthsPerDim half-side lengths per data dimension.
// The best maxKeep valid regions are retained.
const (
	centersPerDim = 6
	lengthsPerDim = 6
	maxKeep       = 1000
)

// ScoredRegion is one valid candidate with its objective value.
type ScoredRegion struct {
	// Vector is the [x, l] region encoding.
	Vector []float64
	// Fitness is the objective value.
	Fitness float64
}

// Result reports the enumeration outcome.
type Result struct {
	// Regions holds the retained valid regions, best fitness first.
	Regions []ScoredRegion
	// Examined is the number of candidates actually evaluated.
	Examined int
	// Total is the full size of the discretized space.
	Total int
	// TimedOut reports whether the budget expired before completion.
	TimedOut bool
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// ExaminedRatio is Examined/Total — the percentage Table I reports for
// timed-out configurations.
func (r *Result) ExaminedRatio() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Examined) / float64(r.Total)
}

// Run enumerates the discretized region space defined by space (a
// 2d-dimensional geom.SolutionSpace: centers in the first d dims,
// half-sides in the last d) and scores each candidate with the
// objective, keeping valid ones. The enumeration stops when budget
// expires (the paper used 3000 s); 0 means no budget.
func Run(budget time.Duration, space geom.Rect, obj gso.ObjectiveFunc) (*Result, error) {
	if budget < 0 {
		return nil, errors.New("naive: budget must be >= 0")
	}
	if space.Dims() == 0 || space.Dims()%2 != 0 {
		return nil, fmt.Errorf("naive: solution space must have even dimension, got %d", space.Dims())
	}
	d := space.Dims() / 2

	centers := make([][]float64, d)
	lengths := make([][]float64, d)
	for j := 0; j < d; j++ {
		centers[j] = linspace(space.Min[j], space.Max[j], centersPerDim)
		lengths[j] = linspace(space.Min[d+j], space.Max[d+j], lengthsPerDim)
	}

	total := 1
	for j := 0; j < d; j++ {
		total *= len(centers[j]) * len(lengths[j])
	}

	res := &Result{Total: total}
	start := time.Now()
	deadline := time.Time{}
	if budget > 0 {
		deadline = start.Add(budget)
	}

	// Mixed-radix enumeration over 2d digits: first d index centers,
	// last d index lengths.
	radix := make([]int, 2*d)
	for j := 0; j < d; j++ {
		radix[j] = len(centers[j])
		radix[d+j] = len(lengths[j])
	}
	digits := make([]int, 2*d)
	vec := make([]float64, 2*d)

	const deadlineCheckEvery = 256
	for {
		// Examined > 0 guarantees at least one candidate is evaluated
		// even when the budget is smaller than the setup cost, keeping
		// ExaminedRatio meaningful on a timed-out run.
		if !deadline.IsZero() && res.Examined > 0 && res.Examined%deadlineCheckEvery == 0 && time.Now().After(deadline) {
			res.TimedOut = true
			break
		}
		for j := 0; j < d; j++ {
			vec[j] = centers[j][digits[j]]
			vec[d+j] = lengths[j][digits[d+j]]
		}
		if v, ok := obj(vec); ok && !math.IsNaN(v) {
			res.Regions = append(res.Regions, ScoredRegion{
				Vector:  append([]float64(nil), vec...),
				Fitness: v,
			})
			if len(res.Regions) > 2*maxKeep {
				trimToBest(res, maxKeep)
			}
		}
		res.Examined++

		// Advance the mixed-radix counter.
		k := 2*d - 1
		for ; k >= 0; k-- {
			digits[k]++
			if digits[k] < radix[k] {
				break
			}
			digits[k] = 0
		}
		if k < 0 {
			break
		}
	}
	trimToBest(res, maxKeep)
	res.Elapsed = time.Since(start)
	return res, nil
}

func trimToBest(res *Result, keep int) {
	sort.Slice(res.Regions, func(i, j int) bool {
		return res.Regions[i].Fitness > res.Regions[j].Fitness
	})
	if len(res.Regions) > keep {
		res.Regions = res.Regions[:keep]
	}
}

// linspace returns count evenly spaced values across [lo, hi]. A
// single-count request returns the midpoint.
func linspace(lo, hi float64, count int) []float64 {
	if count == 1 {
		return []float64{(lo + hi) / 2}
	}
	out := make([]float64, count)
	step := (hi - lo) / float64(count-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}
