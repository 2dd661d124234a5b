// Package prim implements the Patient Rule Induction Method of
// Friedman & Fisher ("Bump hunting in high-dimensional data",
// Statistics and Computing 1999) — the strongest baseline in the
// paper's accuracy study (Section V-B).
//
// PRIM greedily peels an α-quantile slice off one face of the current
// box at each step, choosing the peel that maximizes the mean response
// of the surviving points, until the box support would drop below the
// user threshold β₀ (paper Eq. 11). A bottom-up pasting pass then
// re-expands faces while the mean keeps improving. Covering removes
// the captured points and repeats to find further boxes.
//
// As the paper stresses, PRIM maximizes E[y | a ∈ B] subject to a
// support constraint; it has no notion of point density relative to
// box volume, which is why it cannot find the "density" ground-truth
// regions (Section V-B). This implementation is deliberately faithful
// to that objective.
package prim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"surf/internal/geom"
)

// PRIM's peeling and pasting constants, the paper's Section V-B
// configuration. They are typed so that an expression over them alone,
// such as 1 − peelAlpha, rounds as float64 arithmetic does.
const (
	// peelAlpha is the fraction of in-box points a single peel removes
	// (canonical 0.05).
	peelAlpha float64 = 0.05
	// pasteAlpha is the expansion fraction per pasting step.
	pasteAlpha float64 = 0.01
	// minSupport is β₀: the minimum fraction of the original dataset a
	// box must retain (the paper uses 0.01).
	minSupport float64 = 0.01
	// selectTolerance picks the final box from the peeling trajectory:
	// the largest-support step whose mean is within this relative
	// tolerance of the trajectory's best mean. This mirrors the
	// trajectory-based box selection of the reference implementations.
	selectTolerance float64 = 0.05
)

// Params configure a PRIM run.
type Params struct {
	// Threshold stops covering: boxes whose mean response falls below
	// it are discarded and the search ends (the paper sets 2 for the
	// aggregate statistic). Use math.Inf(-1) to disable.
	Threshold float64
	// MaxBoxes caps the number of boxes returned by covering.
	MaxBoxes int
}

// DefaultParams mirror the paper's Section V-B configuration.
func DefaultParams() Params {
	return Params{
		Threshold: math.Inf(-1),
		MaxBoxes:  10,
	}
}

// Validate reports the first invalid parameter.
func (p Params) Validate() error {
	if p.MaxBoxes < 1 {
		return errors.New("prim: MaxBoxes must be >= 1")
	}
	return nil
}

// Box is one discovered region.
type Box struct {
	// Rect is the box bounds (clipped to the data's extent).
	Rect geom.Rect
	// Mean is the mean response of the points captured by the box.
	Mean float64
	// Support is the number of captured points.
	Support int
}

// Fit runs peel/paste/cover over points X (rows × dims) with response
// y and returns the discovered boxes in discovery order.
func Fit(p Params, X [][]float64, y []float64) ([]Box, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(X) == 0 {
		return nil, errors.New("prim: empty dataset")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("prim: %d rows but %d responses", len(X), len(y))
	}
	dims := len(X[0])
	if dims == 0 {
		return nil, errors.New("prim: zero-dimensional points")
	}
	for i, row := range X {
		if len(row) != dims {
			return nil, fmt.Errorf("prim: row %d has %d dims, want %d", i, len(row), dims)
		}
	}

	total := len(X)
	minCount := int(math.Ceil(minSupport * float64(total)))
	if minCount < 1 {
		minCount = 1
	}

	active := make([]int, total)
	for i := range active {
		active[i] = i
	}

	var boxes []Box
	for len(boxes) < p.MaxBoxes && len(active) >= minCount {
		box, captured := peelPaste(X, y, active, dims, minCount)
		if len(captured) == 0 {
			break
		}
		if box.Mean < p.Threshold {
			break
		}
		boxes = append(boxes, box)
		// Covering: remove captured points and hunt again.
		capSet := make(map[int]bool, len(captured))
		for _, i := range captured {
			capSet[i] = true
		}
		var next []int
		for _, i := range active {
			if !capSet[i] {
				next = append(next, i)
			}
		}
		active = next
	}
	return boxes, nil
}

// trajStep is one box of the peeling trajectory.
type trajStep struct {
	box   geom.Rect
	inBox []int
	mean  float64
}

// peelPaste runs one top-down peel followed by trajectory selection
// and bottom-up pasting over the active points, returning the
// resulting box plus the indices it captures.
func peelPaste(X [][]float64, y []float64, active []int, dims, minCount int) (Box, []int) {
	// Start from the bounding box of the active points.
	box := boundingBox(X, active, dims)
	inBox := append([]int(nil), active...)

	// --- Peeling ---
	// Record the full trajectory B_0 ⊃ B_1 ⊃ … down to the support
	// floor; the final box is selected from it afterwards.
	traj := []trajStep{{box: box.Clone(), inBox: inBox, mean: meanOf(y, inBox)}}
	for len(inBox) > minCount {
		bestMean := math.Inf(-1)
		bestDim, bestSide := -1, 0
		var bestBoundary float64
		var bestRemaining []int
		for j := 0; j < dims; j++ {
			vals := colVals(X, inBox, j)
			// Lower-face peel: raise Min to the α quantile.
			loCut := quantile(vals, peelAlpha)
			if rem, m := trimmed(X, y, inBox, j, loCut, box.Max[j]); len(rem) >= minCount && len(rem) < len(inBox) && m > bestMean {
				bestMean, bestDim, bestSide, bestBoundary, bestRemaining = m, j, 0, loCut, rem
			}
			// Upper-face peel: lower Max to the 1−α quantile.
			hiCut := quantile(vals, 1-peelAlpha)
			if rem, m := trimmed(X, y, inBox, j, box.Min[j], hiCut); len(rem) >= minCount && len(rem) < len(inBox) && m > bestMean {
				bestMean, bestDim, bestSide, bestBoundary, bestRemaining = m, j, 1, hiCut, rem
			}
		}
		if bestDim < 0 {
			break
		}
		if bestSide == 0 {
			box.Min[bestDim] = bestBoundary
		} else {
			box.Max[bestDim] = bestBoundary
		}
		inBox = bestRemaining
		traj = append(traj, trajStep{box: box.Clone(), inBox: inBox, mean: bestMean})
	}

	// --- Trajectory selection ---
	// Choose the largest-support step whose mean is within
	// selectTolerance of the best mean seen along the trajectory.
	bestMean := math.Inf(-1)
	for _, s := range traj {
		if s.mean > bestMean {
			bestMean = s.mean
		}
	}
	cutoff := bestMean - selectTolerance*math.Abs(bestMean)
	for _, s := range traj {
		if s.mean >= cutoff {
			box = s.box
			inBox = s.inBox
			break
		}
	}

	// --- Pasting ---
	// Try to re-expand each face by pasteAlpha of the current support;
	// accept an expansion if the captured mean improves.
	for {
		curMean := meanOf(y, inBox)
		improved := false
		for j := 0; j < dims; j++ {
			for side := 0; side < 2; side++ {
				cand := box.Clone()
				grown := expandFace(cand, X, y, active, j, side, len(inBox))
				if !grown {
					continue
				}
				capIdx := capture(X, active, cand)
				if len(capIdx) <= len(inBox) {
					continue
				}
				if m := meanOf(y, capIdx); m > curMean {
					box = cand
					inBox = capIdx
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}

	return Box{Rect: box, Mean: meanOf(y, inBox), Support: len(inBox)}, inBox
}

// expandFace moves one face of cand outward until it captures about
// pasteAlpha·support additional active points on that side. Returns
// false when no growth is possible.
func expandFace(cand geom.Rect, X [][]float64, y []float64, active []int, dim, side, support int) bool {
	grow := int(math.Max(1, math.Floor(pasteAlpha*float64(support))))
	// Candidate boundary values: active points just outside the face,
	// inside the box on all other dimensions.
	var outside []float64
	for _, i := range active {
		v := X[i][dim]
		if side == 0 {
			if v >= cand.Min[dim] {
				continue
			}
		} else {
			if v <= cand.Max[dim] {
				continue
			}
		}
		ok := true
		for j := range cand.Min {
			if j == dim {
				continue
			}
			if X[i][j] < cand.Min[j] || X[i][j] > cand.Max[j] {
				ok = false
				break
			}
		}
		if ok {
			outside = append(outside, v)
		}
	}
	if len(outside) == 0 {
		return false
	}
	sort.Float64s(outside)
	if side == 0 {
		// Take the `grow` closest points below the face.
		idx := len(outside) - grow
		if idx < 0 {
			idx = 0
		}
		cand.Min[dim] = outside[idx]
	} else {
		idx := grow - 1
		if idx >= len(outside) {
			idx = len(outside) - 1
		}
		cand.Max[dim] = outside[idx]
	}
	return true
}

// trimmed returns the subset of idx surviving a [lo,hi] bound on
// dimension j and the mean response of the survivors.
func trimmed(X [][]float64, y []float64, idx []int, j int, lo, hi float64) ([]int, float64) {
	var out []int
	var sum float64
	for _, i := range idx {
		v := X[i][j]
		if v < lo || v > hi {
			continue
		}
		out = append(out, i)
		sum += y[i]
	}
	if len(out) == 0 {
		return nil, math.Inf(-1)
	}
	return out, sum / float64(len(out))
}

// capture returns the indices of active points inside the box.
func capture(X [][]float64, active []int, box geom.Rect) []int {
	var out []int
	for _, i := range active {
		if box.Contains(X[i]) {
			out = append(out, i)
		}
	}
	return out
}

func boundingBox(X [][]float64, idx []int, dims int) geom.Rect {
	min := make([]float64, dims)
	max := make([]float64, dims)
	for j := 0; j < dims; j++ {
		min[j], max[j] = math.Inf(1), math.Inf(-1)
	}
	for _, i := range idx {
		for j := 0; j < dims; j++ {
			if X[i][j] < min[j] {
				min[j] = X[i][j]
			}
			if X[i][j] > max[j] {
				max[j] = X[i][j]
			}
		}
	}
	return geom.Rect{Min: min, Max: max}
}

func colVals(X [][]float64, idx []int, j int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = X[i][j]
	}
	return out
}

func meanOf(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return math.NaN()
	}
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// quantile returns the q-th quantile of vals (linear interpolation).
// vals is not modified.
func quantile(vals []float64, q float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
