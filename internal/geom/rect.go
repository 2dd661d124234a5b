// Package geom provides hyper-rectangle geometry for statistic regions.
//
// A statistic region (paper Definition 2) is the hyper-rectangle with
// center x ∈ R^d and half-side lengths l ∈ R^d_+, covering the axis
// aligned box [x−l, x+l]. This package implements the geometric
// primitives SuRF needs: volume, intersection, union, the Intersection
// over Union metric (paper Eq. 10), containment, clipping to a domain,
// and the encoding of a region as a flat (2d)-dimensional vector [x, l]
// used as the optimizer's solution space.
package geom

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Rect is an axis-aligned hyper-rectangle stored as per-dimension
// [Min, Max] bounds. The zero value is a 0-dimensional rectangle.
type Rect struct {
	Min []float64
	Max []float64
}

// ErrDimensionMismatch reports an operation over rectangles or vectors
// of different dimensionality.
var ErrDimensionMismatch = errors.New("geom: dimension mismatch")

// NewRect returns the rectangle with the given bounds. It panics if the
// slices differ in length or if any Min exceeds the matching Max; use
// Canonical to repair unordered bounds instead.
func NewRect(min, max []float64) Rect {
	if len(min) != len(max) {
		panic(fmt.Sprintf("geom: NewRect bounds of dimension %d and %d", len(min), len(max)))
	}
	for i := range min {
		if min[i] > max[i] {
			panic(fmt.Sprintf("geom: NewRect dimension %d has min %g > max %g", i, min[i], max[i]))
		}
	}
	return Rect{Min: append([]float64(nil), min...), Max: append([]float64(nil), max...)}
}

// FromCenter returns the rectangle centered at x with half-side lengths
// l, i.e. the box [x−l, x+l] of paper Definition 2. Negative half-sides
// are treated as their absolute value.
func FromCenter(x, l []float64) Rect {
	if len(x) != len(l) {
		panic(fmt.Sprintf("geom: FromCenter center of dimension %d, sides of dimension %d", len(x), len(l)))
	}
	r := Rect{Min: make([]float64, len(x)), Max: make([]float64, len(x))}
	for i := range x {
		h := math.Abs(l[i])
		r.Min[i] = x[i] - h
		r.Max[i] = x[i] + h
	}
	return r
}

// Unit returns the unit hyper-cube [0,1]^d.
func Unit(d int) Rect {
	r := Rect{Min: make([]float64, d), Max: make([]float64, d)}
	for i := 0; i < d; i++ {
		r.Max[i] = 1
	}
	return r
}

// Canonical returns a copy of r with each dimension's bounds ordered so
// Min ≤ Max.
func (r Rect) Canonical() Rect {
	out := r.Clone()
	for i := range out.Min {
		if out.Min[i] > out.Max[i] {
			out.Min[i], out.Max[i] = out.Max[i], out.Min[i]
		}
	}
	return out
}

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{
		Min: append([]float64(nil), r.Min...),
		Max: append([]float64(nil), r.Max...),
	}
}

// Dims returns the dimensionality of r.
func (r Rect) Dims() int { return len(r.Min) }

// Center returns the center point x of r.
func (r Rect) Center() []float64 {
	c := make([]float64, len(r.Min))
	for i := range c {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return c
}

// HalfSides returns the half-side lengths l of r.
func (r Rect) HalfSides() []float64 {
	l := make([]float64, len(r.Min))
	for i := range l {
		l[i] = (r.Max[i] - r.Min[i]) / 2
	}
	return l
}

// Side returns the full side length of dimension i.
func (r Rect) Side(i int) float64 { return r.Max[i] - r.Min[i] }

// Volume returns the product of side lengths. A 0-dimensional rectangle
// has volume 0.
func (r Rect) Volume() float64 {
	if len(r.Min) == 0 {
		return 0
	}
	v := 1.0
	for i := range r.Min {
		s := r.Max[i] - r.Min[i]
		if s < 0 {
			return 0
		}
		v *= s
	}
	return v
}

// Contains reports whether point p lies inside r (closed bounds, the
// paper's x−l ≤ a ≤ x+l convention).
func (r Rect) Contains(p []float64) bool {
	if len(p) != len(r.Min) {
		return false
	}
	for i := range p {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Dims() != r.Dims() {
		return false
	}
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s overlap (touching counts).
func (r Rect) Intersects(s Rect) bool {
	if s.Dims() != r.Dims() {
		return false
	}
	for i := range r.Min {
		if r.Min[i] > s.Max[i] || s.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of r and s and whether it is non-empty.
// When the rectangles do not overlap the returned rectangle is the zero
// value.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	if s.Dims() != r.Dims() {
		return Rect{}, false
	}
	out := Rect{Min: make([]float64, r.Dims()), Max: make([]float64, r.Dims())}
	for i := range r.Min {
		lo := math.Max(r.Min[i], s.Min[i])
		hi := math.Min(r.Max[i], s.Max[i])
		if lo > hi {
			return Rect{}, false
		}
		out.Min[i], out.Max[i] = lo, hi
	}
	return out, true
}

// IntersectionVolume returns the volume of the overlap of r and s
// (0 when disjoint).
func (r Rect) IntersectionVolume(s Rect) float64 {
	inter, ok := r.Intersect(s)
	if !ok {
		return 0
	}
	return inter.Volume()
}

// UnionVolume returns |r ∪ s| computed by inclusion–exclusion.
func (r Rect) UnionVolume(s Rect) float64 {
	return r.Volume() + s.Volume() - r.IntersectionVolume(s)
}

// IoU returns the Intersection-over-Union (Jaccard index) of r and s,
// the region accuracy metric of paper Eq. 10. Two degenerate (zero
// volume) rectangles have IoU 0 unless they are identical, in which
// case IoU is 1 by convention.
func (r Rect) IoU(s Rect) float64 {
	if r.Dims() != s.Dims() {
		return 0
	}
	if r.Equal(s) {
		return 1
	}
	union := r.UnionVolume(s)
	if union <= 0 {
		return 0
	}
	return r.IntersectionVolume(s) / union
}

// Equal reports exact equality of bounds.
func (r Rect) Equal(s Rect) bool {
	if r.Dims() != s.Dims() {
		return false
	}
	for i := range r.Min {
		if r.Min[i] != s.Min[i] || r.Max[i] != s.Max[i] {
			return false
		}
	}
	return true
}

// Clip returns r clipped to the domain rectangle. Dimensions that end
// up inverted collapse to a zero-width interval at the domain boundary.
func (r Rect) Clip(domain Rect) Rect {
	if domain.Dims() != r.Dims() {
		panic(ErrDimensionMismatch)
	}
	out := r.Clone()
	for i := range out.Min {
		out.Min[i] = clamp(out.Min[i], domain.Min[i], domain.Max[i])
		out.Max[i] = clamp(out.Max[i], domain.Min[i], domain.Max[i])
		if out.Min[i] > out.Max[i] {
			out.Min[i] = out.Max[i]
		}
	}
	return out
}

// Expand returns r grown by delta on every face (shrunk when delta is
// negative). Dimensions that would invert collapse to their center.
func (r Rect) Expand(delta float64) Rect {
	out := r.Clone()
	for i := range out.Min {
		out.Min[i] -= delta
		out.Max[i] += delta
		if out.Min[i] > out.Max[i] {
			c := (out.Min[i] + out.Max[i]) / 2
			out.Min[i], out.Max[i] = c, c
		}
	}
	return out
}

// String renders r as [min,max]×[min,max]…, e.g. "[0.1,0.4]×[0.2,0.9]".
func (r Rect) String() string {
	var b strings.Builder
	for i := range r.Min {
		if i > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "[%.4g,%.4g]", r.Min[i], r.Max[i])
	}
	return b.String()
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
