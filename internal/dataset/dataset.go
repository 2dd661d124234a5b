// Package dataset is the data substrate of the reproduction: the
// "back-end data/analytics system" the paper identifies as the
// bottleneck (Section I-B). It stores multivariate data vectors in a
// columnar in-memory layout and evaluates the true statistic function
// f(x, l) over hyper-rectangular regions, via either a full linear scan
// or a uniform grid index. SuRF itself never touches this package at
// query time — it exists so the baselines (Naive, f+GlowWorm, PRIM)
// have a realistic f to call and so surrogate training sets can be
// produced.
package dataset

import (
	"errors"
	"fmt"
	"math"

	"surf/internal/geom"
	"surf/internal/stats"
)

// Dataset is an immutable columnar collection of N data vectors
// (paper Definition 1). Columns are named; a subset of columns act as
// the "filter" dimensions that regions constrain, and any column can be
// the target of an aggregate statistic.
type Dataset struct {
	names []string
	cols  [][]float64
	n     int
}

// ErrNoColumns reports construction of a dataset with no columns.
var ErrNoColumns = errors.New("dataset: no columns")

// New builds a dataset from named columns. All columns must have equal
// length. The column data is NOT copied; callers hand over ownership.
func New(names []string, cols [][]float64) (*Dataset, error) {
	if len(cols) == 0 {
		return nil, ErrNoColumns
	}
	if len(names) != len(cols) {
		return nil, fmt.Errorf("dataset: %d names for %d columns", len(names), len(cols))
	}
	n := len(cols[0])
	for i, c := range cols {
		if len(c) != n {
			return nil, fmt.Errorf("dataset: column %q has %d rows, want %d", names[i], len(c), n)
		}
	}
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		// An empty name is almost certainly a construction bug, and a
		// lone empty name serializes to a CSV blank line that cannot
		// be re-read (found by FuzzReadCSVDataset) — reject it here so
		// no dataset can exist that WriteCSV renders unreadable.
		if name == "" {
			return nil, fmt.Errorf("dataset: empty name for column %d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("dataset: duplicate column %q", name)
		}
		seen[name] = true
	}
	return &Dataset{names: append([]string(nil), names...), cols: cols, n: n}, nil
}

// MustNew is New but panics on error; for tests and generators whose
// shapes are statically correct.
func MustNew(names []string, cols [][]float64) *Dataset {
	d, err := New(names, cols)
	if err != nil {
		panic(err)
	}
	return d
}

// Len returns the number of data vectors N.
func (d *Dataset) Len() int { return d.n }

// NumCols returns the number of columns.
func (d *Dataset) NumCols() int { return len(d.cols) }

// Names returns the column names (a copy).
func (d *Dataset) Names() []string { return append([]string(nil), d.names...) }

// Col returns the column with the given index. The returned slice
// aliases the dataset; callers must not modify it.
func (d *Dataset) Col(i int) []float64 { return d.cols[i] }

// ColByName returns the index of the named column, or −1.
func (d *Dataset) ColByName(name string) int {
	for i, n := range d.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Row materializes row i across all columns (allocates).
func (d *Dataset) Row(i int) []float64 {
	out := make([]float64, len(d.cols))
	for c := range d.cols {
		out[c] = d.cols[c][i]
	}
	return out
}

// Domain returns the bounding hyper-rectangle of the given columns.
// Empty datasets yield a degenerate rectangle at the origin.
func (d *Dataset) Domain(colIdx []int) geom.Rect {
	k := len(colIdx)
	min := make([]float64, k)
	max := make([]float64, k)
	for j, ci := range colIdx {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range d.cols[ci] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if d.n == 0 {
			lo, hi = 0, 0
		}
		min[j], max[j] = lo, hi
	}
	return geom.Rect{Min: min, Max: max}
}

// Slice returns a dataset view of rows [lo, hi). The view shares the
// receiver's column storage — no rows are copied — so a large dataset
// can be split into row-range shards at negligible memory cost. Both
// dataset and view are immutable, making the aliasing safe.
func (d *Dataset) Slice(lo, hi int) (*Dataset, error) {
	if lo < 0 || hi < lo || hi > d.n {
		return nil, fmt.Errorf("dataset: slice [%d, %d) of %d rows", lo, hi, d.n)
	}
	cols := make([][]float64, len(d.cols))
	for c := range cols {
		cols[c] = d.cols[c][lo:hi:hi]
	}
	return New(append([]string(nil), d.names...), cols)
}

// Spec identifies what a region query computes: which columns the
// hyper-rectangle constrains and which statistic over which target
// column it extracts. Per Definition 2, for an aggregate over dimension
// i the target column is not part of the hyper-rectangle.
type Spec struct {
	// FilterCols are the indices of the columns bounded by the region,
	// in the order matching the region's dimensions.
	FilterCols []int
	// Stat is the statistic to extract.
	Stat stats.Kind
	// TargetCol is the column the statistic aggregates. Ignored for
	// Count.
	TargetCol int
}

// Validate checks the spec against the dataset shape.
func (s Spec) Validate(d *Dataset) error {
	if len(s.FilterCols) == 0 {
		return errors.New("dataset: spec has no filter columns")
	}
	for _, c := range s.FilterCols {
		if c < 0 || c >= d.NumCols() {
			return fmt.Errorf("dataset: filter column %d out of range [0,%d)", c, d.NumCols())
		}
	}
	if s.Stat.NeedsTarget() {
		if s.TargetCol < 0 || s.TargetCol >= d.NumCols() {
			return fmt.Errorf("dataset: target column %d out of range [0,%d)", s.TargetCol, d.NumCols())
		}
		for _, c := range s.FilterCols {
			if c == s.TargetCol {
				return fmt.Errorf("dataset: target column %d is also a filter column (Definition 2 excludes the aggregated dimension from the hyper-rectangle)", c)
			}
		}
	}
	return nil
}

// Evaluator computes the true statistic function f(x, l) for a fixed
// dataset and spec. Implementations: LinearScan (always correct,
// O(N·d) per query) and GridIndex (pre-bucketed, fast for low d).
type Evaluator interface {
	// Evaluate computes y = f over the region. The returned count is
	// |D|, the number of data vectors inside the region, regardless of
	// the statistic. For statistics undefined on empty regions y is
	// NaN and count is 0.
	Evaluate(region geom.Rect) (y float64, count int)
	// Spec returns the spec this evaluator computes.
	Spec() Spec
	// Dims returns the region dimensionality d = len(FilterCols).
	Dims() int
}

// LinearScan evaluates f by a full pass over the dataset. This is the
// cost the paper attributes to the back-end system: O(N) per region
// evaluation, assuming f is computable in a single pass (Section II-A).
type LinearScan struct {
	d    *Dataset
	spec Spec
}

// NewLinearScan returns a scan-based evaluator.
func NewLinearScan(d *Dataset, spec Spec) (*LinearScan, error) {
	if err := spec.Validate(d); err != nil {
		return nil, err
	}
	return &LinearScan{d: d, spec: spec}, nil
}

// Spec returns the evaluator's spec.
func (s *LinearScan) Spec() Spec { return s.spec }

// Dims returns the region dimensionality.
func (s *LinearScan) Dims() int { return len(s.spec.FilterCols) }

// Evaluate scans all rows, feeding those inside the region to the
// statistic accumulator (or, for custom statistics, collecting the
// matching rows and applying the registered row function).
func (s *LinearScan) Evaluate(region geom.Rect) (float64, int) {
	if region.Dims() != s.Dims() {
		panic(fmt.Sprintf("dataset: region of dimension %d for spec of dimension %d", region.Dims(), s.Dims()))
	}
	if fn, ok := stats.CustomFunc(s.spec.Stat); ok {
		var idx []int
		for i := 0; i < s.d.n; i++ {
			if s.rowInside(i, region) {
				idx = append(idx, i)
			}
		}
		return fn(s.d.materializeRows(idx)), len(idx)
	}
	acc := s.spec.Stat.NewAccumulator()
	var target []float64
	if s.spec.Stat.NeedsTarget() {
		target = s.d.cols[s.spec.TargetCol]
	}
	filters := make([][]float64, len(s.spec.FilterCols))
	for j, c := range s.spec.FilterCols {
		filters[j] = s.d.cols[c]
	}
rows:
	for i := 0; i < s.d.n; i++ {
		for j := range filters {
			v := filters[j][i]
			if v < region.Min[j] || v > region.Max[j] {
				continue rows
			}
		}
		if target != nil {
			acc.Add(target[i])
		} else {
			acc.Add(0)
		}
	}
	if acc.Count() == 0 && s.spec.Stat != stats.Count && s.spec.Stat != stats.Sum {
		return math.NaN(), 0
	}
	return acc.Value(), acc.Count()
}

// rowInside reports whether row i falls inside the region on the
// spec's filter columns.
func (s *LinearScan) rowInside(i int, region geom.Rect) bool {
	for j, c := range s.spec.FilterCols {
		v := s.d.cols[c][i]
		if v < region.Min[j] || v > region.Max[j] {
			return false
		}
	}
	return true
}

// materializeRows gathers the indexed rows across all columns, in the
// dataset's column order — the representation custom statistics
// consume. Rows share one backing array to keep the allocation count
// independent of the match count.
func (d *Dataset) materializeRows(idx []int) [][]float64 {
	w := len(d.cols)
	rows := make([][]float64, len(idx))
	flat := make([]float64, len(idx)*w)
	for r, i := range idx {
		row := flat[r*w : (r+1)*w : (r+1)*w]
		for c := range d.cols {
			row[c] = d.cols[c][i]
		}
		rows[r] = row
	}
	return rows
}
