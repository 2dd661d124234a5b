package dataset

import (
	"math"
	"math/rand"
	"testing"

	"surf/internal/geom"
	"surf/internal/stats"
)

// registerSpread registers (once) a custom spread statistic over
// column 2 for the evaluator agreement tests.
var spreadKind = func() stats.Kind {
	k, err := stats.Register("dataset-test-spread", func(rows [][]float64) float64 {
		if len(rows) == 0 {
			return math.NaN()
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			lo = math.Min(lo, r[2])
			hi = math.Max(hi, r[2])
		}
		return hi - lo
	})
	if err != nil {
		panic(err)
	}
	return k
}()

// TestCustomStatisticOffDomainAgreement pins the evaluators to one
// empty-set convention for custom statistics that are defined on
// empty input: a region entirely outside the data domain must go
// through the registered function on every evaluator, including the
// grid index's off-domain early return.
func TestCustomStatisticOffDomainAgreement(t *testing.T) {
	rowCount, err := stats.Register("dataset-test-rowcount", func(rows [][]float64) float64 {
		return float64(len(rows)) // defined (0) on empty input
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	d := randomDataset(rng, 500, 2)
	spec := Spec{FilterCols: []int{0, 1}, Stat: rowCount}
	linear, err := NewLinearScan(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGridIndex(d, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	far := geom.Rect{Min: []float64{50, 50}, Max: []float64{60, 60}}
	for name, ev := range map[string]Evaluator{"linear": linear, "grid": grid} {
		y, n := ev.Evaluate(far)
		if y != 0 || n != 0 {
			t.Errorf("%s: off-domain custom statistic = (%g, %d), want (0, 0)", name, y, n)
		}
	}
}

// TestCustomStatisticEvaluators checks that both evaluators — linear
// scan and grid index — agree on a custom statistic, including the
// empty-region NaN convention.
func TestCustomStatisticEvaluators(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := randomDataset(rng, 2500, 2)
	spec := Spec{FilterCols: []int{0, 1}, Stat: spreadKind}
	if err := spec.Validate(d); err != nil {
		t.Fatalf("custom spec should validate without a target: %v", err)
	}
	linear, err := NewLinearScan(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGridIndex(d, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		r := randomRegion(rng, 2)
		yl, nl := linear.Evaluate(r)
		yg, ng := grid.Evaluate(r)
		if nl != ng {
			t.Fatalf("trial %d: counts differ: linear %d grid %d", trial, nl, ng)
		}
		same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
		if !same(yl, yg) {
			t.Fatalf("trial %d: values differ: linear %g grid %g", trial, yl, yg)
		}
		if nl == 0 && !math.IsNaN(yl) {
			t.Fatalf("trial %d: empty region gave %g, want NaN", trial, yl)
		}
	}
}
