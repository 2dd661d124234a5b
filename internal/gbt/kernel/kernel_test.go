package kernel

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// leafOf builds a leaf node carrying weight w.
func leafOf(w float64) Node { return Node{Feature: LeafFeature, Threshold: w} }

// stump builds a one-split tree: feature f at threshold thr with leaf
// weights lw (≤) and rw (>).
func stump(f int32, thr, lw, rw float64) []Node {
	return []Node{{Feature: f, Threshold: thr, Left: 1, Right: 2}, leafOf(lw), leafOf(rw)}
}

// referencePredict is the definition Compile must reproduce, written
// as plainly as possible against the neutral form: walk each tree from
// node 0, going Left when v <= Threshold and Right otherwise (so a NaN
// row value goes Right), and add the reached leaf weights in tree
// order on top of BaseScore.
func referencePredict(e Ensemble, row []float64) float64 {
	sum := e.BaseScore
	for _, tree := range e.Trees {
		n := tree[0]
		for n.Feature != LeafFeature {
			if row[n.Feature] <= n.Threshold {
				n = tree[n.Left]
			} else {
				n = tree[n.Right]
			}
		}
		sum += n.Threshold
	}
	return sum
}

// assertParity compiles e and checks Predict1 and PredictBatch agree
// bit-for-bit with referencePredict on every row.
func assertParity(t *testing.T, e Ensemble, rows [][]float64) {
	t.Helper()
	m := Compile(e)
	if len(m.trees) != len(e.Trees) || m.nfeat != e.NumFeatures || len(m.nodes) != e.NumNodes() {
		t.Fatalf("shape %d/%d/%d, ensemble %d/%d/%d",
			len(m.trees), m.nfeat, len(m.nodes),
			len(e.Trees), e.NumFeatures, e.NumNodes())
	}
	out := make([]float64, len(rows))
	m.PredictBatch(rows, out)
	for i, row := range rows {
		want := referencePredict(e, row)
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("PredictBatch[%d] = %v, reference %v (row %v)", i, out[i], want, row)
		}
		if p := m.Predict1(row); math.Float64bits(p) != math.Float64bits(want) {
			t.Fatalf("Predict1 %v, reference %v (row %v)", p, want, row)
		}
	}
}

// TestParityHandcrafted pins the adversarial shapes the fuzz target
// explores: duplicate thresholds across trees, ±Inf and NaN cuts, rows
// landing exactly on cuts and one ULP either side, NaN rows,
// single-leaf trees and every batch size up to two eight-row groups
// and a remainder.
func TestParityHandcrafted(t *testing.T) {
	e := Ensemble{
		BaseScore:   0.25,
		NumFeatures: 3,
		Trees: [][]Node{
			{leafOf(1.5)}, // single-leaf tree: pure base contribution
			stump(0, 0.5, -1, 2),
			stump(0, 0.5, 3, -4), // duplicate threshold, same feature
			stump(1, math.Inf(1), 0.5, -0.5),
			stump(1, math.Inf(-1), -0.25, 0.125),
			stump(2, math.Copysign(0, -1), 1, -1), // -0.0 cut: ties with +0.0 rows
			stump(2, math.NaN(), 16, -16),         // NaN cut: no row is ≤ it, every row goes right
			{ // depth-2 tree reusing feature 0 with a second distinct cut
				{Feature: 0, Threshold: 1.5, Left: 1, Right: 2},
				{Feature: 2, Threshold: 0.5, Left: 3, Right: 4},
				leafOf(-8), leafOf(32), leafOf(64),
			},
		},
	}

	var rows [][]float64
	for _, v := range []float64{
		math.NaN(), math.Inf(-1), math.Inf(1), -1e300,
		math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1),
		math.Copysign(0, -1), 0, 1e-308, 1.5, 2, 1e300,
	} {
		rows = append(rows, []float64{v, v, v})
	}
	rows = append(rows,
		[]float64{0.5, math.Inf(1), 0},
		[]float64{math.NaN(), 0.5, math.NaN()},
		[]float64{1.5, math.Inf(-1), math.Copysign(0, -1)},
		[]float64{math.Nextafter(1.5, 2), 0, math.Nextafter(0.5, 0)},
		[]float64{-1, math.NaN(), 1},
	)
	// Every batch size from empty through two full eight-row groups
	// and every remainder of the padded last group.
	for n := 0; n <= 17; n++ {
		assertParity(t, e, rows[:n])
	}
	assertParity(t, e, rows)
}

// chain builds a depth-d tree that peels one row band per level: the
// split at level k sends rows ≤ k/d of feature k%2 to a leaf of
// weight k and the rest on down, ending in a leaf of weight d.
func chain(d int) []Node {
	var nodes []Node
	for k := 0; k < d; k++ {
		self := int32(len(nodes))
		nodes = append(nodes,
			Node{Feature: int32(k % 2), Threshold: float64(k) / float64(d), Left: self + 1, Right: self + 2},
			leafOf(float64(k)))
	}
	return append(nodes, leafOf(float64(d)))
}

// TestParityMixedDepths: trees of depth 0, 1 and 12 in one ensemble
// take different trip counts, and rows leaving the chain at every
// level must sit on their leaf for the chain's remaining steps.
func TestParityMixedDepths(t *testing.T) {
	e := Ensemble{
		BaseScore:   -0.5,
		NumFeatures: 2,
		Trees: [][]Node{
			{leafOf(0.75)},
			stump(1, 0.5, -2, 2),
			chain(12),
		},
	}
	var depths []int32
	for _, tr := range Compile(e).trees {
		depths = append(depths, tr.depth)
	}
	if !slices.Equal(depths, []int32{0, 1, 12}) {
		t.Fatalf("tree depths %v, want [0 1 12]", depths)
	}
	var rows [][]float64
	for k := 0; k <= 13; k++ {
		v := float64(k) / 12
		rows = append(rows, []float64{v, v}, []float64{v, 1 - v}, []float64{1 - v, v})
	}
	rows = append(rows, []float64{math.NaN(), math.NaN()}, []float64{math.Inf(-1), math.Inf(1)})
	for n := 0; n <= 17; n++ {
		assertParity(t, e, rows[:n])
	}
	assertParity(t, e, rows)
}

// TestConcurrentPredictBatch: one compiled model serves concurrent
// batch calls, each into its own output buffer, with the answers of a
// serial call.
func TestConcurrentPredictBatch(t *testing.T) {
	e := Ensemble{NumFeatures: 2}
	for i := 0; i < 50; i++ {
		e.Trees = append(e.Trees, stump(int32(i%2), float64(i%7)*0.25, float64(i), -float64(i)))
	}
	m := Compile(e)
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = []float64{float64(i%13) * 0.17, float64(i%11) * 0.21}
	}
	want := make([]float64, len(rows))
	m.PredictBatch(rows, want)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(rows))
			for it := 0; it < 50; it++ {
				m.PredictBatch(rows, out)
				for i := range out {
					if out[i] != want[i] {
						t.Errorf("concurrent PredictBatch[%d] = %v, want %v", i, out[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestInstrumentCounters: compiled models account rows, calls and
// kernel time to the process-wide counters that /metrics exports
// under kernel="scalar".
func TestInstrumentCounters(t *testing.T) {
	e := Ensemble{NumFeatures: 1, Trees: [][]Node{stump(0, 0.5, 1, 2)}}
	m := Compile(e)
	rows0, calls0 := Rows.Value(), Calls.Value()

	out := make([]float64, 3)
	m.PredictBatch([][]float64{{0}, {1}, {2}}, out)
	m.Predict1([]float64{0})

	if got := Rows.Value() - rows0; got != 4 {
		t.Fatalf("rows counter advanced by %d, want 4", got)
	}
	if got := Calls.Value() - calls0; got != 2 {
		t.Fatalf("calls counter advanced by %d, want 2", got)
	}
}
