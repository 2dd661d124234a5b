package kernel

import (
	"math"
	"testing"
)

// The fuzz decoder turns an arbitrary byte stream into a small valid
// ensemble plus a probe batch, drawing thresholds and row values from
// pools rigged with the adversarial cases: duplicated thresholds
// (within and across trees), ±Inf cuts, signed zero, subnormals, exact
// cut hits and one-ULP neighbours, and NaN rows; NaN cuts are set by a
// trailing run of bytes (decodeParityCase). Exhausted input reads as
// zero, so every byte string decodes — the fuzzer mutates structure
// and values freely without tripping a parse step.
var (
	fuzzThresholds = []float64{
		math.Inf(-1), -1e300, -3.5, -1.25, math.Copysign(0, -1), 0,
		0.5, 0.5, 1, 1.5, 2.25, 1e-308, 64, 1e300, math.Inf(1),
	}
	fuzzValues = []float64{
		math.NaN(), math.Inf(-1), math.Inf(1), -1e300, -3.5, -1.25,
		math.Copysign(0, -1), 0, 1e-308, math.Nextafter(0.5, 0), 0.5,
		math.Nextafter(0.5, 1), 1, 1.5, 2.25, 64, 1e300,
	}
	fuzzWeights = []float64{-2, -0.125, 0, 0.0625, 0.5, 1, 3.75}
)

// byteFeed streams fuzz bytes, yielding 0 once exhausted.
type byteFeed struct {
	data []byte
	pos  int
}

func (f *byteFeed) next() byte {
	if f.pos >= len(f.data) {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return b
}

// maxFuzzDepth caps decoded trees; deeper than the surrogate's depth 6,
// so the fixed-depth walk sees trip counts well past production's.
const maxFuzzDepth = 10

// decodeTree appends one tree rooted at the returned index: a control
// byte picks leaf vs split (always leaf at maxFuzzDepth), then feature
// and threshold bytes index the pools.
func decodeTree(f *byteFeed, nfeat, depth int, nodes *[]Node) int32 {
	idx := int32(len(*nodes))
	*nodes = append(*nodes, Node{})
	b := f.next()
	if depth >= maxFuzzDepth || b&3 == 0 {
		(*nodes)[idx] = Node{Feature: LeafFeature, Threshold: fuzzWeights[int(b)%len(fuzzWeights)]}
		return idx
	}
	feat := int32(int(f.next()) % nfeat)
	thr := fuzzThresholds[int(f.next())%len(fuzzThresholds)]
	l := decodeTree(f, nfeat, depth+1, nodes)
	r := decodeTree(f, nfeat, depth+1, nodes)
	(*nodes)[idx] = Node{Feature: feat, Threshold: thr, Left: l, Right: r}
	return idx
}

// decodeParityCase decodes a full differential test case: an ensemble
// of 1–29 trees over 1–4 features, 1–40 probe rows, and how many ULPs
// (−3 to 3) the bounded walk's yR sits from each row's prediction.
// After that byte, each nonzero byte k of a trailing run makes split
// (k−1) mod the split count a NaN cut, counting splits in node order
// tree by tree. Everything past the first six trees and the rows comes
// after them, so a byte string that ends with its rows decodes to the
// ensemble and rows it did before these were added.
func decodeParityCase(data []byte) (Ensemble, [][]float64, int) {
	f := &byteFeed{data: data}
	nfeat := 1 + int(f.next())%4
	e := Ensemble{
		NumFeatures: nfeat,
		BaseScore:   float64(int(f.next())%7) * 0.25,
	}
	ntrees := 1 + int(f.next())%6
	for t := 0; t < ntrees; t++ {
		var nodes []Node
		decodeTree(f, nfeat, 0, &nodes)
		e.Trees = append(e.Trees, nodes)
	}
	nrows := 1 + int(f.next())%40
	rows := make([][]float64, nrows)
	for i := range rows {
		row := make([]float64, nfeat)
		for j := range row {
			row[j] = fuzzValues[int(f.next())%len(fuzzValues)]
		}
		rows[i] = row
	}
	for range int(f.next()) % 24 {
		var nodes []Node
		decodeTree(f, nfeat, 0, &nodes)
		e.Trees = append(e.Trees, nodes)
	}
	ulps := int(int8(f.next())) % 4
	var splits []*Node
	for _, tree := range e.Trees {
		for k := range tree {
			if tree[k].Feature != LeafFeature {
				splits = append(splits, &tree[k])
			}
		}
	}
	for k := f.next(); k != 0 && len(splits) > 0; k = f.next() {
		splits[int(k-1)%len(splits)].Threshold = math.NaN()
	}
	return e, rows, ulps
}

// FuzzKernelParity is the differential fuzz target holding the
// compiled model to the bit-identity contract: for every decoded
// ensemble and probe batch, Predict1 and PredictBatch must return
// exactly referencePredict's float64s, a plain tree walk of the
// Ensemble, and the bounded walk must keep its contract at a yR a few
// ULPs from each row's own prediction (assertSide). Seeds live in
// testdata/fuzz/FuzzKernelParity and CI runs the target in the fuzz
// smoke alongside the serialization targets.
func FuzzKernelParity(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("0"))
	f.Add([]byte("duplicate thresholds, exact hits"))
	f.Add([]byte("\x03\x05\x05\x07\x01\x06\x06\x02\x0e\x05\x00\x0b\x09\x01\x02\x03\x04\x0a\x0a\x0a\x09\x08"))
	f.Add([]byte("\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4\xf3\xf2\xf1\xf0\x01\x02\x03\x04"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, rows, ulps := decodeParityCase(data)
		assertParity(t, e, rows)
		assertSide(t, e, rows, ulps)
	})
}
