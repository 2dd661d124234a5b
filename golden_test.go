//go:build amd64 && !amd64.v2

// The golden hashes pin answers bit for bit, so they are taken only
// where the floating-point code is fixed: GOARCH=amd64 at GOAMD64=v1.
// Other targets (arm64 fuses x*y+z into FMA) and higher amd64 levels
// may round differently and skip this file.

package surf

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_answers.json from the current answers")

const goldenPath = "testdata/golden_answers.json"

// goldenAnswer is one row's digest in testdata/golden_answers.json.
// Hash is the SHA-256 of the answers' JSON with elapsed_seconds
// zeroed; Regions and FirstEstimate make a changed hash readable.
type goldenAnswer struct {
	Name          string   `json:"name"`
	Hash          string   `json:"sha256"`
	Regions       int      `json:"regions"`
	FirstEstimate *float64 `json:"first_estimate"`
}

// goldenEngine opens the one engine every golden row runs on: a
// seeded Count dataset with a planted cluster, its grid index, and a
// surrogate trained on a seeded workload. The result cache is off so
// each row mines.
func goldenEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := Open(crimeGrid(6000, 11), Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true}, WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(1500, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 60, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// digest returns the golden digest of a sequence of results.
func digest(t *testing.T, name string, results ...*Result) goldenAnswer {
	t.Helper()
	g := goldenAnswer{Name: name}
	h := sha256.New()
	for _, res := range results {
		r := *res
		r.ElapsedSeconds = 0
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
		g.Regions += len(r.Regions)
		if g.FirstEstimate == nil && len(r.Regions) > 0 {
			est := r.Regions[0].Estimate
			g.FirstEstimate = &est
		}
	}
	g.Hash = hex.EncodeToString(h.Sum(nil))
	return g
}

// TestGoldenAnswers runs a fixed set of queries through every entry
// point (Find, FindTopK, FindMany, a drained Stream) and compares each
// answer's digest with testdata/golden_answers.json. A change that
// moves any answer by one ulp fails here; a change meant to move
// answers regenerates the file with -update (make golden) and says so.
func TestGoldenAnswers(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("golden answers train a surrogate and mine 37 queries")
	}
	eng := goldenEngine(t)
	ctx := context.Background()

	// Cheap swarms keep the true-function rows fast.
	const trueIters = 25
	finds := []struct {
		name string
		q    Query
	}{
		{"find/above", Query{Threshold: 400, Above: true, Seed: 3}},
		{"find/above/seed-1", Query{Threshold: 400, Above: true, Seed: 1}},
		{"find/above/low-threshold", Query{Threshold: 150, Above: true, Seed: 5}},
		{"find/above/min-side", Query{Threshold: 400, Above: true, Seed: 3, MinSideFrac: 0.05}},
		{"find/above/max-side", Query{Threshold: 200, Above: true, Seed: 4, MaxSideFrac: 0.08}},
		{"find/above/c-1", Query{Threshold: 400, Above: true, Seed: 3, C: 1}},
		{"find/above/c-10", Query{Threshold: 400, Above: true, Seed: 3, C: 10}},
		{"find/above/max-regions-3", Query{Threshold: 300, Above: true, Seed: 6, MaxRegions: 3}},
		{"find/above/small-swarm", Query{Threshold: 400, Above: true, Seed: 7, Glowworms: 40, Iterations: 30}},
		{"find/above/workers-1", Query{Threshold: 400, Above: true, Seed: 3, Workers: 1}},
		{"find/below", Query{Threshold: 50, Seed: 3}},
		{"find/below/seed-2", Query{Threshold: 20, Seed: 2}},
		{"find/below/min-side", Query{Threshold: 100, Seed: 8, MinSideFrac: 0.04}},
		{"find/use_kde", Query{Threshold: 400, Above: true, Seed: 3, UseKDE: true}},
		{"find/use_kde/sample-300", Query{Threshold: 300, Above: true, Seed: 9, UseKDE: true, KDESample: 300}},
		{"find/use_kde/below", Query{Threshold: 50, Seed: 10, UseKDE: true}},
		{"find/use_true_function", Query{Threshold: 400, Above: true, Seed: 3, UseTrueFunction: true, Iterations: trueIters}},
		{"find/use_true_function/below", Query{Threshold: 50, Seed: 4, UseTrueFunction: true, Iterations: trueIters}},
		{"find/use_true_function/cluster_extents", Query{Threshold: 300, Above: true, Seed: 5, UseTrueFunction: true, ClusterExtents: true, Iterations: trueIters}},
		{"find/cluster_extents", Query{Threshold: 400, Above: true, Seed: 3, ClusterExtents: true}},
		{"find/cluster_extents/below", Query{Threshold: 50, Seed: 11, ClusterExtents: true}},
		{"find/cluster_extents/use_kde", Query{Threshold: 300, Above: true, Seed: 12, ClusterExtents: true, UseKDE: true}},
		{"find/skip_verify", Query{Threshold: 400, Above: true, Seed: 3, SkipVerify: true}},
		{"find/skip_verify/below", Query{Threshold: 50, Seed: 13, SkipVerify: true}},
		{"find/skip_verify/cluster_extents", Query{Threshold: 300, Above: true, Seed: 14, SkipVerify: true, ClusterExtents: true}},
	}
	topks := []struct {
		name string
		q    TopKQuery
	}{
		{"topk/largest/k-1", TopKQuery{K: 1, Largest: true, Seed: 3}},
		{"topk/largest/k-3", TopKQuery{K: 3, Largest: true, Seed: 3}},
		{"topk/largest/c-1", TopKQuery{K: 2, Largest: true, Seed: 5, C: 1}},
		{"topk/largest/skip_verify", TopKQuery{K: 2, Largest: true, Seed: 6, SkipVerify: true}},
		{"topk/largest/use_true_function", TopKQuery{K: 2, Largest: true, Seed: 7, UseTrueFunction: true, Iterations: trueIters}},
		{"topk/smallest/k-1", TopKQuery{K: 1, Seed: 3}},
		{"topk/smallest/k-3", TopKQuery{K: 3, Seed: 4}},
		{"topk/smallest/min-side", TopKQuery{K: 2, Seed: 8, MinSideFrac: 0.05}},
		{"topk/smallest/use_true_function", TopKQuery{K: 2, Seed: 9, UseTrueFunction: true, Iterations: trueIters}},
	}
	many := []Query{
		{Threshold: 400, Above: true, Seed: 21},
		{Threshold: 50, Seed: 22},
		{Threshold: 300, Above: true, Seed: 23, UseKDE: true},
		{Threshold: 300, Above: true, Seed: 24, ClusterExtents: true},
	}
	streams := []struct {
		name string
		q    Query
	}{
		{"stream/above", Query{Threshold: 400, Above: true, Seed: 31}},
		{"stream/below/use_kde", Query{Threshold: 50, Seed: 32, UseKDE: true}},
	}

	var got []goldenAnswer
	for _, tc := range finds {
		res, err := eng.FindContext(ctx, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got = append(got, digest(t, tc.name, res))
	}
	for _, tc := range topks {
		res, err := eng.FindTopKContext(ctx, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got = append(got, digest(t, tc.name, res))
	}
	manyRes := make([]*Result, len(many))
	for mr := range eng.FindMany(ctx, many) {
		if mr.Err != nil {
			t.Fatalf("findmany[%d]: %v", mr.Index, mr.Err)
		}
		manyRes[mr.Index] = mr.Result
	}
	got = append(got, digest(t, "findmany", manyRes...))
	for _, tc := range streams {
		s, err := eng.Stream(ctx, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := s.Result()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got = append(got, digest(t, tc.name, res))
	}

	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, '\n')
		if err := os.WriteFile(goldenPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: make golden)", err)
	}
	var want []goldenAnswer
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]goldenAnswer, len(want))
	for _, w := range want {
		byName[w.Name] = w
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d rows, the test runs %d", goldenPath, len(want), len(got))
	}
	for _, g := range got {
		w, ok := byName[g.Name]
		switch {
		case !ok:
			t.Errorf("%s: no golden row", g.Name)
		case g.Hash != w.Hash:
			t.Errorf("%s: answer changed: %d regions, first estimate %s; golden %d regions, first estimate %s",
				g.Name, g.Regions, fmtEstimate(g.FirstEstimate), w.Regions, fmtEstimate(w.FirstEstimate))
		}
	}
}

func fmtEstimate(v *float64) string {
	if v == nil {
		return "none"
	}
	b, _ := json.Marshal(*v)
	return string(b)
}
