package surf

import (
	"math"
	"testing"
)

// regionsEqual compares mined region lists exactly (bounds and
// estimates).
func regionsEqual(a, b []Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i].Min {
			if a[i].Min[j] != b[i].Min[j] || a[i].Max[j] != b[i].Max[j] {
				return false
			}
		}
		if a[i].Estimate != b[i].Estimate {
			return false
		}
	}
	return true
}

// TestGSODefaultingConsistency is the regression test for the
// historical quirk where setting only Seed or Workers on a query
// silently changed the effective swarm-size default. All overrides
// that equal the defaults must produce bit-identical results to the
// no-override query.
func TestGSODefaultingConsistency(t *testing.T) {
	d := crimeGrid(3000, 41)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	base := Query{Threshold: 100, Above: true, UseTrueFunction: true, Iterations: 25, SkipVerify: true}

	ref, err := eng.Find(base)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		q    Query
	}{
		{"explicit default seed", func() Query { q := base; q.Seed = 1; return q }()},
		{"workers only", func() Query { q := base; q.Workers = 3; return q }()},
		{"seed and workers", func() Query { q := base; q.Seed = 1; q.Workers = 2; return q }()},
		{"explicit default glowworms", func() Query { q := base; q.Glowworms = 50 * 2 * eng.Dims(); return q }()},
	}
	for _, c := range cases {
		got, err := eng.Find(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !regionsEqual(ref.Regions, got.Regions) {
			t.Errorf("%s: regions differ from the no-override run", c.name)
		}
	}

	// FindTopK shares the same defaulting helper: seed/workers
	// overrides equal to the defaults change nothing.
	tkBase := TopKQuery{K: 2, Largest: true, UseTrueFunction: true, Iterations: 25, SkipVerify: true}
	tkRef, err := eng.FindTopK(tkBase)
	if err != nil {
		t.Fatal(err)
	}
	tkSeed := tkBase
	tkSeed.Seed = 1
	tkSeed.Workers = 2
	tkGot, err := eng.FindTopK(tkSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !regionsEqual(tkRef.Regions, tkGot.Regions) {
		t.Error("FindTopK: default-valued overrides changed the result")
	}
}

func TestFindTopKWorkers(t *testing.T) {
	d := crimeGrid(3000, 44)
	eng, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	seq, err := eng.FindTopK(TopKQuery{K: 2, Largest: true, UseTrueFunction: true, Iterations: 30, SkipVerify: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	par, err := eng.FindTopK(TopKQuery{K: 2, Largest: true, UseTrueFunction: true, Iterations: 30, SkipVerify: true, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !regionsEqual(seq.Regions, par.Regions) {
		t.Error("parallel FindTopK differs from sequential")
	}
	for _, r := range seq.Regions {
		if math.IsNaN(r.Estimate) {
			t.Error("NaN estimate in top-k result")
		}
	}
}
