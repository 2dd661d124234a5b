package surf

import (
	"context"
	"fmt"
	"testing"
)

// TestWorkersDifferential: Workers only spreads the swarm's fitness
// evaluations and KDE selection weights over goroutines, so every
// query kind must answer exactly as the sequential Workers: 1 run for
// any worker count — the one-per-CPU default (0), counts that do not
// divide the swarm, and more workers than the swarm or the host can
// use. The result cache is off: its key drops Workers, so a cached
// engine would answer every row from the first.
func TestWorkersDifferential(t *testing.T) {
	eng := trainedEngine(t, WithResultCache(0))
	query := func(workers int) Query {
		q := hotspotQuery()
		q.Glowworms, q.Iterations, q.Workers = 40, 20, workers
		return q
	}
	kinds := []struct {
		name string
		run  func(workers int) (*Result, error)
	}{
		{"surrogate", func(w int) (*Result, error) { return eng.Find(query(w)) }},
		{"use_kde", func(w int) (*Result, error) {
			q := query(w)
			q.UseKDE, q.KDESample = true, 300
			return eng.Find(q)
		}},
		{"use_true_function", func(w int) (*Result, error) {
			q := query(w)
			q.UseTrueFunction = true
			return eng.Find(q)
		}},
		{"cluster_extents", func(w int) (*Result, error) {
			q := query(w)
			q.ClusterExtents = true
			return eng.Find(q)
		}},
		{"topk", func(w int) (*Result, error) {
			return eng.FindTopK(TopKQuery{K: 3, Largest: true, Glowworms: 40, Iterations: 20, Workers: w, Seed: 5})
		}},
		{"stream", func(w int) (*Result, error) {
			q := query(w)
			q.UseKDE, q.KDESample = true, 300
			s, err := eng.Stream(context.Background(), q)
			if err != nil {
				return nil, err
			}
			for _, err := range s.Events() {
				if err != nil {
					return nil, err
				}
			}
			return s.Result()
		}},
	}
	for _, kind := range kinds {
		want, err := kind.run(1)
		if err != nil {
			t.Fatalf("%s, workers=1: %v", kind.name, err)
		}
		if len(want.Regions) == 0 {
			t.Fatalf("%s: the sequential run found no regions; the comparison would be vacuous", kind.name)
		}
		for _, workers := range []int{0, 2, 3, 64} {
			t.Run(fmt.Sprintf("%s/workers=%d", kind.name, workers), func(t *testing.T) {
				got, err := kind.run(workers)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, want, got)
			})
		}
	}
}
