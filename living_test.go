package surf

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// splitRows pulls the dataset's rows apart into a base prefix dataset
// and the remaining rows as append batches of the given size.
func splitRows(t *testing.T, ds *Dataset, base, batch int) (*Dataset, [][][]float64) {
	t.Helper()
	xs, ys := ds.Column("x"), ds.Column("y")
	baseDS, err := NewDataset([]string{"x", "y"},
		[][]float64{append([]float64(nil), xs[:base]...), append([]float64(nil), ys[:base]...)})
	if err != nil {
		t.Fatal(err)
	}
	var batches [][][]float64
	for lo := base; lo < ds.Len(); lo += batch {
		hi := min(lo+batch, ds.Len())
		rows := make([][]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, []float64{xs[i], ys[i]})
		}
		batches = append(batches, rows)
	}
	return baseDS, batches
}

// sameRegions asserts two results are bit-identical in every mined
// region — bounds, estimates, scores and verification outcomes.
func sameRegionsBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("%s: %d regions, want %d", label, len(got.Regions), len(want.Regions))
	}
	for i := range got.Regions {
		g, w := got.Regions[i], want.Regions[i]
		for j := range g.Min {
			if math.Float64bits(g.Min[j]) != math.Float64bits(w.Min[j]) ||
				math.Float64bits(g.Max[j]) != math.Float64bits(w.Max[j]) {
				t.Fatalf("%s: region %d bounds differ: %v/%v vs %v/%v", label, i, g.Min, g.Max, w.Min, w.Max)
			}
		}
		if math.Float64bits(g.Estimate) != math.Float64bits(w.Estimate) ||
			math.Float64bits(g.TrueValue) != math.Float64bits(w.TrueValue) ||
			g.Verified != w.Verified || g.Satisfies != w.Satisfies {
			t.Fatalf("%s: region %d values differ: %+v vs %+v", label, i, g, w)
		}
	}
}

// TestStoreBasics covers the Store wrapper's surface: versioning,
// append validation (failed appends change nothing) and the atomic
// View pair.
func TestStoreBasics(t *testing.T) {
	if _, err := NewStore(nil); err == nil {
		t.Fatal("NewStore(nil) succeeded")
	}
	st, err := NewStore(crimeGrid(50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Version() != 1 || st.Rows() != 50 {
		t.Fatalf("seed store: version %d rows %d", st.Version(), st.Rows())
	}
	if names := st.Names(); len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("names: %v", names)
	}
	for _, bad := range [][][]float64{nil, {}, {{0.5}}, {{0.1, 0.2}, {math.NaN(), 0.3}}} {
		if _, err := st.Append(bad); err == nil {
			t.Fatalf("append %v succeeded", bad)
		}
	}
	if st.Version() != 1 || st.Rows() != 50 {
		t.Fatalf("failed appends moved the store: version %d rows %d", st.Version(), st.Rows())
	}
	v, err := st.Append([][]float64{{0.1, 0.9}, {0.2, 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || st.Rows() != 52 {
		t.Fatalf("after append: version %d rows %d", v, st.Rows())
	}
	ds, version := st.View()
	if version != 2 || ds.Len() != 52 {
		t.Fatalf("view: version %d rows %d", version, ds.Len())
	}
	if got := ds.Column("y"); got[51] != 0.8 {
		t.Fatalf("appended row not visible: %v", got[50:])
	}
}

// TestStoreAppendParity is the differential acceptance test at the
// engine level: a store grown from a base prefix plus appended
// batches must answer Find and FindTopK bit-identically to an engine
// over the equivalent flat dataset, under both evaluators.
func TestStoreAppendParity(t *testing.T) {
	flat := crimeGrid(600, 7)
	for _, grid := range []bool{false, true} {
		t.Run(fmt.Sprintf("grid=%v", grid), func(t *testing.T) {
			cfg := Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: grid}
			ref, err := Open(crimeGrid(600, 7), cfg)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := ref.GenerateWorkload(120, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.TrainSurrogate(wl, TrainOptions{Seed: 5, Trees: 8}); err != nil {
				t.Fatal(err)
			}
			var model bytes.Buffer
			if err := ref.SaveSurrogate(&model); err != nil {
				t.Fatal(err)
			}

			base, batches := splitRows(t, flat, 420, 75)
			store, err := NewStore(base)
			if err != nil {
				t.Fatal(err)
			}
			living, err := Open(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rows := range batches {
				if _, err := store.Append(rows); err != nil {
					t.Fatal(err)
				}
				ds, version := store.View()
				if err := living.SetDataset(ds, version); err != nil {
					t.Fatal(err)
				}
			}
			if err := living.LoadSurrogate(bytes.NewReader(model.Bytes())); err != nil {
				t.Fatal(err)
			}
			wantVersion := uint64(1 + len(batches))
			if info, ok := living.SurrogateInfo(); !ok || info.DataVersion != wantVersion {
				t.Fatalf("living engine data version: %+v, want %d", info, wantVersion)
			}
			if living.Rows() != 600 {
				t.Fatalf("living engine rows %d, want 600", living.Rows())
			}

			q := Query{Threshold: 20, Above: true, Seed: 3, Glowworms: 16, Iterations: 12, MaxRegions: 4}
			want, err := ref.Find(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := living.Find(q)
			if err != nil {
				t.Fatal(err)
			}
			sameRegionsBits(t, "find", got, want)

			tq := TopKQuery{K: 3, Largest: true, Seed: 4, Glowworms: 16, Iterations: 12}
			wantK, err := ref.FindTopK(tq)
			if err != nil {
				t.Fatal(err)
			}
			gotK, err := living.FindTopK(tq)
			if err != nil {
				t.Fatal(err)
			}
			sameRegionsBits(t, "topk", gotK, wantK)

			// The true evaluator agrees too: parity holds for
			// surrogate-free queries on the rebuilt evaluator.
			q.UseTrueFunction = true
			q.Iterations = 6
			want, err = ref.Find(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err = living.Find(q)
			if err != nil {
				t.Fatal(err)
			}
			sameRegionsBits(t, "true-function find", got, want)
		})
	}
}

// TestSetDatasetCacheInvalidation: a data swap invalidates cached
// results exactly like a model swap — entries drop, counters survive.
func TestSetDatasetCacheInvalidation(t *testing.T) {
	eng, err := Open(crimeGrid(300, 3), Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(80, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{Seed: 2, Trees: 5}); err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(crimeGrid(300, 3))
	if err != nil {
		t.Fatal(err)
	}

	q := Query{Threshold: 15, Above: true, Seed: 9, Glowworms: 12, Iterations: 8, MaxRegions: 2}
	for i := 0; i < 2; i++ {
		if _, err := eng.Find(q); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("warm cache stats: %+v", st)
	}
	if _, err := store.Append([][]float64{{0.7, 0.3}}); err != nil {
		t.Fatal(err)
	}
	ds, version := store.View()
	if err := eng.SetDataset(ds, version); err != nil {
		t.Fatal(err)
	}
	st = eng.CacheStats()
	if st.Entries != 0 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("post-swap cache stats: %+v, want 0 entries with counters kept", st)
	}
	if _, err := eng.Find(q); err != nil {
		t.Fatal(err)
	}
	if st = eng.CacheStats(); st.Misses != 2 {
		t.Fatalf("repeat after swap should miss: %+v", st)
	}
}

// TestSetDatasetValidation: nil datasets and schema mismatches are
// rejected before anything swaps.
func TestSetDatasetValidation(t *testing.T) {
	eng, err := Open(crimeGrid(100, 4), Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetDataset(nil, 2); err == nil {
		t.Fatal("nil dataset accepted")
	}
	other, err := NewDataset([]string{"a", "b"}, [][]float64{{1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetDataset(other, 2); err == nil {
		t.Fatal("mismatched schema accepted")
	}
	if v := eng.DataVersion(); v != 1 {
		t.Fatalf("failed swaps moved the data version to %d", v)
	}
	if err := eng.SetDataset(crimeGrid(100, 4), 2); err != nil {
		t.Fatal(err)
	}
	if v := eng.DataVersion(); v != 2 {
		t.Fatalf("data version %d after swap, want 2", v)
	}
}

// TestSetDatasetDomain: a swap onto grown rows re-derives the domain
// from the new rows — the path every registry append takes.
func TestSetDatasetDomain(t *testing.T) {
	cases := []struct {
		name             string
		wantMin, wantMax []float64
	}{
		{"derived", []float64{0, -2}, []float64{4, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed, err := NewDataset([]string{"x", "y"}, [][]float64{{0, 1, 0.5}, {0, 1, 0.5}})
			if err != nil {
				t.Fatal(err)
			}
			store, err := NewStore(seed)
			if err != nil {
				t.Fatal(err)
			}
			ds, _ := store.View()
			eng, err := Open(ds, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.Append([][]float64{{3, -2}, {4, 0.5}}); err != nil {
				t.Fatal(err)
			}
			grown, version := store.View()
			if err := eng.SetDataset(grown, version); err != nil {
				t.Fatal(err)
			}
			if eng.Rows() != 5 || eng.DataVersion() != version {
				t.Fatalf("engine serves %d rows at version %d, want 5 at %d", eng.Rows(), eng.DataVersion(), version)
			}
			if min, max := eng.Domain(); !slices.Equal(min, tc.wantMin) || !slices.Equal(max, tc.wantMax) {
				t.Fatalf("domain [%v, %v] after swap, want [%v, %v]", min, max, tc.wantMin, tc.wantMax)
			}
		})
	}
}

// TestConcurrentQueriesDuringAppends is the liveness acceptance test:
// Find and Stream traffic runs uninterrupted while a writer appends
// batch after batch (swapping each new version in) and periodically
// hot-swaps the model via ContinueTraining. Every query must succeed
// with internally consistent results; under -race this also proves
// the whole swap path publishes safely.
func TestConcurrentQueriesDuringAppends(t *testing.T) {
	seedDS := crimeGrid(400, 11)
	store, err := NewStore(crimeGrid(400, 11))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(seedDS, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(100, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{Seed: 6, Trees: 6}); err != nil {
		t.Fatal(err)
	}

	const rounds = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Writer: append → swap data → occasionally extend the model, the
	// same sequence the registry's append + drift retrain runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			rows := make([][]float64, 25)
			for j := range rows {
				rows[j] = []float64{clamp01(0.7 + float64(j%5)*0.01), clamp01(0.3 + float64(i%5)*0.01)}
			}
			if _, err := store.Append(rows); err != nil {
				report(fmt.Errorf("append %d: %w", i, err))
				return
			}
			ds, version := store.View()
			if err := eng.SetDataset(ds, version); err != nil {
				report(fmt.Errorf("swap %d: %w", i, err))
				return
			}
			if i%3 == 2 {
				extra, err := eng.GenerateWorkload(20, uint64(100+i))
				if err != nil {
					report(fmt.Errorf("workload %d: %w", i, err))
					return
				}
				if err := eng.ContinueTraining(2, extra); err != nil {
					report(fmt.Errorf("continue %d: %w", i, err))
					return
				}
			}
		}
	}()

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				i++
				q := Query{Threshold: 20, Above: true, Seed: uint64(w*1000 + i),
					Glowworms: 10, Iterations: 5, MaxRegions: 2}
				res, err := eng.Find(q)
				if err != nil {
					report(fmt.Errorf("reader %d find: %w", w, err))
					return
				}
				for _, reg := range res.Regions {
					if len(reg.Min) != 2 || len(reg.Max) != 2 {
						report(fmt.Errorf("reader %d: torn region %+v", w, reg))
						return
					}
				}
				st, err := eng.Stream(context.Background(), q)
				if err != nil {
					report(fmt.Errorf("reader %d stream: %w", w, err))
					return
				}
				events := 0
				for _, err := range st.Events() {
					if err != nil {
						report(fmt.Errorf("reader %d stream event: %w", w, err))
						st.Close()
						return
					}
					events++
				}
				st.Close()
				if events == 0 {
					report(fmt.Errorf("reader %d: empty stream", w))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if v := eng.DataVersion(); v != rounds+1 {
		t.Errorf("final data version %d, want %d", v, rounds+1)
	}
	if eng.Rows() != 400+rounds*25 {
		t.Errorf("final rows %d, want %d", eng.Rows(), 400+rounds*25)
	}
}
