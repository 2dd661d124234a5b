package surf

import (
	"cmp"
	"reflect"
	"sync"
	"testing"

	"surf/internal/core"
	"surf/internal/kde"
)

// priorEngine opens a true-function engine over a 3,000-row crime
// grid, so use_kde queries run without training a surrogate.
func priorEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := Open(crimeGrid(3000, 30), Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// kdeQuery is a small use_kde find with the given seed and sample.
func kdeQuery(seed uint64, sample int) Query {
	return Query{
		Threshold: 40, Above: true, UseTrueFunction: true, SkipVerify: true,
		UseKDE: true, KDESample: sample, Glowworms: 12, Iterations: 4, Seed: seed,
	}
}

// viewPrior returns the prior the engine's current view holds (nil
// while its slot is empty) and the sample size it was fitted with.
func viewPrior(eng *Engine) (*kde.KDE, int) {
	p := eng.view().prior
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kde, p.sample
}

func mustFind(t *testing.T, eng *Engine, q Query) {
	t.Helper()
	if _, err := eng.Find(q); err != nil {
		t.Fatal(err)
	}
}

// TestPriorSharedAcrossQueries: the prior is fitted on the first
// use_kde query, not at Open or by other queries, and use_kde finds
// with other seeds reuse it.
func TestPriorSharedAcrossQueries(t *testing.T) {
	eng := priorEngine(t)
	mustFind(t, eng, Query{Threshold: 40, Above: true, UseTrueFunction: true, SkipVerify: true, Glowworms: 12, Iterations: 4})
	if k, _ := viewPrior(eng); k != nil {
		t.Fatal("prior fitted before any use_kde query")
	}
	mustFind(t, eng, kdeQuery(2, 200))
	first, sample := viewPrior(eng)
	if first == nil || sample != 200 || first.SampleSize() != 200 {
		t.Fatalf("after the first use_kde find: prior %v, sample %d", first, sample)
	}
	for _, seed := range []uint64{3, 4, 5} {
		mustFind(t, eng, kdeQuery(seed, 200))
		if k, _ := viewPrior(eng); k != first {
			t.Fatalf("seed %d refitted the prior", seed)
		}
	}
}

// TestPriorRefitsOnNewDataVersion: an append swapped in through
// SetDataset, and a SetDataset of unchanged data, each make a view
// whose first use_kde query fits a prior of its own, while the old
// view keeps the prior it had.
func TestPriorRefitsOnNewDataVersion(t *testing.T) {
	eng := priorEngine(t)
	store, err := NewStore(crimeGrid(3000, 30))
	if err != nil {
		t.Fatal(err)
	}
	mustFind(t, eng, kdeQuery(2, 200))
	old := eng.view()
	before, _ := viewPrior(eng)

	if _, err := store.Append([][]float64{{0.7, 0.3}, {0.2, 0.8}}); err != nil {
		t.Fatal(err)
	}
	ds, version := store.View()
	if err := eng.SetDataset(ds, version); err != nil {
		t.Fatal(err)
	}
	if k, _ := viewPrior(eng); k != nil {
		t.Fatal("an append's view starts with a prior")
	}
	mustFind(t, eng, kdeQuery(2, 200))
	appended, _ := viewPrior(eng)
	if appended == nil || appended == before {
		t.Fatal("the appended view reuses the old prior")
	}
	if old.prior.kde != before {
		t.Fatal("the swap changed the old view's prior")
	}

	if err := eng.SetDataset(ds, version); err != nil {
		t.Fatal(err)
	}
	mustFind(t, eng, kdeQuery(2, 200))
	if k, _ := viewPrior(eng); k == nil || k == appended {
		t.Fatal("a SetDataset of the same rows reuses the old prior")
	}
}

// TestPriorConcurrentFirstQueries: use_kde finds started at once on a
// fresh view all run on one prior. Each goroutine also asks the view
// for the prior through density, the call every use_kde query makes;
// a second fit would hand some of them another pointer. Run under
// -race, it checks the slot's locking too.
func TestPriorConcurrentFirstQueries(t *testing.T) {
	eng := priorEngine(t)
	view := eng.view()
	const n = 8
	got := make([]*kde.KDE, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range n {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			if i%2 == 0 {
				_, errs[i] = eng.Find(kdeQuery(uint64(i+1), 200))
			}
			k, err := view.density(eng.spec.FilterCols, 200)
			got[i] = k
			if errs[i] == nil {
				errs[i] = err
			}
		}()
	}
	start.Done()
	done.Wait()
	final, _ := viewPrior(eng)
	for i := range n {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] == nil || got[i] != final {
			t.Fatalf("goroutine %d got a prior other than the view's one", i)
		}
	}
}

// TestPriorOneSlotPerView: use_kde queries alternating between two
// KDESample values refit on every switch and leave exactly the last
// sample size's prior on the view.
func TestPriorOneSlotPerView(t *testing.T) {
	eng := priorEngine(t)
	var prev *kde.KDE
	for i, sample := range []int{200, 300, 200, 300} {
		mustFind(t, eng, kdeQuery(uint64(i+1), sample))
		k, s := viewPrior(eng)
		if k == nil || s != sample || k.SampleSize() != sample {
			t.Fatalf("query %d (KDESample %d): slot holds sample %d", i, sample, s)
		}
		if k == prev {
			t.Fatalf("query %d (KDESample %d) kept the other size's prior", i, sample)
		}
		prev = k
	}
}

// TestPriorMatchesAttachDensity: the engine's prior is, bit for bit,
// the one core.Finder.AttachDensity fits over the same rows, whatever
// seed that is passed. cmd/surf-perf's replica fits through
// AttachDensity with a per-query seed and must answer exactly as the
// engine does.
func TestPriorMatchesAttachDensity(t *testing.T) {
	eng := priorEngine(t)
	view := eng.view()
	rows := make([][]float64, view.data.Len())
	for i := range rows {
		rows[i] = []float64{view.data.Col(eng.spec.FilterCols[0])[i], view.data.Col(eng.spec.FilterCols[1])[i]}
	}
	for _, sample := range []int{500, 0} {
		mustFind(t, eng, kdeQuery(3, sample))
		prior, _ := viewPrior(eng)
		for _, seed := range []uint64{0, 1, 18, 1 << 63} {
			finder, err := core.NewFinder(func(x, l []float64) float64 { return 0 }, view.domain)
			if err != nil {
				t.Fatal(err)
			}
			if err := finder.AttachDensity(rows, cmp.Or(sample, defaultKDESample), seed); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(finder.Density(), prior) {
				t.Fatalf("KDESample %d, seed %d: AttachDensity fits another prior than the engine", sample, seed)
			}
		}
	}
}
