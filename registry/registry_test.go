package registry

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"

	surf "surf"
)

// testCols builds a clustered 2-d dataset with a spatially varying
// value column: v peaks near the (0.7, 0.3) cluster, so Mean queries
// have a real region to find.
func testCols(n int) (names []string, cols [][]float64) {
	rng := rand.New(rand.NewPCG(7, 11))
	xs := make([]float64, n)
	ys := make([]float64, n)
	vs := make([]float64, n)
	for i := range xs {
		if i%3 == 0 {
			xs[i] = 0.7 + rng.NormFloat64()*0.05
			ys[i] = 0.3 + rng.NormFloat64()*0.05
		} else {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
		dx, dy := xs[i]-0.7, ys[i]-0.3
		vs[i] = math.Exp(-(dx*dx + dy*dy) / 0.02)
	}
	return []string{"x", "y", "v"}, [][]float64{xs, ys, vs}
}

// writeCSV writes columns as a CSV dataset file.
func writeCSV(t *testing.T, path string, names []string, cols [][]float64) {
	t.Helper()
	ds, err := surf.NewDataset(names, cols)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
}

// countXY is the engine config of the fixture's artifacts.
var countXY = surf.Config{FilterColumns: []string{"x", "y"}, Statistic: surf.Count}

// trainArtifact trains a surrogate for cfg on the CSV and saves it;
// trees distinguishes artifacts in hot-swap tests.
func trainArtifact(t *testing.T, csvPath, outPath string, cfg surf.Config, trees int) {
	t.Helper()
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := surf.ReadCSVDataset(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := surf.Open(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(150, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, surf.TrainOptions{Trees: trees}); err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := eng.SaveSurrogate(out); err != nil {
		t.Fatal(err)
	}
}

// testFixture is one dataset CSV plus two distinguishable artifacts.
type testFixture struct {
	csv, artifactA, artifactB string
}

func newFixture(t *testing.T, rows int) testFixture {
	t.Helper()
	dir := t.TempDir()
	fx := testFixture{
		csv:       filepath.Join(dir, "data.csv"),
		artifactA: filepath.Join(dir, "a.surf"),
		artifactB: filepath.Join(dir, "b.surf"),
	}
	names, cols := testCols(rows)
	writeCSV(t, fx.csv, names, cols)
	trainArtifact(t, fx.csv, fx.artifactA, countXY, 5)
	trainArtifact(t, fx.csv, fx.artifactB, countXY, 12)
	return fx
}

func (fx testFixture) spec(artifact string) Spec {
	return Spec{Data: fx.csv, FilterColumns: []string{"x", "y"}, Statistic: "count", Artifact: artifact}
}

// fastQuery keeps swarm runs cheap.
var fastQuery = surf.Query{
	Threshold: 20, Above: true, Seed: 3,
	Glowworms: 16, Iterations: 10, MaxRegions: 4,
}

func TestRegisterValidation(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	cases := []struct {
		name string
		key  string
		spec Spec
	}{
		{"empty name", "", fx.spec(fx.artifactA)},
		{"no data", "d", Spec{FilterColumns: []string{"x"}, Statistic: "count"}},
		{"no filters", "d", Spec{Data: fx.csv, Statistic: "count"}},
		{"bad statistic", "d", Spec{Data: fx.csv, FilterColumns: []string{"x"}, Statistic: "nope"}},
		{"missing data file", "d", Spec{Data: fx.csv + ".gone", FilterColumns: []string{"x"}, Statistic: "count"}},
		{"artifact and train", "d", Spec{Data: fx.csv, FilterColumns: []string{"x"}, Statistic: "count", Artifact: fx.artifactA, Train: 10}},
		{"unknown filter column", "d", Spec{Data: fx.csv, FilterColumns: []string{"x", "zz"}, Statistic: "count"}},
		{"unknown target column", "d", Spec{Data: fx.csv, FilterColumns: []string{"x", "y"}, Statistic: "mean", TargetColumn: "q"}},
	}
	for _, c := range cases {
		if _, err := r.Register(c.key, c.spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: got %v, want ErrBadSpec", c.name, err)
		}
	}

	// Artifact metadata contradicting the spec fails with ErrBadArtifact
	// at registration, not at first query.
	bad := fx.spec(fx.artifactA)
	bad.Statistic = "mean"
	bad.TargetColumn = "v"
	if _, err := r.Register("d", bad); !errors.Is(err, surf.ErrBadArtifact) {
		t.Errorf("statistic mismatch: got %v, want ErrBadArtifact", err)
	}
	bad = fx.spec(fx.artifactA)
	bad.FilterColumns = []string{"y", "x"}
	if _, err := r.Register("d", bad); !errors.Is(err, surf.ErrBadArtifact) {
		t.Errorf("filter order mismatch: got %v, want ErrBadArtifact", err)
	}
	// A mean-over-v artifact registered for a spec aggregating w.
	dir := t.TempDir()
	wide := filepath.Join(dir, "wide.csv")
	names, cols := testCols(300)
	writeCSV(t, wide, append(names, "w"), append(cols, cols[2]))
	meanV := filepath.Join(dir, "mean-v.surf")
	trainArtifact(t, wide, meanV, surf.Config{FilterColumns: []string{"x", "y"}, Statistic: surf.Mean, TargetColumn: "v"}, 5)
	bad = Spec{Data: wide, FilterColumns: []string{"x", "y"}, Statistic: "mean", TargetColumn: "w", Artifact: meanV}
	if _, err := r.Register("d", bad); !errors.Is(err, surf.ErrBadArtifact) {
		t.Errorf("target mismatch: got %v, want ErrBadArtifact", err)
	}
	bad.TargetColumn = "v"
	if _, err := r.Register("d", bad); err != nil {
		t.Errorf("matching target: %v", err)
	}
}

func TestAcquireUnknownAndRemove(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	ctx := context.Background()
	if _, err := r.Acquire(ctx, "ghost"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("got %v, want ErrUnknownDataset", err)
	}
	if _, err := r.Register("d", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("d"); err != nil {
		t.Fatal(err)
	}
	// The in-flight handle keeps serving the set it pinned.
	if _, err := h.Engine().FindContext(ctx, fastQuery); err != nil {
		t.Errorf("find on removed dataset's pinned handle: %v", err)
	}
	h.Release()
	if _, err := r.Acquire(ctx, "d"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("acquire after remove: got %v, want ErrUnknownDataset", err)
	}
	if err := r.Remove("d"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("double remove: got %v, want ErrUnknownDataset", err)
	}
}

func TestLazyLoadAndStates(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	if _, err := r.Register("d", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	st, err := r.Status("d")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "unloaded" || st.Version != 1 {
		t.Fatalf("pre-acquire status = %+v", st)
	}
	h, err := r.Acquire(context.Background(), "d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	st, _ = r.Status("d")
	if st.State != "ready" || st.Rows != 300 || !st.Surrogate || st.InFlight != 1 {
		t.Fatalf("post-acquire status = %+v", st)
	}
	if st.Info == nil || st.Info.Trees != 5 {
		t.Fatalf("surrogate info = %+v", st.Info)
	}
	if h.Version() != 1 {
		t.Fatalf("handle version %d", h.Version())
	}
}

// TestSpecInheritanceOnSwap applies its rows in order, each a PUT
// against the spec the rows before it left running.
func TestSpecInheritanceOnSwap(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	spec := fx.spec(fx.artifactA)
	spec.UseGridIndex = true
	spec.DriftThreshold = 0.05
	if _, err := r.Register("d", spec); err != nil {
		t.Fatal(err)
	}
	// version is the entry's version the swap answers; 0 means the
	// swap is rejected with ErrBadSpec and the running spec stays.
	steps := []struct {
		name    string
		swap    Spec
		version int
		want    func(Spec) bool
	}{
		{"artifact only inherits the rest", Spec{Artifact: fx.artifactB}, 2, func(s Spec) bool {
			return s.Data == fx.csv && s.Statistic == "count" && s.Artifact == fx.artifactB && s.UseGridIndex && s.DriftThreshold == 0.05
		}},
		{"train drops the inherited artifact", Spec{Train: 50}, 3, func(s Spec) bool {
			return s.Artifact == "" && s.Train == 50 && s.DriftThreshold == 0.05
		}},
		{"threshold with monitoring off stays rejected", Spec{DriftThreshold: 0.1, DriftReservoir: -1}, 0, func(s Spec) bool {
			return s.DriftThreshold == 0.05 && s.DriftReservoir == 0
		}},
		{"reservoir -1 drops the inherited threshold", Spec{DriftReservoir: -1}, 4, func(s Spec) bool {
			return s.DriftThreshold == 0 && s.DriftReservoir == -1 && s.Train == 50 && !s.driftEnabled()
		}},
	}
	for _, st := range steps {
		v, err := r.Register("d", st.swap)
		if st.version == 0 && !errors.Is(err, ErrBadSpec) {
			t.Fatalf("%s: register error = %v, want ErrBadSpec", st.name, err)
		}
		if st.version != 0 && (err != nil || v != st.version) {
			t.Fatalf("%s: register = version %d, %v; want version %d", st.name, v, err, st.version)
		}
		status, _ := r.Status("d")
		if !st.want(status.Spec) {
			t.Fatalf("%s: spec after swap = %+v", st.name, status.Spec)
		}
	}
}

func TestLoadFailureIsStickyUntilRegister(t *testing.T) {
	fx := newFixture(t, 300)
	dir := t.TempDir()
	gone := filepath.Join(dir, "gone.csv")
	names, cols := testCols(100)
	writeCSV(t, gone, names, cols)
	r := New(0)
	spec := Spec{Data: gone, FilterColumns: []string{"x", "y"}, Statistic: "count", Artifact: fx.artifactA}
	if _, err := r.Register("d", spec); err != nil {
		t.Fatal(err)
	}
	// Registration validated the file; it vanishes before first use.
	if err := os.Remove(gone); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Acquire(ctx, "d"); err == nil {
		t.Fatal("expected load failure")
	}
	st, _ := r.Status("d")
	if st.State != "failed" || st.Err == "" {
		t.Fatalf("status after failed load = %+v", st)
	}
	// The failure is sticky: no reload storm.
	if _, err := r.Acquire(ctx, "d"); err == nil {
		t.Fatal("expected sticky load failure")
	}
	// Re-registering clears it.
	writeCSV(t, gone, names, cols)
	if _, err := r.Register("d", spec); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire(ctx, "d")
	if err != nil {
		t.Fatalf("acquire after re-register: %v", err)
	}
	h.Release()
}

// regionsEqual compares results field-by-field, ignoring elapsed time.
func regionsEqual(a, b *surf.Result) bool {
	if len(a.Regions) != len(b.Regions) {
		return false
	}
	feq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i := range a.Regions {
		ra, rb := a.Regions[i], b.Regions[i]
		if ra.Worms != rb.Worms || ra.Verified != rb.Verified || ra.Satisfies != rb.Satisfies ||
			!feq(ra.Estimate, rb.Estimate) || !feq(ra.Score, rb.Score) || !feq(ra.TrueValue, rb.TrueValue) {
			return false
		}
		for j := range ra.Min {
			if ra.Min[j] != rb.Min[j] || ra.Max[j] != rb.Max[j] {
				return false
			}
		}
	}
	return feq(a.ValidParticleFraction, b.ValidParticleFraction) && feq(a.ComplianceRate, b.ComplianceRate)
}

// expectedResult loads spec in a throwaway registry and runs the query
// once — the reference a hot-swap test compares live results against.
func expectedResult(t *testing.T, spec Spec, q surf.Query) *surf.Result {
	t.Helper()
	r := New(0)
	if _, err := r.Register("ref", spec); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire(context.Background(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	res, err := h.Engine().FindContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHotSwapConsistency is the acceptance race: queries hammer an
// entry while its artifact is hot-swapped mid-flight. Every request
// must succeed and see exactly the old or the new model's result —
// never an error, never a torn mix.
func TestHotSwapConsistency(t *testing.T) {
	fx := newFixture(t, 300)
	wantA := expectedResult(t, fx.spec(fx.artifactA), fastQuery)
	wantB := expectedResult(t, fx.spec(fx.artifactB), fastQuery)
	if regionsEqual(wantA, wantB) {
		t.Fatal("fixture artifacts are not distinguishable; the test would prove nothing")
	}

	r := New(0)
	if _, err := r.Register("d", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const workers = 8
	const perWorker = 6
	var sawA, sawB, torn, failed int
	var mu sync.Mutex
	var wg sync.WaitGroup
	swap := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/2 {
					close(swap)
				}
				h, err := r.Acquire(ctx, "d")
				if err == nil {
					var res *surf.Result
					res, err = h.Engine().FindContext(ctx, fastQuery)
					version := h.Version()
					h.Release()
					if err == nil {
						mu.Lock()
						switch {
						case regionsEqual(res, wantA):
							sawA++
							if version != 1 {
								torn++
							}
						case regionsEqual(res, wantB):
							sawB++
							if version != 2 {
								torn++
							}
						default:
							torn++
						}
						mu.Unlock()
						continue
					}
				}
				mu.Lock()
				failed++
				mu.Unlock()
			}
		}(w)
	}
	<-swap
	if _, err := r.Register("d", Spec{Artifact: fx.artifactB}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if failed != 0 || torn != 0 {
		t.Fatalf("hot swap: %d failed requests, %d torn results (A=%d B=%d)", failed, torn, sawA, sawB)
	}
	if sawA+sawB != workers*perWorker {
		t.Fatalf("accounted for %d of %d requests", sawA+sawB, workers*perWorker)
	}
	// After the swap settles, new requests see only B.
	h, err := r.Acquire(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	res, err := h.Engine().FindContext(ctx, fastQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !regionsEqual(res, wantB) {
		t.Fatal("post-swap result does not match the new artifact")
	}
}

// TestEvictionRespectsInflight pins capacity at 1 and proves a busy
// entry is never evicted while an idle one is.
func TestEvictionRespectsInflight(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(1)
	if _, err := r.Register("one", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("two", fx.spec(fx.artifactB)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h1, err := r.Acquire(ctx, "one")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Acquire(ctx, "two")
	if err != nil {
		t.Fatal(err)
	}
	// Both are loaded despite capacity 1: "one" is busy, so loading
	// "two" could not evict it.
	st1, _ := r.Status("one")
	st2, _ := r.Status("two")
	if st1.State != "ready" || st2.State != "ready" {
		t.Fatalf("states with both in flight: one=%s two=%s", st1.State, st2.State)
	}
	// The busy entry still serves.
	if _, err := h1.Engine().FindContext(ctx, fastQuery); err != nil {
		t.Fatal(err)
	}
	h2.Release()
	// "one" is still in flight; releasing "two" must evict the idle
	// LRU entry ("two" itself, as least recently used is whichever is
	// idle) — never "one".
	st1, _ = r.Status("one")
	if st1.State != "ready" {
		t.Fatalf("busy entry evicted: %s", st1.State)
	}
	h1.Release()
	// Now both are idle; capacity 1 keeps exactly one loaded.
	var ready, evicted int
	for _, st := range r.List() {
		switch st.State {
		case "ready":
			ready++
		case "evicted":
			evicted++
		}
	}
	if ready != 1 || evicted != 1 {
		t.Fatalf("after releases: %d ready, %d evicted (want 1/1)", ready, evicted)
	}
	// An evicted entry reloads transparently on next acquire.
	for _, name := range []string{"one", "two"} {
		h, err := r.Acquire(ctx, name)
		if err != nil {
			t.Fatalf("reacquire %s: %v", name, err)
		}
		h.Release()
	}
}

// TestConcurrentColdAcquiresShareOneLoad proves N concurrent acquirers
// of a cold entry produce one load, not N.
func TestConcurrentColdAcquiresShareOneLoad(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	if _, err := r.Register("d", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 16
	versions := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := r.Acquire(ctx, "d")
			if err != nil {
				errs[i] = err
				return
			}
			versions[i] = h.Version()
			h.Release()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("acquirer %d: %v", i, errs[i])
		}
		if versions[i] != 1 {
			t.Fatalf("acquirer %d saw version %d", i, versions[i])
		}
	}
}

// TestWarmTriggersLoad: Warm starts a cold entry's load without
// waiting; a later Acquire joins it, and the resulting status carries
// the load duration telemetry.
func TestWarmTriggersLoad(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	if err := r.Warm("ghost"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("warm unknown: got %v, want ErrUnknownDataset", err)
	}
	if _, err := r.Register("d", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	if err := r.Warm("d"); err != nil {
		t.Fatal(err)
	}
	// Warm is idempotent while the load is in flight or after it lands.
	if err := r.Warm("d"); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire(context.Background(), "d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	st, _ := r.Status("d")
	if st.State != "ready" {
		t.Fatalf("state after warm+acquire = %q", st.State)
	}
	if st.LoadSeconds <= 0 {
		t.Fatalf("LoadSeconds = %v, want > 0", st.LoadSeconds)
	}
}

// TestStatusCacheStats: a ready entry's status reports its engine's
// result cache.
func TestStatusCacheStats(t *testing.T) {
	fx := newFixture(t, 300)
	r := New(0)
	if _, err := r.Register("d", fx.spec(fx.artifactA)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h, err := r.Acquire(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if _, err := h.Engine().FindContext(ctx, fastQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Engine().FindContext(ctx, fastQuery); err != nil {
		t.Fatal(err)
	}
	st, _ := r.Status("d")
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss / 1 entry", st.Cache)
	}
	if want := h.Engine().CacheStats(); st.Cache != want {
		t.Fatalf("status cache = %+v, engine cache = %+v", st.Cache, want)
	}
}
