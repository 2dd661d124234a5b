package surf

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"surf/internal/core"
	"surf/internal/dataset"
	"surf/internal/geom"
	"surf/internal/gso"
)

// countingEvaluator wraps an engine's true-function evaluator and
// counts its calls. The counter is atomic because the swarm's workers
// evaluate concurrently.
type countingEvaluator struct {
	dataset.Evaluator
	calls atomic.Int64
}

func (c *countingEvaluator) Evaluate(r geom.Rect) (float64, int) {
	c.calls.Add(1)
	return c.Evaluator.Evaluate(r)
}

// cachedEngine builds an engine whose true function counts its calls,
// so cache hits are observable: a hit issues no evaluations at all.
func cachedEngine(t *testing.T, opts ...Option) (*Engine, *countingEvaluator) {
	t.Helper()
	eng, err := Open(crimeGrid(1500, 21), Config{FilterColumns: []string{"x", "y"}, Statistic: Count}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingEvaluator{Evaluator: eng.view().evaluator}
	installEvaluator(eng, cb)
	return eng, cb
}

// installEvaluator puts ev on the engine's data view through
// swapSnapshot, the path SetDataset takes, so every later query pins
// it.
func installEvaluator(eng *Engine, ev dataset.Evaluator) {
	eng.swapSnapshot(func(cur *snapshot) *snapshot {
		view := *cur.view
		view.evaluator = ev
		return &snapshot{surr: cur.surr, info: cur.info, view: &view}
	})
}

// clear drops every entry, keeping the live generation.
func (c *resultCache) clear() {
	c.mu.Lock()
	gen := c.gen
	c.mu.Unlock()
	c.reset(gen)
}

// TestResultCacheDefaults: engines cache by default.
func TestResultCacheDefaults(t *testing.T) {
	eng, err := Open(crimeGrid(500, 22), Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.cache.enabled() {
		t.Error("engine's cache disabled by default")
	}
}

// cacheQuery is a small fixed true-function query used throughout.
var cacheQuery = Query{
	Threshold: 30, Above: true, Seed: 3,
	Iterations: 10, Glowworms: 20, MaxRegions: 4,
	UseTrueFunction: true,
}

// sameRegions asserts two results carry identical regions.
func sameRegions(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Regions) != len(b.Regions) {
		t.Fatalf("%d regions vs %d", len(a.Regions), len(b.Regions))
	}
	for i := range a.Regions {
		ra, rb := a.Regions[i], b.Regions[i]
		for j := range ra.Min {
			if ra.Min[j] != rb.Min[j] || ra.Max[j] != rb.Max[j] {
				t.Fatalf("region %d bounds differ", i)
			}
		}
		if ra.Estimate != rb.Estimate || ra.TrueValue != rb.TrueValue {
			t.Fatalf("region %d values differ", i)
		}
	}
}

// TestResultCacheHit proves a repeated identical query is served
// without re-running the swarm, and that the cached result is equal
// to the computed one.
func TestResultCacheHit(t *testing.T) {
	eng, cb := cachedEngine(t)
	r1, err := eng.Find(cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	ran := cb.calls.Load()
	if ran == 0 {
		t.Fatal("first run issued no evaluations")
	}
	r2, err := eng.Find(cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := cb.calls.Load(); got != ran {
		t.Fatalf("second run issued %d extra evaluations, want 0 (cache hit)", got-ran)
	}
	sameRegions(t, r1, r2)
	if r1.ComplianceRate != r2.ComplianceRate || r1.ValidParticleFraction != r2.ValidParticleFraction {
		t.Error("run-level figures differ between cached and computed result")
	}
}

// canonCase pairs two queries: shared when they resolve alike and must
// hit one cache entry, otherwise b must re-run the swarm.
type canonCase[Q any] struct {
	name   string
	a, b   Q
	shared bool
}

// TestResultCacheCanonicalization: queries share one cache entry
// exactly when they resolve alike — explicit defaults, any Workers,
// KDESample without UseKDE and a -0 threshold or C share it — while
// each other field of Query and TopKQuery set to a valid non-default
// value re-runs the swarm. Every shared pair also gives the same
// answer on an engine without a cache.
func TestResultCacheCanonicalization(t *testing.T) {
	negZero := math.Copysign(0, -1)
	iters := gso.DefaultParams().MaxIters
	worms := 50 * 2 * 2 // the L = 50·2d default for the 2-d grid

	q := cacheQuery
	with := func(edit func(*Query)) Query {
		e := q
		edit(&e)
		return e
	}
	kde := with(func(e *Query) { e.UseKDE = true })
	runCanonCases(t, "Query", (*Engine).Find, []canonCase[Query]{
		{"C default", q, with(func(e *Query) { e.C = core.DefaultC }), true},
		{"C -0", q, with(func(e *Query) { e.C = negZero }), true},
		{"MaxRegions default", with(func(e *Query) { e.MaxRegions = 0 }), with(func(e *Query) { e.MaxRegions = core.DefaultMaxRegions }), true},
		{"KDESample default", kde, with(func(e *Query) { e.UseKDE, e.KDESample = true, defaultKDESample }), true},
		{"KDESample without UseKDE", q, with(func(e *Query) { e.KDESample = 500 }), true},
		{"Glowworms default", with(func(e *Query) { e.Glowworms = 0 }), with(func(e *Query) { e.Glowworms = worms }), true},
		{"Iterations default", with(func(e *Query) { e.Iterations = 0 }), with(func(e *Query) { e.Iterations = iters }), true},
		{"MinSideFrac default", q, with(func(e *Query) { e.MinSideFrac = core.DefaultMinSideFrac }), true},
		{"MaxSideFrac default", q, with(func(e *Query) { e.MaxSideFrac = core.DefaultMaxSideFrac }), true},
		{"Workers", q, with(func(e *Query) { e.Workers = 2 }), true},
		{"Threshold -0", with(func(e *Query) { e.Threshold = 0 }), with(func(e *Query) { e.Threshold = negZero }), true},

		{"Threshold", q, with(func(e *Query) { e.Threshold = 31 }), false},
		{"Above", q, with(func(e *Query) { e.Above = false }), false},
		{"C", q, with(func(e *Query) { e.C = 2 }), false},
		{"MaxRegions", q, with(func(e *Query) { e.MaxRegions = 3 }), false},
		{"UseTrueFunction", with(func(e *Query) { e.UseTrueFunction = false }), q, false},
		{"UseKDE", q, kde, false},
		{"KDESample", kde, with(func(e *Query) { e.UseKDE, e.KDESample = true, 500 }), false},
		{"Glowworms", q, with(func(e *Query) { e.Glowworms = 21 }), false},
		{"Iterations", q, with(func(e *Query) { e.Iterations = 11 }), false},
		{"MinSideFrac", q, with(func(e *Query) { e.MinSideFrac = 0.02 }), false},
		{"MaxSideFrac", q, with(func(e *Query) { e.MaxSideFrac = 0.2 }), false},
		{"SkipVerify", q, with(func(e *Query) { e.SkipVerify = true }), false},
		{"ClusterExtents", q, with(func(e *Query) { e.ClusterExtents = true }), false},
		{"Seed", q, with(func(e *Query) { e.Seed = 4 }), false},
	})

	tq := TopKQuery{K: 3, Largest: true, Seed: 3, Iterations: 10, Glowworms: 20, UseTrueFunction: true}
	withK := func(edit func(*TopKQuery)) TopKQuery {
		e := tq
		edit(&e)
		return e
	}
	runCanonCases(t, "TopKQuery", (*Engine).FindTopK, []canonCase[TopKQuery]{
		{"C default", tq, withK(func(e *TopKQuery) { e.C = core.DefaultC }), true},
		{"C -0", tq, withK(func(e *TopKQuery) { e.C = negZero }), true},
		{"Glowworms default", withK(func(e *TopKQuery) { e.Glowworms = 0 }), withK(func(e *TopKQuery) { e.Glowworms = worms }), true},
		{"Iterations default", withK(func(e *TopKQuery) { e.Iterations = 0 }), withK(func(e *TopKQuery) { e.Iterations = iters }), true},
		{"MinSideFrac default", tq, withK(func(e *TopKQuery) { e.MinSideFrac = core.DefaultMinSideFrac }), true},
		{"MaxSideFrac default", tq, withK(func(e *TopKQuery) { e.MaxSideFrac = core.DefaultMaxSideFrac }), true},
		{"Workers", tq, withK(func(e *TopKQuery) { e.Workers = 2 }), true},

		{"K", tq, withK(func(e *TopKQuery) { e.K = 2 }), false},
		{"Largest", tq, withK(func(e *TopKQuery) { e.Largest = false }), false},
		{"C", tq, withK(func(e *TopKQuery) { e.C = 2 }), false},
		{"UseTrueFunction", withK(func(e *TopKQuery) { e.UseTrueFunction = false }), tq, false},
		{"Glowworms", tq, withK(func(e *TopKQuery) { e.Glowworms = 21 }), false},
		{"Iterations", tq, withK(func(e *TopKQuery) { e.Iterations = 11 }), false},
		{"MinSideFrac", tq, withK(func(e *TopKQuery) { e.MinSideFrac = 0.02 }), false},
		{"MaxSideFrac", tq, withK(func(e *TopKQuery) { e.MaxSideFrac = 0.2 }), false},
		{"SkipVerify", tq, withK(func(e *TopKQuery) { e.SkipVerify = true }), false},
		{"Seed", tq, withK(func(e *TopKQuery) { e.Seed = 4 }), false},
	})
}

// runCanonCases runs, as subtests of name, each case's a then b on a
// cached engine with a surrogate (the UseTrueFunction cases run a on
// it), counting b's true-function evaluations, and checks each shared
// pair against an engine without a cache.
func runCanonCases[Q any](t *testing.T, name string, find func(*Engine, Q) (*Result, error), cases []canonCase[Q]) {
	t.Helper()
	eng, cb := cachedEngine(t)
	wl, err := eng.GenerateWorkload(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 5}); err != nil {
		t.Fatal(err)
	}
	uncached, _ := cachedEngine(t, WithResultCache(0))
	t.Run(name, func(t *testing.T) {
		for _, tt := range cases {
			t.Run(tt.name, func(t *testing.T) {
				eng.cache.clear()
				ra, err := find(eng, tt.a)
				if err != nil {
					t.Fatal(err)
				}
				ran := cb.calls.Load()
				if _, err := find(eng, tt.b); err != nil {
					t.Fatal(err)
				}
				extra := cb.calls.Load() - ran
				if !tt.shared {
					if extra == 0 {
						t.Fatal("materially different query was served from cache")
					}
					return
				}
				if extra != 0 {
					t.Fatalf("canonically identical query re-ran the swarm (%d extra evaluations)", extra)
				}
				rb, err := find(uncached, tt.b)
				if err != nil {
					t.Fatal(err)
				}
				sameRegions(t, ra, rb)
			})
		}
	})
}

// TestResultCacheInvalidatedBySwap: training (or loading) a surrogate
// clears the cache, so no entry outlives the snapshot it was computed
// against.
func TestResultCacheInvalidatedBySwap(t *testing.T) {
	eng, cb := cachedEngine(t)
	if _, err := eng.Find(cacheQuery); err != nil {
		t.Fatal(err)
	}
	if eng.cache.len() == 0 {
		t.Fatal("no cache entry after Find")
	}
	wl, err := eng.GenerateWorkload(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 5}); err != nil {
		t.Fatal(err)
	}
	if eng.cache.len() != 0 {
		t.Fatal("cache survived a surrogate swap")
	}
	ran := cb.calls.Load()
	if _, err := eng.Find(cacheQuery); err != nil {
		t.Fatal(err)
	}
	if cb.calls.Load() == ran {
		t.Fatal("query after swap was served from the invalidated cache")
	}
}

// TestResultCacheCopies: mutating a returned result must not poison
// the cache.
func TestResultCacheCopies(t *testing.T) {
	eng, _ := cachedEngine(t)
	r1, err := eng.Find(cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Regions) == 0 {
		t.Skip("query mined no regions; nothing to mutate")
	}
	orig := r1.Regions[0].Min[0]
	r1.Regions[0].Min[0] = -999
	r1.Regions[0].Estimate = -999
	r2, err := eng.Find(cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Regions[0].Min[0] != orig || r2.Regions[0].Estimate == -999 {
		t.Error("caller mutation leaked into the cache")
	}
}

// TestResultCacheDisabled: WithResultCache(0) turns caching off.
func TestResultCacheDisabled(t *testing.T) {
	eng, cb := cachedEngine(t, WithResultCache(0))
	if _, err := eng.Find(cacheQuery); err != nil {
		t.Fatal(err)
	}
	ran := cb.calls.Load()
	if _, err := eng.Find(cacheQuery); err != nil {
		t.Fatal(err)
	}
	if cb.calls.Load() == ran {
		t.Fatal("disabled cache still served a repeat query")
	}
}

// TestResultCacheLRUEviction: the cache respects its capacity,
// evicting the least recently used entry. Each query is looked up as
// often as the entry it displaces, and a tie admits (see
// TestResultCacheAdmission).
func TestResultCacheLRUEviction(t *testing.T) {
	eng, cb := cachedEngine(t, WithResultCache(2))
	queries := []Query{cacheQuery, cacheQuery, cacheQuery}
	queries[1].Threshold = 31
	queries[2].Threshold = 32
	for _, q := range queries {
		if _, err := eng.Find(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.cache.len(); got != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", got)
	}
	// queries[0] was evicted; re-running it must actually run.
	ran := cb.calls.Load()
	if _, err := eng.Find(queries[0]); err != nil {
		t.Fatal(err)
	}
	if cb.calls.Load() == ran {
		t.Fatal("evicted query was served from cache")
	}
	// queries[2] is still resident.
	ran = cb.calls.Load()
	if _, err := eng.Find(queries[2]); err != nil {
		t.Fatal(err)
	}
	if cb.calls.Load() != ran {
		t.Fatal("resident query re-ran")
	}
}

// TestResultCacheTopK: FindTopK shares the cache machinery, keyed
// apart from threshold queries.
func TestResultCacheTopK(t *testing.T) {
	eng, cb := cachedEngine(t)
	q := TopKQuery{
		K: 3, Largest: true, Seed: 3,
		Iterations: 10, Glowworms: 20,
		UseTrueFunction: true,
	}
	r1, err := eng.FindTopK(q)
	if err != nil {
		t.Fatal(err)
	}
	ran := cb.calls.Load()
	r2, err := eng.FindTopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if cb.calls.Load() != ran {
		t.Fatal("repeat top-k query re-ran")
	}
	sameRegions(t, r1, r2)
}

// TestCacheStats: the engine reports lifetime hit/miss counters and
// current occupancy, and the counters survive the clear a snapshot
// swap triggers.
func TestCacheStats(t *testing.T) {
	eng, _ := cachedEngine(t)
	if st := eng.CacheStats(); st != (CacheStats{Capacity: defaultCacheSize}) {
		t.Fatalf("fresh engine stats = %+v", st)
	}
	if _, err := eng.Find(cacheQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Find(cacheQuery); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	want := CacheStats{Hits: 1, Misses: 1, Entries: 1, Capacity: defaultCacheSize}
	if st != want {
		t.Fatalf("stats after miss+hit = %+v, want %+v", st, want)
	}
	// A snapshot swap clears entries but keeps the lifetime counters.
	eng.cache.clear()
	st = eng.CacheStats()
	want.Entries = 0
	if st != want {
		t.Fatalf("stats after clear = %+v, want %+v", st, want)
	}
}

// TestCacheStatsDisabled: a disabled cache reports zeros — no phantom
// misses from the bypassed lookup path.
func TestCacheStatsDisabled(t *testing.T) {
	eng, _ := cachedEngine(t, WithResultCache(0))
	if _, err := eng.Find(cacheQuery); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("disabled cache stats = %+v, want zeros", st)
	}
}

// entryQuery is cacheQuery run for more iterations than a stream
// buffers events, so a stream closed after its first event is always
// stopped before its run completes.
var entryQuery = func() Query {
	q := cacheQuery
	q.Iterations = 2 * streamBuffer
	return q
}()

// entryTopK is the top-k counterpart of cacheQuery.
var entryTopK = TopKQuery{K: 3, Largest: true, Seed: 3, Iterations: 10, Glowworms: 20, UseTrueFunction: true}

// findOne runs q alone through FindMany.
func findOne(ctx context.Context, eng *Engine, q Query) (*Result, error) {
	var res *Result
	var err error
	for r := range eng.FindMany(ctx, []Query{q}) {
		res, err = r.Result, r.Err
	}
	return res, err
}

// poison scribbles over a result a caller holds; the cache must not
// see it.
func poison(r *Result) {
	if len(r.Regions) > 0 {
		r.Regions[0].Min[0] = -999
		r.Regions[0].Estimate = -999
	}
}

// finished drains a stream a cache hit returned. The stream must
// already be finished: exactly one event, EventDone, carrying the
// very Result that Result returns.
func finished(st *Stream, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	var events []Event
	for ev, err := range st.Events() {
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	res, err := st.Result()
	if err != nil {
		return nil, err
	}
	if len(events) != 1 {
		return nil, fmt.Errorf("cache hit streamed %d events, want only EventDone", len(events))
	}
	done, ok := events[0].(EventDone)
	if !ok {
		return nil, fmt.Errorf("cache hit streamed %T, want EventDone", events[0])
	}
	if done.Result != res {
		return nil, errors.New("Result() is not the Result EventDone carried")
	}
	return res, nil
}

// TestResultCacheEntryPoints: every run that completes fills the
// cache, whichever entry point started it, and a run stopped early
// fills nothing. All five entry points then serve a repeat from the
// cache with zero evaluations, each as a private copy equal to a
// mined answer, so mutating one — or the filling run's own Result —
// cannot poison the entry. A repeated stream comes back finished,
// with EventDone as its only event.
func TestResultCacheEntryPoints(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	type repeat struct {
		name string
		find func(*Engine) (*Result, error)
	}
	threshold := []repeat{
		{"Find", func(e *Engine) (*Result, error) { return e.Find(entryQuery) }},
		{"FindMany", func(e *Engine) (*Result, error) { return findOne(bg, e, entryQuery) }},
		{"drained Stream", func(e *Engine) (*Result, error) { return finished(e.Stream(bg, entryQuery)) }},
	}
	topK := []repeat{
		{"FindTopK", func(e *Engine) (*Result, error) { return e.FindTopK(entryTopK) }},
		{"drained StreamTopK", func(e *Engine) (*Result, error) { return finished(e.StreamTopK(bg, entryTopK)) }},
	}
	cases := []struct {
		name    string
		run     func(*Engine) (*Result, error)
		repeats []repeat
		fills   bool
	}{
		{"Find", func(e *Engine) (*Result, error) { return e.Find(entryQuery) }, threshold, true},
		{"FindTopK", func(e *Engine) (*Result, error) { return e.FindTopK(entryTopK) }, topK, true},
		{"FindMany", func(e *Engine) (*Result, error) { return findOne(bg, e, entryQuery) }, threshold, true},
		{"drained Stream", func(e *Engine) (*Result, error) { return drain(e.Stream(bg, entryQuery)) }, threshold, true},
		{"drained StreamTopK", func(e *Engine) (*Result, error) { return drain(e.StreamTopK(bg, entryTopK)) }, topK, true},
		{"Stream closed after its first event", func(e *Engine) (*Result, error) {
			st, err := e.Stream(bg, entryQuery)
			if err != nil {
				return nil, err
			}
			defer st.Close()
			_, err = st.Next()
			return nil, err
		}, threshold, false},
		{"FindMany with a cancelled context", func(e *Engine) (*Result, error) {
			// The pool may stop before dispatching the query at all;
			// either way nothing completes.
			if _, err := findOne(cancelled, e, entryQuery); err != nil && !errors.Is(err, context.Canceled) {
				return nil, err
			}
			return nil, nil
		}, threshold, false},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			uncached, _ := cachedEngine(t, WithResultCache(0))
			want, err := tt.repeats[0].find(uncached)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Regions) == 0 {
				t.Fatal("query mined no regions; the copy check would be vacuous")
			}

			eng, cb := cachedEngine(t)
			got, err := tt.run(eng)
			if err != nil {
				t.Fatal(err)
			}
			if got != nil {
				poison(got)
			}
			wantEntries := 0
			if tt.fills {
				wantEntries = 1
			}
			if n := eng.cache.len(); n != wantEntries {
				t.Fatalf("cache holds %d entries after the run, want %d", n, wantEntries)
			}
			if !tt.fills {
				ran := cb.calls.Load()
				if _, err := tt.repeats[0].find(eng); err != nil {
					t.Fatal(err)
				}
				if cb.calls.Load() == ran {
					t.Fatal("repeat was served although the run filled nothing")
				}
			}
			for _, rep := range tt.repeats {
				ran := cb.calls.Load()
				res, err := rep.find(eng)
				if err != nil {
					t.Fatal(err)
				}
				if extra := cb.calls.Load() - ran; extra != 0 {
					t.Fatalf("%s repeat issued %d evaluations, want 0 (a cache hit)", rep.name, extra)
				}
				sameResult(t, want, res)
				poison(res)
			}
			// The last repeat's poison did not reach the entry either.
			res, err := tt.repeats[0].find(eng)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, want, res)
		})
	}

	// A snapshot swap empties the cache, so the stream a repeat just
	// served from it mines again, with live telemetry.
	t.Run("Stream after SetDataset", func(t *testing.T) {
		eng, _ := cachedEngine(t)
		if _, err := drain(eng.Stream(bg, entryQuery)); err != nil {
			t.Fatal(err)
		}
		if _, err := finished(eng.Stream(bg, entryQuery)); err != nil {
			t.Fatal(err)
		}
		if err := eng.SetDataset(crimeGrid(1500, 21), 2); err != nil {
			t.Fatal(err)
		}
		st, err := eng.Stream(bg, entryQuery)
		if err != nil {
			t.Fatal(err)
		}
		iterations := 0
		for ev, err := range st.Events() {
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := ev.(EventIteration); ok {
				iterations++
			}
		}
		if iterations == 0 {
			t.Fatal("stream after SetDataset emitted no EventIteration; it was served from the cache")
		}
	})
}

// blockingEvaluator holds every evaluation until release is closed,
// closing started on the first.
type blockingEvaluator struct {
	dataset.Evaluator
	once             sync.Once
	started, release chan struct{}
}

func (b *blockingEvaluator) Evaluate(r geom.Rect) (float64, int) {
	b.once.Do(func() { close(b.started) })
	<-b.release
	return b.Evaluator.Evaluate(r)
}

// TestResultCacheDropsDeadGeneration: a run that finishes after a
// snapshot swap leaves no entry behind — its generation is dead, so
// the entry could never be served and would only crowd out live ones.
func TestResultCacheDropsDeadGeneration(t *testing.T) {
	eng, err := Open(crimeGrid(1500, 21), Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	be := &blockingEvaluator{Evaluator: eng.view().evaluator, started: make(chan struct{}), release: make(chan struct{})}
	installEvaluator(eng, be)
	errc := make(chan error, 1)
	go func() {
		_, err := eng.Find(cacheQuery)
		errc <- err
	}()
	<-be.started
	if err := eng.SetDataset(crimeGrid(1500, 22), 2); err != nil {
		t.Fatal(err)
	}
	close(be.release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Entries != 0 {
		t.Fatalf("cache holds %d entries after a run on a swapped-out snapshot, want 0", st.Entries)
	}
}

// ask is the engine's path through the cache for key n of
// generation 0: a lookup, and on a miss a put of a fresh answer.
func ask(c *resultCache, n int) {
	askKey(c, resultKey{query: n})
}

// askKey looks key up and on a miss puts a fresh answer under it.
func askKey(c *resultCache, key resultKey) {
	if _, ok := c.get(key); !ok {
		c.put(key, &Result{Regions: []Region{{Min: []float64{0}, Max: []float64{1}}}})
	}
}

// resident lists the cache's keys from most to least recently used.
func (c *resultCache) resident() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []int
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*slot).key.query.(int))
	}
	return keys
}

// freqBound is the most keys with a nonzero lookup count the cache
// can hold (see count); resident keys may add up to cap more.
func (c *resultCache) freqBound() int { return 2 * c.window() }

// counts returns the nonzero lookup counts by key.
func (c *resultCache) counts() map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int, len(c.slots))
	for k, s := range c.slots {
		if s.n > 0 {
			out[k.query.(int)] = s.n
		}
	}
	return out
}

// TestResultCacheAdmission: a full cache admits a key looked up at
// least as often as the least recently used entry, evicting that
// entry, and turns away a key looked up less often; lookup counts
// halve every window() lookups, so the count map stays bounded, and
// reset clears them.
func TestResultCacheAdmission(t *testing.T) {
	const capacity = 3
	window := admissionWindow * capacity
	tests := []struct {
		name     string
		run      func(c *resultCache)
		resident []int       // most recently used first
		rejected uint64      // CacheStats.Rejected after run
		counts   map[int]int // the exact lookup counts, when not nil
	}{
		{
			name: "one-off keys keep the last cap keys in LRU order",
			run: func(c *resultCache) {
				for n := 1; n <= 5; n++ {
					ask(c, n)
				}
			},
			resident: []int{5, 4, 3},
			counts:   map[int]int{1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
		},
		{
			name: "a key looked up more often than the victim displaces it",
			run: func(c *resultCache) {
				for range 2 {
					c.get(resultKey{query: 4}) // misses whose runs never completed
				}
				for _, n := range []int{1, 1, 2, 3, 4} {
					ask(c, n)
				}
			},
			resident: []int{4, 3, 2},
			counts:   map[int]int{1: 2, 2: 1, 3: 1, 4: 3},
		},
		{
			name: "a one-off key does not displace a popular tail entry",
			run: func(c *resultCache) {
				for _, n := range []int{1, 1, 2, 3, 4} {
					ask(c, n)
				}
			},
			resident: []int{3, 2, 1},
			rejected: 1,
			counts:   map[int]int{1: 2, 2: 1, 3: 1, 4: 1},
		},
		{
			name: "the count map stays bounded after 10 windows of distinct keys",
			run: func(c *resultCache) {
				for n := 1; n <= 10*window; n++ {
					ask(c, n)
				}
			},
			resident: []int{10 * window, 10*window - 1, 10*window - 2},
		},
		{
			name: "reset clears the counts",
			run: func(c *resultCache) {
				for _, n := range []int{1, 1, 2} {
					ask(c, n)
				}
				c.reset(1)
			},
			counts: map[int]int{},
		},
		{
			name: "a dead-generation put is dropped, not rejected",
			run: func(c *resultCache) {
				c.reset(1)
				for _, n := range []int{1, 1, 2, 3} {
					askKey(c, resultKey{gen: 1, query: n})
				}
				c.put(resultKey{gen: 0, query: 4}, &Result{})
			},
			resident: []int{3, 2, 1},
			counts:   map[int]int{1: 2, 2: 1, 3: 1},
		},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := newResultCache(capacity)
			tt.run(c)
			if got := c.resident(); !slices.Equal(got, tt.resident) {
				t.Errorf("resident keys %v, want %v", got, tt.resident)
			}
			if got := c.stats().Rejected; got != tt.rejected {
				t.Errorf("Rejected = %d, want %d", got, tt.rejected)
			}
			counts := c.counts()
			if tt.counts != nil && !maps.Equal(counts, tt.counts) {
				t.Errorf("lookup counts %v, want %v", counts, tt.counts)
			}
			if len(counts) > c.freqBound() {
				t.Errorf("count map holds %d keys, bound %d", len(counts), c.freqBound())
			}
			if n := len(c.slots); n > c.freqBound()+capacity {
				t.Errorf("slot map holds %d keys, bound %d", n, c.freqBound()+capacity)
			}
		})
	}
}

// TestResultCacheConcurrent mixes lookups, puts and resets on a small
// cache from several goroutines (run it with -race). Afterwards the
// cache is within its capacity, the count map within its bound, and
// every lookup was counted as exactly one hit or one miss.
func TestResultCacheConcurrent(t *testing.T) {
	const (
		workers = 4
		ops     = 2000
	)
	c := newResultCache(4)
	var lookups atomic.Uint64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ops {
				// Two generations take turns being live, so some puts
				// carry a dead generation's key.
				key := resultKey{gen: uint64(i % 2), query: (w*ops + i) % 7}
				switch {
				case i%97 == 0:
					c.reset(uint64(i / 97 % 2))
				case i%5 == 0:
					c.put(key, &Result{})
				default:
					lookups.Add(1)
					askKey(c, key)
				}
			}
		}()
	}
	wg.Wait()
	st := c.stats()
	if st.Entries > st.Capacity {
		t.Errorf("cache holds %d entries, capacity %d", st.Entries, st.Capacity)
	}
	if n := len(c.counts()); n > c.freqBound() {
		t.Errorf("count map holds %d keys, bound %d", n, c.freqBound())
	}
	if got := st.Hits + st.Misses; got != lookups.Load() {
		t.Errorf("hits + misses = %d, want the %d lookups made", got, lookups.Load())
	}
}

// BenchmarkResultCache times the engine's two paths through a full
// 64-entry cache: a hit, and a miss whose answer is then put, evicting
// the least recently used entry.
func BenchmarkResultCache(b *testing.B) {
	res := &Result{Regions: make([]Region, 4)}
	for i := range res.Regions {
		res.Regions[i] = Region{Min: []float64{0, 0}, Max: []float64{1, 1}}
	}
	key := func(i int) resultKey {
		q := cacheQuery
		q.Seed = uint64(i)
		return cacheKey(0, q)
	}
	full := func() *resultCache {
		c := newResultCache(defaultCacheSize)
		for i := range defaultCacheSize {
			c.get(key(i))
			c.put(key(i), res)
		}
		return c
	}
	b.Run("hit", func(b *testing.B) {
		c := full()
		keys := make([]resultKey, defaultCacheSize)
		for i := range keys {
			keys[i] = key(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.get(keys[i%len(keys)]); !ok {
				b.Fatal("resident key missed")
			}
		}
	})
	b.Run("miss+put", func(b *testing.B) {
		c := full()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := key(defaultCacheSize + i)
			if _, ok := c.get(k); ok {
				b.Fatal("fresh key hit")
			}
			c.put(k, res)
		}
	})
}
