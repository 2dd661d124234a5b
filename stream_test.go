package surf

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// trainedEngine builds an engine over the clustered dataset with a
// small trained surrogate — shared fixture for the streaming tests.
func trainedEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	d := crimeGrid(3000, 5)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(800, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 60}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// hotspotQuery targets the planted cluster at (0.7, 0.3).
func hotspotQuery() Query {
	return Query{Threshold: 120, Above: true, Seed: 3, MinSideFrac: 0.05}
}

// sameResult compares everything except the wall-clock field.
func sameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Regions) != len(b.Regions) {
		t.Fatalf("region counts differ: %d vs %d", len(a.Regions), len(b.Regions))
	}
	feq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i := range a.Regions {
		ra, rb := a.Regions[i], b.Regions[i]
		for j := range ra.Min {
			if ra.Min[j] != rb.Min[j] || ra.Max[j] != rb.Max[j] {
				t.Fatalf("region %d bounds differ: %v/%v vs %v/%v", i, ra.Min, ra.Max, rb.Min, rb.Max)
			}
		}
		if !feq(ra.Estimate, rb.Estimate) || !feq(ra.Score, rb.Score) || !feq(ra.TrueValue, rb.TrueValue) ||
			ra.Worms != rb.Worms || ra.Verified != rb.Verified || ra.Satisfies != rb.Satisfies {
			t.Fatalf("region %d differs: %+v vs %+v", i, ra, rb)
		}
	}
	if !feq(a.ValidParticleFraction, b.ValidParticleFraction) {
		t.Fatalf("valid fraction differs: %g vs %g", a.ValidParticleFraction, b.ValidParticleFraction)
	}
	if !feq(a.ComplianceRate, b.ComplianceRate) {
		t.Fatalf("compliance differs: %g vs %g", a.ComplianceRate, b.ComplianceRate)
	}
}

// TestStreamMatchesFind is the differential guarantee: draining a
// stream yields the same Result as the batch Find call on the same
// seed, and the stream's event sequence is well-formed (telemetry
// for every iteration, incumbents before the terminal EventDone that
// carries the final result).
func TestStreamMatchesFind(t *testing.T) {
	// Without a cache both sides mine: a cached engine would answer
	// the stream from the entry Find just filled, with no telemetry.
	eng := trainedEngine(t, WithResultCache(0))
	q := hotspotQuery()

	batch, err := eng.Find(q)
	if err != nil {
		t.Fatal(err)
	}

	st, err := eng.Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var iterations, regions int
	var done *Result
	lastWasDone := false
	for ev, err := range st.Events() {
		if err != nil {
			t.Fatal(err)
		}
		lastWasDone = false
		switch ev := ev.(type) {
		case EventIteration:
			if ev.Iteration != iterations {
				t.Fatalf("iteration %d out of order (want %d)", ev.Iteration, iterations)
			}
			iterations++
		case EventRegion:
			if done != nil {
				t.Fatal("EventRegion after EventDone")
			}
			if len(ev.Region.Min) != 2 || ev.Region.Worms < 1 {
				t.Fatalf("malformed incumbent %+v", ev.Region)
			}
			regions++
		case EventDone:
			done = ev.Result
			lastWasDone = true
		}
	}
	if iterations == 0 || done == nil || !lastWasDone {
		t.Fatalf("stream shape: %d iterations, done=%v (last=%v)", iterations, done != nil, lastWasDone)
	}
	if regions == 0 {
		t.Error("no incumbent regions streamed for the hotspot query")
	}
	streamed, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if streamed != done {
		t.Error("Result() and EventDone disagree")
	}
	sameResult(t, batch, streamed)

	// Exhausted streams keep reporting ErrStreamDone.
	if _, err := st.Next(); !errors.Is(err, ErrStreamDone) {
		t.Errorf("Next after done = %v, want ErrStreamDone", err)
	}
}

// TestStreamTopKMatchesFindTopK is the top-k differential: one
// execution path for FindTopK and StreamTopK.
func TestStreamTopKMatchesFindTopK(t *testing.T) {
	eng := trainedEngine(t)
	q := TopKQuery{K: 3, Largest: true, Seed: 4}
	batch, err := eng.FindTopK(q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.StreamTopK(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, batch, streamed)
}

// waitForGoroutines retries until the goroutine count drops back to
// the baseline (modulo runtime noise), failing after two seconds.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamCancellation cancels after the first incumbent region:
// the stream must end promptly with the context error, surface the
// partial regions, leak no goroutine, and leave the engine reusable.
func TestStreamCancellation(t *testing.T) {
	eng := trainedEngine(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := eng.Stream(ctx, hotspotQuery())
	if err != nil {
		t.Fatal(err)
	}
	sawRegion := false
	for {
		ev, err := st.Next()
		if err != nil {
			if !sawRegion {
				t.Fatalf("stream ended (%v) before any EventRegion", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			break
		}
		if _, ok := ev.(EventRegion); ok && !sawRegion {
			sawRegion = true
			cancel()
		}
		if _, ok := ev.(EventDone); ok {
			t.Fatal("run completed despite cancellation after first region")
		}
	}
	start := time.Now()
	partial, err := st.Result()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Result after cancel took %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Result err = %v, want context.Canceled", err)
	}
	if partial == nil || len(partial.Regions) < 1 {
		t.Fatalf("partial result missing streamed regions: %+v", partial)
	}
	if !math.IsNaN(partial.ComplianceRate) || !math.IsNaN(partial.ValidParticleFraction) {
		t.Error("partial result should not fabricate run-level figures")
	}
	waitForGoroutines(t, baseline)

	// The engine survives a cancelled stream.
	res, err := eng.Find(hotspotQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Error("engine unusable after cancelled stream")
	}
}

// TestStreamEarlyBreak stops consuming via the iterator — Events'
// deferred Close must stop the mining goroutine without a context.
func TestStreamEarlyBreak(t *testing.T) {
	eng := trainedEngine(t)
	baseline := runtime.NumGoroutine()
	st, err := eng.Stream(context.Background(), hotspotQuery())
	if err != nil {
		t.Fatal(err)
	}
	for ev, err := range st.Events() {
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ev.(EventIteration); ok {
			break
		}
	}
	waitForGoroutines(t, baseline)
}

// TestFindManyConcurrentTrain drives FindMany while the surrogate is
// retrained concurrently: every query must complete against the
// snapshot pinned at call time (run under -race in CI).
func TestFindManyConcurrentTrain(t *testing.T) {
	eng := trainedEngine(t)
	queries := make([]Query, 6)
	for i := range queries {
		q := hotspotQuery()
		q.Seed = uint64(i + 1)
		q.Threshold = 100 + 10*float64(i)
		q.SkipVerify = true
		queries[i] = q
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wl, err := eng.GenerateWorkload(200, 11)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 20, Seed: uint64(i + 1)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	seen := map[int]bool{}
	for r := range eng.FindMany(context.Background(), queries) {
		if r.Err != nil {
			t.Fatalf("query %d: %v", r.Index, r.Err)
		}
		if r.Result == nil {
			t.Fatalf("query %d: nil result", r.Index)
		}
		if seen[r.Index] {
			t.Fatalf("query %d delivered twice", r.Index)
		}
		seen[r.Index] = true
	}
	if len(seen) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(seen), len(queries))
	}
	close(stop)
	wg.Wait()
}

// TestFindManyMatchesFind pins FindMany to Find on the snapshot
// semantics: same query, same seed, same result. The result cache is
// off, so FindMany mines instead of copying Find's answer.
func TestFindManyMatchesFind(t *testing.T) {
	eng := trainedEngine(t, WithResultCache(0))
	q := hotspotQuery()
	batch, err := eng.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	for r := range eng.FindMany(context.Background(), []Query{q}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		sameResult(t, batch, r.Result)
	}
}

// TestFindManyEarlyBreak abandons the iteration after the first
// result; the pool must wind down without leaking goroutines.
func TestFindManyEarlyBreak(t *testing.T) {
	eng := trainedEngine(t)
	baseline := runtime.NumGoroutine()
	queries := make([]Query, 8)
	for i := range queries {
		q := hotspotQuery()
		q.Seed = uint64(i + 1)
		q.SkipVerify = true
		queries[i] = q
	}
	for r := range eng.FindMany(context.Background(), queries) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		break
	}
	waitForGoroutines(t, baseline)
}

// TestFindManyCancellation cancels after the first delivery: any
// query that still reports in must carry its error together with a
// non-nil partial result (the documented MultiResult contract).
func TestFindManyCancellation(t *testing.T) {
	eng := trainedEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queries := make([]Query, 4)
	for i := range queries {
		q := hotspotQuery()
		q.Seed = uint64(i + 1)
		q.SkipVerify = true
		queries[i] = q
	}
	delivered := 0
	for r := range eng.FindMany(ctx, queries) {
		delivered++
		if r.Err != nil && r.Result == nil {
			t.Errorf("query %d: error %v without a partial result", r.Index, r.Err)
		}
		cancel()
	}
	if delivered == 0 {
		t.Fatal("no results delivered before cancellation")
	}
}

// TestQueryValidation exercises the centralized validation gate on
// every entry point.
func TestQueryValidation(t *testing.T) {
	eng := trainedEngine(t)
	bad := []Query{
		{Threshold: math.NaN(), Above: true},
		{Threshold: math.Inf(1), Above: true},
		{Threshold: 1, MaxRegions: -1},
		{Threshold: 1, C: -2},
		{Threshold: 1, C: math.Inf(1)},
		{Threshold: 1, MaxSideFrac: math.Inf(1)},
		{Threshold: 1, Glowworms: -5},
		{Threshold: 1, Iterations: -1},
		{Threshold: 1, Workers: -2},
		{Threshold: 1, KDESample: -1},
		{Threshold: 1, UseKDE: true, KDESample: maxSwarm + 1},
		{Threshold: 1, MinSideFrac: -0.1},
		{Threshold: 1, MinSideFrac: 0.2, MaxSideFrac: 0.1},
	}
	for i, q := range bad {
		if _, err := eng.Find(q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("Find(bad[%d]) err = %v, want ErrBadQuery", i, err)
		}
		if _, err := eng.Stream(context.Background(), q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("Stream(bad[%d]) err = %v, want ErrBadQuery", i, err)
		}
		for r := range eng.FindMany(context.Background(), []Query{q}) {
			if !errors.Is(r.Err, ErrBadQuery) {
				t.Errorf("FindMany(bad[%d]) err = %v, want ErrBadQuery", i, r.Err)
			}
		}
	}
	badK := []TopKQuery{
		{K: 0},
		{K: 2, C: -1},
		{K: 2, C: math.Inf(1)},
		{K: 2, Workers: -1},
		{K: 2, MinSideFrac: 0.5, MaxSideFrac: 0.2},
	}
	for i, q := range badK {
		if _, err := eng.FindTopK(q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("FindTopK(badK[%d]) err = %v, want ErrBadQuery", i, err)
		}
		if _, err := eng.StreamTopK(context.Background(), q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("StreamTopK(badK[%d]) err = %v, want ErrBadQuery", i, err)
		}
	}
	// Validation fires before surrogate resolution: a bad query on an
	// untrained engine reports ErrBadQuery, not ErrNoSurrogate.
	d := crimeGrid(200, 9)
	cold, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Find(Query{Threshold: math.NaN()}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("cold engine err = %v, want ErrBadQuery", err)
	}
}
