package surf

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestFindContextPreCancelled(t *testing.T) {
	d := crimeGrid(500, 31)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.FindContext(ctx, Query{Threshold: 10, Above: true, UseTrueFunction: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled FindContext returned %v, want context.Canceled", err)
	}
	if _, err := eng.FindTopKContext(ctx, TopKQuery{K: 1, Largest: true, UseTrueFunction: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled FindTopKContext returned %v, want context.Canceled", err)
	}
	if _, err := eng.GenerateWorkloadContext(ctx, 10, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled GenerateWorkloadContext returned %v, want context.Canceled", err)
	}
}

// TestFindContextCancelMidRun cancels a deliberately expensive query
// (true-function mode, the largest allowed iteration budget) shortly
// after it starts and asserts it returns ctx.Err() promptly — within
// one swarm iteration, not after the full budget.
func TestFindContextCancelMidRun(t *testing.T) {
	d := crimeGrid(20000, 32)
	// No grid index: every objective evaluation is an O(N) scan, so a
	// full 10k-iteration run would take tens of seconds.
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = eng.FindContext(ctx, Query{
		Threshold: 100, Above: true, UseTrueFunction: true,
		Iterations: maxSwarm, Seed: 3,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled FindContext returned %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancelled FindContext took %s, want prompt return", elapsed)
	}
}

func TestTrainSurrogateContextCancelled(t *testing.T) {
	d := crimeGrid(1000, 33)
	eng, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	wl, err := eng.GenerateWorkload(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.TrainSurrogateContext(ctx, wl); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled TrainSurrogateContext returned %v, want context.Canceled", err)
	}
	if eng.HasSurrogate() {
		t.Error("cancelled training must not install a surrogate")
	}
}

// TestTrainSurrogateContextCancelMidTrain is the regression test for
// the dropped-context bug: the non-hypertuned TrainSurrogateContext
// used to call core training without the ctx, so cancellation was a
// no-op and a huge fit ran to completion. Now a cancel mid-train must
// return context.Canceled within one boosting round and leave the
// engine's surrogate snapshot — model and provenance — untouched.
func TestTrainSurrogateContextCancelMidTrain(t *testing.T) {
	d := crimeGrid(2000, 36)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Install a small surrogate first so "snapshot unchanged" is
	// observable through predictions and provenance.
	if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 12}); err != nil {
		t.Fatal(err)
	}
	center, half := []float64{0.5, 0.5}, []float64{0.2, 0.2}
	before, err := eng.PredictStatistic(center, half)
	if err != nil {
		t.Fatal(err)
	}
	infoBefore, _ := eng.SurrogateInfo()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = eng.TrainSurrogateContext(ctx, wl, TrainOptions{Trees: 1_000_000})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled TrainSurrogateContext returned %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancelled TrainSurrogateContext took %s, want a within-one-round return", elapsed)
	}
	after, err := eng.PredictStatistic(center, half)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("cancelled training changed predictions: %g -> %g", before, after)
	}
	infoAfter, _ := eng.SurrogateInfo()
	if infoAfter.Trees != infoBefore.Trees || infoAfter.TrainedQueries != infoBefore.TrainedQueries {
		t.Errorf("cancelled training swapped the snapshot: %+v -> %+v", infoBefore, infoAfter)
	}
}

// TestConcurrentFindAndTrain runs Find queries against one engine
// while TrainSurrogate repeatedly swaps the model. Run under
// `go test -race` this asserts the atomic-snapshot design is sound.
func TestConcurrentFindAndTrain(t *testing.T) {
	d := crimeGrid(2000, 34)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(400, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 20}); err != nil {
		t.Fatal(err)
	}

	const queriers = 4
	const trainRounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, queriers*trainRounds+trainRounds)
	stop := make(chan struct{})

	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := eng.Find(Query{
					Threshold: 50, Above: true, Iterations: 10,
					SkipVerify: true, Seed: seed,
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(uint64(i + 1))
	}
	for r := 0; r < trainRounds; r++ {
		if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 10 + r, Seed: uint64(r + 1)}); err != nil {
			errs <- err
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent find/train: %v", err)
	}
}
