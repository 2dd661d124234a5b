// Crime hotspots: the paper's Section V-C use case. Given spatial
// crime incidents, find regions whose incident count exceeds the third
// quartile of random region evaluations (yR = Q3) — "areas worth
// looking into" — without scanning the data at query time.
//
// The incident data is simulated as Gaussian hotspots over a uniform
// background (the real Chicago Crimes extract is not redistributable;
// the simulator has the same multimodal structure).
//
// Run with: go run ./examples/crimehotspots
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"os"
	"os/signal"
	"sort"
	"syscall"

	surf "surf"
)

func main() {
	// Ctrl-C cancels the pipeline mid-swarm-iteration; unregistering
	// on the first signal lets a second Ctrl-C kill the process even
	// during an uncancellable phase (e.g. a boosted-tree fit).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() { <-ctx.Done(); stop() }()

	// --- Simulate a city's incident map: 5 hotspots + background.
	rng := rand.New(rand.NewPCG(7, 7))
	hotspots := [][2]float64{{0.2, 0.25}, {0.5, 0.7}, {0.75, 0.35}, {0.3, 0.8}, {0.85, 0.8}}
	const n = 40000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.6 {
			h := hotspots[rng.IntN(len(hotspots))]
			xs[i] = clamp01(h[0] + rng.NormFloat64()*0.04)
			ys[i] = clamp01(h[1] + rng.NormFloat64()*0.04)
		} else {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
	}
	ds, err := surf.NewDataset([]string{"x", "y"}, [][]float64{xs, ys})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := surf.Open(ds, surf.Config{
		FilterColumns: []string{"x", "y"},
		Statistic:     surf.Count,
		UseGridIndex:  true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- Past evaluations: train the surrogate and derive yR = Q3.
	wl, err := eng.GenerateWorkloadContext(ctx, 4000, 11)
	if err != nil {
		log.Fatal(err)
	}
	labels := wl.Labels()
	sort.Float64s(labels)
	yR := labels[len(labels)*3/4]
	fmt.Printf("threshold yR = Q3 of %d random region evaluations = %.0f incidents\n", wl.Len(), yR)

	if err := eng.TrainSurrogateContext(ctx, wl); err != nil {
		log.Fatal(err)
	}

	// --- Mine hotspot regions and verify them against the data. The
	// query pins the just-trained surrogate snapshot, so it is
	// unaffected by any concurrent retraining on the engine.
	res, err := eng.FindContext(ctx, surf.Query{
		Threshold:      yR,
		Above:          true,
		MinSideFrac:    0.03,
		MaxRegions:     8,
		ClusterExtents: true,
		Seed:           13,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("found %d candidate hotspot regions (%.0f%% verified, %.2fs)\n",
		len(res.Regions), res.ComplianceRate*100, res.ElapsedSeconds)
	for i, r := range res.Regions {
		cx, cy := (r.Min[0]+r.Max[0])/2, (r.Min[1]+r.Max[1])/2
		nearest, dist := nearestHotspot(hotspots, cx, cy)
		fmt.Printf("  region %d: x in [%.2f, %.2f], y in [%.2f, %.2f]  true count=%.0f  nearest hotspot #%d (dist %.3f)\n",
			i, r.Min[0], r.Max[0], r.Min[1], r.Max[1], r.TrueValue, nearest, dist)
	}
}

func nearestHotspot(hotspots [][2]float64, x, y float64) (idx int, best float64) {
	best = 2
	for i, h := range hotspots {
		d := math.Hypot(h[0]-x, h[1]-y)
		if d < best {
			best = d
			idx = i
		}
	}
	return idx, best
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
