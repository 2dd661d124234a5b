//go:build amd64 && !amd64.v2 && !race

// These examples print mined regions, so their output is an answer:
// like the golden hashes, it is checked only at GOARCH=amd64 and
// GOAMD64=v1, where the floating-point code is fixed, and not under
// the race detector, which would slow the training tenfold. The setup
// errors they drop would change what they print, so a failing step
// fails its example all the same.

package surf_test

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	surf "surf"
)

func clamp01(v float64) float64 { return math.Min(math.Max(v, 0), 1) }

// Example_quickstart is the minimal SuRF workflow: build a dataset with
// one dense cluster, open an engine for COUNT over (x, y), train the
// surrogate on past region evaluations, and ask for regions holding
// more than 400 points.
func Example_quickstart() {
	// 9,000 points, one third clustered near (0.7, 0.3).
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 9000
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range n {
		if i%3 == 0 {
			xs[i] = clamp01(0.7 + rng.NormFloat64()*0.05)
			ys[i] = clamp01(0.3 + rng.NormFloat64()*0.05)
		} else {
			xs[i], ys[i] = rng.Float64(), rng.Float64()
		}
	}
	ds, _ := surf.NewDataset([]string{"x", "y"}, [][]float64{xs, ys})
	eng, _ := surf.Open(ds, surf.Config{FilterColumns: []string{"x", "y"}, Statistic: surf.Count, UseGridIndex: true})

	ctx := context.Background()
	wl, _ := eng.GenerateWorkloadContext(ctx, 2500, 7)
	_ = eng.TrainSurrogateContext(ctx, wl)

	// MinSideFrac keeps the size regularizer from proposing boxes too
	// small to hold 400 points.
	res, err := eng.FindContext(ctx, surf.Query{Threshold: 400, Above: true, MinSideFrac: 0.05, Seed: 3})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("mined %d regions (%.0f%% verified against the data)\n", len(res.Regions), res.ComplianceRate*100)
	for i, r := range res.Regions {
		fmt.Printf("region %d: x in [%.3f, %.3f], y in [%.3f, %.3f]  estimate=%.0f true=%.0f\n",
			i, r.Min[0], r.Max[0], r.Min[1], r.Max[1], r.Estimate, r.TrueValue)
	}
	// Output:
	// mined 3 regions (100% verified against the data)
	// region 0: x in [0.668, 0.768], y in [0.244, 0.344]  estimate=1157 true=1353
	// region 1: x in [0.590, 0.721], y in [0.233, 0.348]  estimate=863 true=1503
	// region 2: x in [0.613, 0.730], y in [0.283, 0.418]  estimate=769 true=1328
}

// Example_crimeHotspots is the paper's Section V-C crime use case:
// find regions whose incident count exceeds the third quartile of
// random region evaluations (yR = Q3) without scanning the data at
// query time. The incidents are simulated as Gaussian hotspots over a
// uniform background, the multimodal shape of the Chicago extract.
func Example_crimeHotspots() {
	rng := rand.New(rand.NewPCG(7, 7))
	hotspots := [][2]float64{{0.2, 0.25}, {0.5, 0.7}, {0.75, 0.35}, {0.3, 0.8}, {0.85, 0.8}}
	const n = 40000
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range n {
		if rng.Float64() < 0.6 {
			h := hotspots[rng.IntN(len(hotspots))]
			xs[i] = clamp01(h[0] + rng.NormFloat64()*0.04)
			ys[i] = clamp01(h[1] + rng.NormFloat64()*0.04)
		} else {
			xs[i], ys[i] = rng.Float64(), rng.Float64()
		}
	}
	ds, _ := surf.NewDataset([]string{"x", "y"}, [][]float64{xs, ys})
	eng, _ := surf.Open(ds, surf.Config{FilterColumns: []string{"x", "y"}, Statistic: surf.Count, UseGridIndex: true})

	// The past evaluations both train the surrogate and fix yR.
	ctx := context.Background()
	wl, _ := eng.GenerateWorkloadContext(ctx, 4000, 11)
	labels := wl.Labels()
	sort.Float64s(labels)
	yR := labels[len(labels)*3/4]
	fmt.Printf("yR = Q3 of %d random region evaluations = %.0f incidents\n", wl.Len(), yR)
	_ = eng.TrainSurrogateContext(ctx, wl)

	res, err := eng.FindContext(ctx, surf.Query{
		Threshold: yR, Above: true, MinSideFrac: 0.03, MaxRegions: 8, ClusterExtents: true, Seed: 13,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d hotspot regions (%.0f%% verified)\n", len(res.Regions), res.ComplianceRate*100)
	for i, r := range res.Regions {
		cx, cy := (r.Min[0]+r.Max[0])/2, (r.Min[1]+r.Max[1])/2
		nearest, dist := 0, math.Inf(1)
		for j, h := range hotspots {
			if d := math.Hypot(h[0]-cx, h[1]-cy); d < dist {
				nearest, dist = j, d
			}
		}
		fmt.Printf("region %d: x in [%.2f, %.2f], y in [%.2f, %.2f]  true count=%.0f  nearest hotspot #%d (dist %.3f)\n",
			i, r.Min[0], r.Max[0], r.Min[1], r.Max[1], r.TrueValue, nearest, dist)
	}
	// Output:
	// yR = Q3 of 4000 random region evaluations = 1108 incidents
	// 2 hotspot regions (100% verified)
	// region 0: x in [0.43, 0.59], y in [0.57, 0.76]  true count=4884  nearest hotspot #1 (dist 0.035)
	// region 1: x in [0.16, 0.28], y in [0.20, 0.34]  true count=3870  nearest hotspot #0 (dist 0.027)
}

// Example_activityRegions is the paper's Human Activity use case
// (Section V-C): find regions of accelerometer space where the ratio
// of "standing" samples exceeds 30%, although random regions almost
// never do.
func Example_activityRegions() {
	// Class-conditional Gaussians in normalized (ax, ay, az) space;
	// the fifth activity is standing.
	activities := []struct {
		mean          [3]float64
		sigma, weight float64
	}{
		{[3]float64{0.45, 0.55, 0.50}, 0.12, 0.23},  // walking
		{[3]float64{0.55, 0.60, 0.55}, 0.12, 0.18},  // walking upstairs
		{[3]float64{0.50, 0.45, 0.40}, 0.12, 0.18},  // walking downstairs
		{[3]float64{0.25, 0.30, 0.70}, 0.05, 0.17},  // sitting
		{[3]float64{0.80, 0.20, 0.30}, 0.035, 0.08}, // standing
		{[3]float64{0.20, 0.75, 0.20}, 0.05, 0.16},  // laying
	}
	const standing = 4
	rng := rand.New(rand.NewPCG(21, 21))
	const n = 25000
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := range n {
		a, u := len(activities)-1, rng.Float64()
		for k, cum := 0, 0.0; k < len(activities); k++ {
			if cum += activities[k].weight; u < cum {
				a = k
				break
			}
		}
		for j := range 3 {
			cols[j][i] = clamp01(activities[a].mean[j] + rng.NormFloat64()*activities[a].sigma)
		}
		if a == standing {
			cols[3][i] = 1
		}
	}
	ds, _ := surf.NewDataset([]string{"ax", "ay", "az", "stand"}, cols)
	eng, _ := surf.Open(ds, surf.Config{
		FilterColumns: []string{"ax", "ay", "az"}, Statistic: surf.Ratio, TargetColumn: "stand",
	})

	ctx := context.Background()
	wl, _ := eng.GenerateWorkloadContext(ctx, 4000, 23)
	const yR = 0.3
	exceed := 0
	for _, y := range wl.Labels() {
		if y > yR {
			exceed++
		}
	}
	fmt.Printf("P(ratio > %.1f) over %d random regions = %.4f\n", yR, wl.Len(), float64(exceed)/float64(wl.Len()))
	_ = eng.TrainSurrogateContext(ctx, wl)

	// A ratio does not shrink with region size, so mine cluster
	// extents with mild size pressure.
	res, err := eng.FindContext(ctx, surf.Query{
		Threshold: yR, Above: true, C: 1, MinSideFrac: 0.05, MaxSideFrac: 0.2,
		ClusterExtents: true, MaxRegions: 5, Seed: 29,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d standing regions (%.0f%% verified)\n", len(res.Regions), res.ComplianceRate*100)
	for i, r := range res.Regions {
		fmt.Printf("region %d: ax[%.2f,%.2f] ay[%.2f,%.2f] az[%.2f,%.2f]  standing ratio=%.2f\n",
			i, r.Min[0], r.Max[0], r.Min[1], r.Max[1], r.Min[2], r.Max[2], r.TrueValue)
	}
	s := activities[standing]
	fmt.Printf("generating signature was standing ~ N((%.2f, %.2f, %.2f), %.3f)\n", s.mean[0], s.mean[1], s.mean[2], s.sigma)
	// Output:
	// P(ratio > 0.3) over 4000 random regions = 0.0447
	// 1 standing regions (100% verified)
	// region 0: ax[0.52,0.95] ay[0.04,0.50] az[0.07,0.55]  standing ratio=0.53
	// generating signature was standing ~ N((0.80, 0.20, 0.30), 0.035)
}

// Example_classBoundaries is the paper's high-dimensional motivating
// case (Section I-A): in a two-class problem over four features, mine
// boxes where the class-1 ratio exceeds 80%. Each box reads directly
// as a rule, with no dimensionality reduction.
func Example_classBoundaries() {
	// Class 1 fills two disjoint pockets, given as {center, half-side};
	// class 0 is uniform.
	pockets := [][2][4]float64{
		{{0.25, 0.25, 0.5, 0.5}, {0.12, 0.12, 0.2, 0.2}},
		{{0.75, 0.7, 0.5, 0.5}, {0.1, 0.1, 0.2, 0.2}},
	}
	rng := rand.New(rand.NewPCG(31, 31))
	const n, dims = 20000, 4
	cols := make([][]float64, dims+1)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	ones := 0
	for i := range n {
		if rng.Float64() < 0.35 {
			p := pockets[rng.IntN(len(pockets))]
			for j := range dims {
				cols[j][i] = clamp01(p[0][j] + (rng.Float64()*2-1)*p[1][j])
			}
			cols[dims][i] = 1
			ones++
		} else {
			for j := range dims {
				cols[j][i] = rng.Float64()
			}
		}
	}
	fmt.Printf("dataset: %d points, %.0f%% class 1, concentrated in %d pockets\n", n, 100*float64(ones)/n, len(pockets))
	names := []string{"f1", "f2", "f3", "f4"}
	ds, _ := surf.NewDataset(append(names, "class"), cols)
	eng, _ := surf.Open(ds, surf.Config{FilterColumns: names, Statistic: surf.Ratio, TargetColumn: "class"})

	ctx := context.Background()
	wl, _ := eng.GenerateWorkloadContext(ctx, 6000, 37)
	_ = eng.TrainSurrogateContext(ctx, wl, surf.TrainOptions{Trees: 200})

	res, err := eng.FindContext(ctx, surf.Query{
		Threshold: 0.8, Above: true, C: 1, MinSideFrac: 0.05, MaxSideFrac: 0.25,
		ClusterExtents: true, MaxRegions: 6, Glowworms: 600, Iterations: 150, Seed: 41,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d class-1 regions (%.0f%% verified)\n", len(res.Regions), res.ComplianceRate*100)
	for i, r := range res.Regions {
		fmt.Printf("rule %d (class-1 ratio %.2f): IF", i, r.TrueValue)
		for j, name := range names {
			if j > 0 {
				fmt.Print(" AND")
			}
			fmt.Printf(" %s in [%.2f, %.2f]", name, r.Min[j], r.Max[j])
		}
		fmt.Println(" THEN class=1")
	}
	// Output:
	// dataset: 20000 points, 35% class 1, concentrated in 2 pockets
	// 2 class-1 regions (100% verified)
	// rule 0 (class-1 ratio 0.89): IF f1 in [0.18, 0.52] AND f2 in [0.11, 0.47] AND f3 in [0.28, 0.43] AND f4 in [0.38, 0.62] THEN class=1
	// rule 1 (class-1 ratio 0.93): IF f1 in [0.62, 0.96] AND f2 in [0.53, 0.87] AND f3 in [0.50, 0.64] AND f4 in [0.38, 0.63] THEN class=1
}

// spreadEngine is the engine ExampleEngine_Stream and
// ExampleEngine_FindMany mine: 8,000 points whose v column is wildly
// spread inside [0.6,0.8]×[0.2,0.4] and nearly constant elsewhere,
// under a custom "spread" statistic (max−min of v), with a trained
// surrogate. Registration is process-wide, so both share one.
var spreadEngine = sync.OnceValue(func() *surf.Engine {
	rng := rand.New(rand.NewPCG(7, 2))
	const n = 8000
	xs, ys, vs := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range n {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
		if xs[i] > 0.6 && xs[i] < 0.8 && ys[i] > 0.2 && ys[i] < 0.4 {
			vs[i] = rng.Float64() * 100
		} else {
			vs[i] = 50 + rng.Float64()
		}
	}
	ds, _ := surf.NewDataset([]string{"x", "y", "v"}, [][]float64{xs, ys, vs})
	spread, _ := surf.CustomStatistic("spread", func(rows [][]float64) float64 {
		if len(rows) == 0 {
			return math.NaN()
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			lo, hi = math.Min(lo, r[2]), math.Max(hi, r[2])
		}
		return hi - lo
	})
	eng, _ := surf.Open(ds, surf.Config{FilterColumns: []string{"x", "y"}, Statistic: spread, UseGridIndex: true})
	wl, _ := eng.GenerateWorkload(2000, 1)
	_ = eng.TrainSurrogate(wl)
	return eng
})

// ExampleEngine_Stream mines a region query progressively: incumbent
// regions print the moment their swarm cluster stabilizes, and the
// final ranked result arrives as EventDone — identical to what the
// blocking Find call would have returned.
func ExampleEngine_Stream() {
	eng := spreadEngine()
	st, err := eng.Stream(context.Background(), surf.Query{Threshold: 80, Above: true, Seed: 3, MinSideFrac: 0.05})
	if err != nil {
		fmt.Println(err)
		return
	}
	for ev, err := range st.Events() {
		if err != nil {
			fmt.Println("stream failed:", err)
			return
		}
		switch ev := ev.(type) {
		case surf.EventRegion:
			fmt.Printf("incumbent (iter %d): x∈[%.2f,%.2f] y∈[%.2f,%.2f] spread≈%.1f\n",
				ev.Iteration, ev.Region.Min[0], ev.Region.Max[0], ev.Region.Min[1], ev.Region.Max[1], ev.Region.Estimate)
		case surf.EventDone:
			fmt.Printf("converged: %d regions, %.0f%% verified compliant\n",
				len(ev.Result.Regions), ev.Result.ComplianceRate*100)
		}
	}
	// Output:
	// incumbent (iter 19): x∈[0.71,0.81] y∈[0.17,0.27] spread≈96.0
	// incumbent (iter 19): x∈[0.63,0.77] y∈[0.16,0.29] spread≈97.9
	// incumbent (iter 19): x∈[0.59,0.74] y∈[0.27,0.40] spread≈98.6
	// incumbent (iter 19): x∈[0.72,0.87] y∈[0.21,0.34] spread≈93.5
	// incumbent (iter 19): x∈[0.49,0.72] y∈[0.17,0.30] spread≈98.4
	// incumbent (iter 19): x∈[0.73,0.94] y∈[0.30,0.43] spread≈95.8
	// incumbent (iter 19): x∈[0.48,0.70] y∈[0.28,0.44] spread≈97.7
	// incumbent (iter 19): x∈[0.67,0.84] y∈[0.07,0.28] spread≈97.9
	// incumbent (iter 39): x∈[0.65,0.87] y∈[0.36,0.50] spread≈83.0
	// incumbent (iter 79): x∈[0.70,0.80] y∈[0.28,0.40] spread≈97.5
	// converged: 4 regions, 100% verified compliant
}

// ExampleEngine_FindMany runs a batch of thresholds over one pinned
// surrogate snapshot. Results arrive in completion order; each carries
// its query's index.
func ExampleEngine_FindMany() {
	eng := spreadEngine()
	queries := make([]surf.Query, 4)
	for i := range queries {
		queries[i] = surf.Query{
			Threshold: 60 + 10*float64(i), Above: true, Seed: uint64(i + 1), MinSideFrac: 0.05, SkipVerify: true,
		}
	}
	regions := make([]int, len(queries))
	for r := range eng.FindMany(context.Background(), queries) {
		if r.Err != nil {
			fmt.Println(r.Err)
			return
		}
		regions[r.Index] = len(r.Result.Regions)
	}
	for i, q := range queries {
		fmt.Printf("threshold %.0f: %d regions\n", q.Threshold, regions[i])
	}
	// Output:
	// threshold 60: 5 regions
	// threshold 70: 1 regions
	// threshold 80: 4 regions
	// threshold 90: 4 regions
}
