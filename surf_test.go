package surf

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

// crimeGrid builds a small spatial dataset with one dense cluster at
// (0.7, 0.3) over a uniform background.
func crimeGrid(n int, seed uint64) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 99))
	xs := make([]float64, 0, n)
	ys := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 { // dense cluster
			xs = append(xs, clamp01(0.7+rng.NormFloat64()*0.05))
			ys = append(ys, clamp01(0.3+rng.NormFloat64()*0.05))
		} else {
			xs = append(xs, rng.Float64())
			ys = append(ys, rng.Float64())
		}
	}
	d, err := NewDataset([]string{"x", "y"}, [][]float64{xs, ys})
	if err != nil {
		panic(err)
	}
	return d
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

func TestStatisticStringAndParse(t *testing.T) {
	for _, s := range []Statistic{Count, Sum, Mean, Min, Max, Median, Variance, StdDev, Ratio} {
		name := s.String()
		back, err := ParseStatistic(name)
		if err != nil {
			t.Fatalf("ParseStatistic(%q): %v", name, err)
		}
		if back != s {
			t.Errorf("round trip %v -> %q -> %v", s, name, back)
		}
	}
	if _, err := ParseStatistic("nope"); err == nil {
		t.Error("expected error for unknown statistic")
	}
	if Statistic(99).String() != "Statistic(99)" {
		t.Error("unknown statistic string wrong")
	}
}

func TestNewDatasetAndAccessors(t *testing.T) {
	d, err := NewDataset([]string{"a", "b"}, [][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if got := d.Column("b"); got[1] != 4 {
		t.Errorf("Column(b) = %v", got)
	}
	if d.Column("zzz") != nil {
		t.Error("missing column should be nil")
	}
	// Column returns a copy.
	col := d.Column("a")
	col[0] = 99
	if d.Column("a")[0] == 99 {
		t.Error("Column must return a copy")
	}
	if _, err := NewDataset([]string{"a"}, [][]float64{{1}, {2}}); err == nil {
		t.Error("expected shape error")
	}
}

func TestDatasetCSVRoundTrip(t *testing.T) {
	d, _ := NewDataset([]string{"a", "b"}, [][]float64{{1.5, 2.5}, {3, 4}})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Column("a")[0] != 1.5 {
		t.Error("round trip mismatch")
	}
}

func TestOpenValidation(t *testing.T) {
	d := crimeGrid(100, 1)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no filters", Config{Statistic: Count}},
		{"bad filter", Config{FilterColumns: []string{"zzz"}, Statistic: Count}},
		{"bad stat", Config{FilterColumns: []string{"x"}, Statistic: Statistic(99)}},
		{"missing target", Config{FilterColumns: []string{"x"}, Statistic: Mean, TargetColumn: "zzz"}},
		{"target is filter", Config{FilterColumns: []string{"x", "y"}, Statistic: Mean, TargetColumn: "y"}},
	}
	for _, c := range cases {
		if _, err := Open(d, c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := Open(nil, Config{}); err == nil {
		t.Error("nil dataset: expected error")
	}
}

func TestEngineEvaluate(t *testing.T) {
	d := crimeGrid(3000, 2)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Dims() != 2 {
		t.Errorf("Dims = %d", eng.Dims())
	}
	min, max := eng.Domain()
	if len(min) != 2 || len(max) != 2 {
		t.Fatal("domain shape wrong")
	}
	// Whole-domain count equals the dataset size. Pad the half-sides
	// slightly: (min+max)/2 ± (max−min)/2 need not reproduce the
	// exact bounds in floating point.
	center := []float64{(min[0] + max[0]) / 2, (min[1] + max[1]) / 2}
	half := []float64{(max[0]-min[0])/2 + 1e-9, (max[1]-min[1])/2 + 1e-9}
	y, n := eng.Evaluate(center, half)
	if int(y) != d.Len() || n != d.Len() {
		t.Errorf("whole-domain count = %g (n=%d), want %d", y, n, d.Len())
	}
}

func TestEngineGridIndexAgreesWithScan(t *testing.T) {
	d := crimeGrid(5000, 3)
	scan, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	grid, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	rng := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 40; trial++ {
		c := []float64{rng.Float64(), rng.Float64()}
		h := []float64{rng.Float64() * 0.2, rng.Float64() * 0.2}
		ys, _ := scan.Evaluate(c, h)
		yg, _ := grid.Evaluate(c, h)
		if ys != yg {
			t.Fatalf("scan %g != grid %g at %v±%v", ys, yg, c, h)
		}
	}
}

func TestEndToEndCountQuery(t *testing.T) {
	d := crimeGrid(9000, 5)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(2500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Len() != 2500 {
		t.Fatalf("workload len = %d", wl.Len())
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 150}); err != nil {
		t.Fatal(err)
	}
	if !eng.HasSurrogate() {
		t.Fatal("surrogate missing after training")
	}
	// The cluster at (0.7, 0.3) holds ~1/3 of 9000 points within
	// ±0.15; a threshold of 400 is clearly interesting. The minimum
	// side keeps the size regularizer from shrinking regions below
	// the scale where ~400 points can actually fit.
	res, err := eng.Find(Query{Threshold: 400, Above: true, Seed: 3, MinSideFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("no regions found")
	}
	// Regions should verify and cluster near the hotspot.
	if res.ComplianceRate < 0.5 {
		t.Errorf("compliance = %g, want >= 0.5", res.ComplianceRate)
	}
	found := false
	for _, r := range res.Regions {
		cx := (r.Min[0] + r.Max[0]) / 2
		cy := (r.Min[1] + r.Max[1]) / 2
		if math.Abs(cx-0.7) < 0.2 && math.Abs(cy-0.3) < 0.2 {
			found = true
		}
		if !r.Verified {
			t.Error("region missing verification")
		}
	}
	if !found {
		t.Error("no region near the planted hotspot")
	}
	if res.ElapsedSeconds <= 0 {
		t.Error("elapsed not recorded")
	}
	top, err := eng.FindTopK(TopKQuery{K: 2, Largest: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if top.ElapsedSeconds <= 0 {
		t.Error("top-k elapsed not recorded")
	}
}

func TestFindRequiresSurrogateOrTrueFn(t *testing.T) {
	d := crimeGrid(500, 6)
	eng, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if _, err := eng.Find(Query{Threshold: 10, Above: true}); err == nil {
		t.Error("expected error without surrogate")
	}
	// f+GlowWorm mode works without training.
	res, err := eng.Find(Query{Threshold: 50, Above: true, UseTrueFunction: true, Iterations: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Error("true-function mode found nothing")
	}
}

func TestSurrogateSaveLoadThroughEngine(t *testing.T) {
	d := crimeGrid(3000, 8)
	eng, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	wl, _ := eng.GenerateWorkload(800, 9)
	if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 50}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveSurrogate(&buf); err != nil {
		t.Fatal(err)
	}
	eng2, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err := eng2.LoadSurrogate(&buf); err != nil {
		t.Fatal(err)
	}
	p1, _ := eng.PredictStatistic([]float64{0.7, 0.3}, []float64{0.1, 0.1})
	p2, _ := eng2.PredictStatistic([]float64{0.7, 0.3}, []float64{0.1, 0.1})
	if p1 != p2 {
		t.Error("prediction changed across save/load")
	}
	// Dimension guard: a 1-dim engine must reject this surrogate.
	eng1d, _ := Open(d, Config{FilterColumns: []string{"x"}, Statistic: Count})
	var buf2 bytes.Buffer
	_ = eng.SaveSurrogate(&buf2)
	if err := eng1d.LoadSurrogate(&buf2); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestSaveSurrogateWithoutTraining(t *testing.T) {
	d := crimeGrid(100, 10)
	eng, _ := Open(d, Config{FilterColumns: []string{"x"}, Statistic: Count})
	if err := eng.SaveSurrogate(&bytes.Buffer{}); err == nil {
		t.Error("expected error")
	}
	if _, err := eng.PredictStatistic([]float64{0.5}, []float64{0.1}); err == nil {
		t.Error("expected error")
	}
}

// TestTrainSurrogateHyperTune runs the paper's 144-combination
// GridSearchCV end to end through the engine and pins its choice, so
// a change to the grid order, the fold shuffles or the tie rule shows
// up as a different winner.
func TestTrainSurrogateHyperTune(t *testing.T) {
	if raceEnabled {
		t.Skip("144 cross-validated fits are too slow under -race")
	}
	eng, err := Open(crimeGrid(1500, 21), Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{HyperTune: true, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	info, ok := eng.SurrogateInfo()
	if !ok || !info.HyperTuned {
		t.Fatalf("info = %+v (ok=%v), want a hyper-tuned surrogate", info, ok)
	}
	if info.Trees != 100 || info.MaxDepth != 7 || info.LearningRate != 0.001 || info.Lambda != 1 {
		t.Errorf("tuned to trees=%d depth=%d rate=%g lambda=%g, want 100/7/0.001/1",
			info.Trees, info.MaxDepth, info.LearningRate, info.Lambda)
	}
}

func TestWorkloadCSVRoundTrip(t *testing.T) {
	d := crimeGrid(1000, 11)
	eng, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	wl, _ := eng.GenerateWorkload(50, 12)
	var buf bytes.Buffer
	if err := wl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadWorkloadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 50 {
		t.Errorf("round trip len = %d", back.Len())
	}
	// A model trained on the round-tripped log behaves identically.
	if err := eng.TrainSurrogate(back, TrainOptions{Trees: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestFindBelowDirection(t *testing.T) {
	d := crimeGrid(6000, 13)
	eng, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	res, err := eng.Find(Query{Threshold: 20, Above: false, UseTrueFunction: true, Iterations: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Regions {
		if r.Verified && r.TrueValue >= 20 {
			t.Errorf("Below query returned region with count %g >= 20", r.TrueValue)
		}
	}
}

func TestFindWithKDE(t *testing.T) {
	d := crimeGrid(4000, 14)
	eng, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	res, err := eng.Find(Query{
		Threshold: 200, Above: true, UseTrueFunction: true,
		UseKDE: true, KDESample: 200, Iterations: 50, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Error("KDE run found nothing")
	}
}

func TestSkipVerify(t *testing.T) {
	d := crimeGrid(2000, 15)
	eng, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count})
	res, err := eng.Find(Query{Threshold: 50, Above: true, UseTrueFunction: true, Iterations: 30, SkipVerify: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.ComplianceRate) {
		t.Errorf("ComplianceRate = %g, want NaN when verification skipped", res.ComplianceRate)
	}
	for _, r := range res.Regions {
		if r.Verified {
			t.Error("region verified despite SkipVerify")
		}
	}
}

func TestMeanStatisticQuery(t *testing.T) {
	// Value column elevated inside x ∈ [0.4, 0.6].
	rng := rand.New(rand.NewPCG(16, 16))
	n := 5000
	xs := make([]float64, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		if xs[i] > 0.4 && xs[i] < 0.6 {
			vals[i] = 3 + rng.NormFloat64()*0.3
		} else {
			vals[i] = rng.NormFloat64()
		}
	}
	d, _ := NewDataset([]string{"x", "v"}, [][]float64{xs, vals})
	eng, err := Open(d, Config{FilterColumns: []string{"x"}, Statistic: Mean, TargetColumn: "v"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Find(Query{Threshold: 2, Above: true, UseTrueFunction: true, Iterations: 80, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("no regions found")
	}
	best := res.Regions[0]
	c := (best.Min[0] + best.Max[0]) / 2
	if c < 0.35 || c > 0.65 {
		t.Errorf("best region center %g outside the elevated band", c)
	}
}

func TestFindTopK(t *testing.T) {
	d := crimeGrid(6000, 21)
	eng, err := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without surrogate or UseTrueFunction: error.
	if _, err := eng.FindTopK(TopKQuery{K: 2, Largest: true}); err == nil {
		t.Error("expected error without surrogate")
	}
	res, err := eng.FindTopK(TopKQuery{K: 2, Largest: true, UseTrueFunction: true, Iterations: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 || len(res.Regions) > 2 {
		t.Fatalf("got %d regions for K=2", len(res.Regions))
	}
	// The best region must sit on the dense cluster at (0.7, 0.3).
	best := res.Regions[0]
	cx := (best.Min[0] + best.Max[0]) / 2
	cy := (best.Min[1] + best.Max[1]) / 2
	if math.Abs(cx-0.7) > 0.2 || math.Abs(cy-0.3) > 0.2 {
		t.Errorf("top-1 center (%g, %g), want near (0.7, 0.3)", cx, cy)
	}
	if !best.Verified {
		t.Error("region not verified")
	}
	// Descending order by estimate.
	for i := 1; i < len(res.Regions); i++ {
		if res.Regions[i].Estimate > res.Regions[i-1].Estimate {
			t.Error("regions not ordered by estimate")
		}
	}
}

func TestFindTopKSurrogateAndSkipVerify(t *testing.T) {
	d := crimeGrid(6000, 22)
	eng, _ := Open(d, Config{FilterColumns: []string{"x", "y"}, Statistic: Count, UseGridIndex: true})
	wl, _ := eng.GenerateWorkload(1500, 23)
	if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 80}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.FindTopK(TopKQuery{K: 3, Largest: true, SkipVerify: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("no regions")
	}
	for _, r := range res.Regions {
		if r.Verified {
			t.Error("region verified despite SkipVerify")
		}
	}
}
