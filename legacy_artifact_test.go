//go:build amd64 && !amd64.v2

// Bit-for-bit prediction equality between a checked-in artifact and a
// fresh train holds only where training rounds alike, so this file
// builds only at GOAMD64=v1 on amd64, like golden_test.go.

package surf

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// legacyArtifactPath holds a surrogate written by SaveSurrogate before
// gbt.Params lost its unused settings (Gamma, MinChildWeight,
// Subsample, ColSample, EarlyStopping) and the wire form lost
// BestRound. It is never regenerated: it stands for the artifacts
// deployments already hold.
const legacyArtifactPath = "testdata/legacy_surrogate.surf"

var legacyConfig = Config{FilterColumns: []string{"x", "y"}, Statistic: Count}

// legacyArtifactEngine trains the surrogate the checked-in artifact
// was written from: 10 trees of depth 3 on a seeded workload.
func legacyArtifactEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := Open(crimeGrid(3000, 41), legacyConfig)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(400, 43)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 10, MaxDepth: 3, Seed: 47}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// legacyProbeGrid is a fixed grid of [cx, cy, lx, ly] probes: 9×9
// centers over the unit square at three half-side widths.
func legacyProbeGrid() [][]float64 {
	var rows [][]float64
	for i := 0; i <= 8; i++ {
		for j := 0; j <= 8; j++ {
			for _, l := range []float64{0.01, 0.05, 0.15} {
				rows = append(rows, []float64{float64(i) / 8, float64(j) / 8, l, l * 0.5})
			}
		}
	}
	return rows
}

// TestLegacyArtifactMatchesFreshTrain loads the checked-in artifact
// and requires its predictions to equal, bit for bit, those of the
// same surrogate trained by this code from the same seed and workload.
func TestLegacyArtifactMatchesFreshTrain(t *testing.T) {
	raw, err := os.ReadFile(legacyArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(crimeGrid(3000, 41), legacyConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadSurrogate(bytes.NewReader(raw)); err != nil {
		t.Fatalf("load %s: %v", legacyArtifactPath, err)
	}
	info, _ := loaded.SurrogateInfo()
	if info.Trees != 10 {
		t.Fatalf("loaded artifact has %d trees, want 10", info.Trees)
	}
	fresh := legacyArtifactEngine(t)

	rows := legacyProbeGrid()
	want := make([]float64, len(rows))
	got := make([]float64, len(rows))
	if err := fresh.PredictStatisticBatch(rows, want); err != nil {
		t.Fatal(err)
	}
	if err := loaded.PredictStatisticBatch(rows, got); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("probe %v: artifact predicts %v, a fresh train %v", rows[i], got[i], want[i])
		}
	}
}
