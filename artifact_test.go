package surf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// targetGrid is crimeGrid plus a value column, for specs that need a
// target.
func targetGrid(n int, seed uint64) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 7))
	xs := make([]float64, n)
	ys := make([]float64, n)
	vs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
		vs[i] = 5 + 3*xs[i] + rng.NormFloat64()
	}
	d, err := NewDataset([]string{"x", "y", "v"}, [][]float64{xs, ys, vs})
	if err != nil {
		panic(err)
	}
	return d
}

// trainedEngine opens an engine over d and trains a small surrogate.
func artifactEngine(t *testing.T, d *Dataset, cfg Config) *Engine {
	t.Helper()
	eng, err := Open(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := eng.GenerateWorkload(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TrainSurrogate(wl, TrainOptions{Trees: 20}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// probeRows builds a deterministic batch of [center..., halfSides...]
// probe rows spanning the unit domain.
func artifactProbeRows(dims, n int) [][]float64 {
	rng := rand.New(rand.NewPCG(42, 1))
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, 2*dims)
		for j := 0; j < dims; j++ {
			row[j] = rng.Float64()
			row[dims+j] = 0.01 + 0.14*rng.Float64()
		}
		rows[i] = row
	}
	return rows
}

// TestArtifactRoundTripBitIdentical is the tentpole acceptance test:
// a save→load cycle through the engine artifact must reproduce
// PredictStatisticBatch output bit for bit, and carry the provenance
// across.
func TestArtifactRoundTripBitIdentical(t *testing.T) {
	d := targetGrid(2000, 5)
	cfg := Config{FilterColumns: []string{"x", "y"}, Statistic: Mean, TargetColumn: "v"}
	eng := artifactEngine(t, d, cfg)

	var buf bytes.Buffer
	if err := eng.SaveSurrogate(&buf); err != nil {
		t.Fatal(err)
	}
	eng2, err := Open(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.LoadSurrogate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	rows := artifactProbeRows(2, 512)
	want := make([]float64, len(rows))
	got := make([]float64, len(rows))
	if err := eng.PredictStatisticBatch(rows, want); err != nil {
		t.Fatal(err)
	}
	if err := eng2.PredictStatisticBatch(rows, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("probe %d: %v before save, %v after load", i, want[i], got[i])
		}
	}

	info, ok := eng2.SurrogateInfo()
	if !ok {
		t.Fatal("no SurrogateInfo after load")
	}
	orig, _ := eng.SurrogateInfo()
	if info.Statistic != "mean" || info.TargetColumn != "v" {
		t.Errorf("info spec = %q/%q", info.Statistic, info.TargetColumn)
	}
	if len(info.FilterColumns) != 2 || info.FilterColumns[0] != "x" || info.FilterColumns[1] != "y" {
		t.Errorf("info filter columns = %v", info.FilterColumns)
	}
	if info.TrainedQueries != orig.TrainedQueries || info.Trees != orig.Trees {
		t.Errorf("training metadata changed across save/load: %+v vs %+v", info, orig)
	}
	if info.TrainedQueries == 0 || info.Trees == 0 || info.LearningRate == 0 {
		t.Errorf("training metadata not populated: %+v", info)
	}
	if len(info.DomainMin) != 2 || len(info.DomainMax) != 2 {
		t.Errorf("domain not carried: %+v", info)
	}
}

// TestArtifactSpecMismatch covers the graceful rejections: wrong
// statistic, wrong filter columns, wrong target, all without
// clobbering the destination engine's current surrogate.
func TestArtifactSpecMismatch(t *testing.T) {
	d := targetGrid(1500, 6)
	eng := artifactEngine(t, d, Config{FilterColumns: []string{"x", "y"}, Statistic: Mean, TargetColumn: "v"})
	var buf bytes.Buffer
	if err := eng.SaveSurrogate(&buf); err != nil {
		t.Fatal(err)
	}
	art := buf.Bytes()

	cases := []struct {
		name string
		cfg  Config
	}{
		{"different statistic", Config{FilterColumns: []string{"x", "y"}, Statistic: Sum, TargetColumn: "v"}},
		{"different filter order", Config{FilterColumns: []string{"y", "x"}, Statistic: Mean, TargetColumn: "v"}},
		{"different filter set", Config{FilterColumns: []string{"x", "v"}, Statistic: Mean, TargetColumn: "y"}},
		{"different target", Config{FilterColumns: []string{"x"}, Statistic: Mean, TargetColumn: "y"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst, err := Open(d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = dst.LoadSurrogate(bytes.NewReader(art))
			if !errors.Is(err, ErrBadArtifact) {
				t.Fatalf("got %v, want ErrBadArtifact", err)
			}
			if dst.HasSurrogate() {
				t.Error("rejected load left a surrogate behind")
			}
		})
	}

	t.Run("rejection preserves current surrogate", func(t *testing.T) {
		dst := artifactEngine(t, d, Config{FilterColumns: []string{"x", "y"}, Statistic: Sum, TargetColumn: "v"})
		before, _ := dst.SurrogateInfo()
		if err := dst.LoadSurrogate(bytes.NewReader(art)); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("got %v, want ErrBadArtifact", err)
		}
		after, ok := dst.SurrogateInfo()
		if !ok || after.Statistic != before.Statistic {
			t.Error("failed load disturbed the engine's surrogate")
		}
	})
}

// TestArtifactCustomStatistic round-trips an artifact for a custom
// statistic and proves the unregistered-statistic rejection message
// says how to fix it. Registration is process-wide, so the
// "unregistered" half simulates a fresh process by rewriting the
// artifact's statistic name to one never registered here.
func TestArtifactCustomStatistic(t *testing.T) {
	spread, err := CustomStatistic("artifact_test_spread", func(rows [][]float64) float64 {
		if len(rows) == 0 {
			return math.NaN()
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			lo = math.Min(lo, r[2])
			hi = math.Max(hi, r[2])
		}
		return hi - lo
	})
	if err != nil {
		t.Fatal(err)
	}
	d := targetGrid(1200, 8)
	cfg := Config{FilterColumns: []string{"x", "y"}, Statistic: spread}
	eng := artifactEngine(t, d, cfg)
	var buf bytes.Buffer
	if err := eng.SaveSurrogate(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := Open(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadSurrogate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("registered custom statistic failed to load: %v", err)
	}
	info, _ := dst.SurrogateInfo()
	if info.Statistic != "artifact_test_spread" {
		t.Errorf("info.Statistic = %q", info.Statistic)
	}

	// Simulate loading in a process that never registered the name.
	tampered := reseal(t, bytes.Replace(buf.Bytes(),
		[]byte("artifact_test_spread"), []byte("artifact_test_sproad"), -1))
	err = dst.LoadSurrogate(bytes.NewReader(tampered))
	if !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("got %v, want ErrBadArtifact", err)
	}
	if !strings.Contains(err.Error(), "CustomStatistic") {
		t.Errorf("error %q does not mention how to register the statistic", err)
	}
}

// TestArtifactCorruptAndVersion covers the byte-level rejections:
// truncation, garbage, a flipped version, the retired pre-artifact
// "surfmodel" format, and flipped bytes the version-2 checksum
// catches. Every row but the version-1 model flip is malformed before
// the ensemble is decoded, so ReadSurrogateInfo must reject it too.
func TestArtifactCorruptAndVersion(t *testing.T) {
	d := crimeGrid(1000, 4)
	cfg := Config{FilterColumns: []string{"x", "y"}, Statistic: Count}
	eng := artifactEngine(t, d, cfg)
	var buf bytes.Buffer
	if err := eng.SaveSurrogate(&buf); err != nil {
		t.Fatal(err)
	}
	art := buf.Bytes()
	header, body, ok := bytes.Cut(art, []byte("\n"))
	if !ok || !bytes.HasPrefix(header, []byte("surfengine 2 ")) {
		t.Fatalf("artifact header %q, want a version-2 header", header)
	}
	// The same envelope under a version-1 header: no checksum.
	v1 := append([]byte("surfengine 1\n"), body...)
	var model bytes.Buffer
	if err := eng.surrogate.Load().surr.Model().Save(&model); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(art, model.Bytes())
	if at < 0 {
		t.Fatal("ensemble bytes not found in the artifact")
	}
	mid := at + model.Len()/2
	dst, err := Open(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadSurrogate(bytes.NewReader(v1)); err != nil {
		t.Fatalf("version-1 artifact: %v", err)
	}
	for _, tc := range []struct {
		name      string
		data      []byte
		modelOnly bool // only the full load decodes the ensemble bytes
	}{
		{"empty", nil, false},
		{"garbage", []byte("definitely not an artifact"), false},
		{"truncated header", art[:5], false},
		{"truncated envelope", art[:len(art)/2], false},
		{"future version", bytes.Replace(art, []byte("surfengine 2 "), []byte("surfengine 9 "), 1), false},
		{"legacy header", append([]byte("surfmodel 2\n"), body...), false},
		{"version 1 with checksum", append(append([]byte("surfengine 1 "), header[len("surfengine 2 "):]...), art[len(header):]...), false},
		{"version 2 without checksum", append([]byte("surfengine 2\n"), body...), false},
		{"bad checksum digits", append([]byte("surfengine 2 zzzzzzzz\n"), body...), false},
		{"flip in mid ensemble", flipByte(art, mid), false},
		// The ensemble bytes end the envelope, and NumFeat ends the
		// ensemble: the artifact closes with NumFeat's value byte, the
		// ensemble's end marker and the envelope's.
		{"bit flip in model", flipByte(art, len(art)-3), false},
		// Without a checksum, flipping that value byte leaves the
		// envelope intact but the ensemble undecodable.
		{"version 1 bit flip in model", flipByte(v1, len(v1)-3), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := dst.LoadSurrogate(bytes.NewReader(tc.data)); !errors.Is(err, ErrBadArtifact) {
				t.Fatalf("LoadSurrogate: got %v, want ErrBadArtifact", err)
			}
			if tc.modelOnly {
				return
			}
			if _, err := ReadSurrogateInfo(bytes.NewReader(tc.data)); !errors.Is(err, ErrBadArtifact) {
				t.Fatalf("ReadSurrogateInfo: got %v, want ErrBadArtifact", err)
			}
		})
	}
	// One flipped bit anywhere after the header is caught before any
	// decoding: a CRC-32 detects every single-bit error.
	for i := len(header) + 1; i < len(art); i += 7 {
		flipped := append([]byte(nil), art...)
		flipped[i] ^= 1 << (i % 8)
		if _, err := ReadSurrogateInfo(bytes.NewReader(flipped)); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("bit %d of byte %d flipped: got %v, want ErrBadArtifact", i%8, i, err)
		}
	}
	// The retired format is no special case: it is an unknown header.
	legacy := []byte("surfmodel 2\n")
	if err := dst.LoadSurrogate(bytes.NewReader(legacy)); err == nil || !strings.Contains(err.Error(), "unrecognized header") {
		t.Errorf("legacy header: got %v, want an unrecognized-header error", err)
	}
}

// reseal rewrites a version-2 artifact's header checksum to match its
// (edited) body, so a test can reach the checks behind the checksum.
func reseal(t *testing.T, art []byte) []byte {
	t.Helper()
	_, body, ok := bytes.Cut(art, []byte("\n"))
	if !ok {
		t.Fatal("artifact has no header line")
	}
	return append(fmt.Appendf(nil, "surfengine 2 %08x\n", crc32.ChecksumIEEE(body)), body...)
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

// TestArtifactContextForms exercises SaveSurrogateContext /
// LoadSurrogateContext cancellation.
func TestArtifactContextForms(t *testing.T) {
	d := crimeGrid(1000, 12)
	cfg := Config{FilterColumns: []string{"x", "y"}, Statistic: Count}
	eng := artifactEngine(t, d, cfg)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.SaveSurrogateContext(cancelled, &bytes.Buffer{}); !errors.Is(err, context.Canceled) {
		t.Errorf("SaveSurrogateContext: got %v, want context.Canceled", err)
	}
	var buf bytes.Buffer
	if err := eng.SaveSurrogateContext(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	dst, _ := Open(d, cfg)
	if err := dst.LoadSurrogateContext(cancelled, bytes.NewReader(buf.Bytes())); !errors.Is(err, context.Canceled) {
		t.Errorf("LoadSurrogateContext: got %v, want context.Canceled", err)
	}
	if dst.HasSurrogate() {
		t.Error("cancelled load installed a surrogate")
	}
	if err := dst.LoadSurrogateContext(context.Background(), bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// TestArtifactFindAfterLoad runs the same Find on the saving and the
// loading engine: identical seeds against bit-identical models must
// mine identical regions.
func TestArtifactFindAfterLoad(t *testing.T) {
	d := crimeGrid(3000, 2)
	cfg := Config{FilterColumns: []string{"x", "y"}, Statistic: Count}
	eng := artifactEngine(t, d, cfg)
	var buf bytes.Buffer
	if err := eng.SaveSurrogate(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := Open(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadSurrogate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	q := Query{Threshold: 40, Above: true, Seed: 5, Iterations: 30, MaxRegions: 4}
	r1, err := eng.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := dst.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Regions) != len(r2.Regions) {
		t.Fatalf("saver mined %d regions, loader %d", len(r1.Regions), len(r2.Regions))
	}
	for i := range r1.Regions {
		a, b := r1.Regions[i], r2.Regions[i]
		for j := range a.Min {
			if a.Min[j] != b.Min[j] || a.Max[j] != b.Max[j] {
				t.Fatalf("region %d bounds differ: %v/%v vs %v/%v", i, a.Min, a.Max, b.Min, b.Max)
			}
		}
		if a.Estimate != b.Estimate {
			t.Fatalf("region %d estimate %v vs %v", i, a.Estimate, b.Estimate)
		}
	}
}
