package gbt

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

// encodeWire gob-encodes a wire model the way Save does, bypassing
// Save's well-formed-by-construction guarantee so tests can craft
// corrupt artifacts.
func encodeWire(t *testing.T, g gobModel) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// leaf and split build nodes for hand-assembled trees.
func leaf(w float64) node { return node{Feature: leafMarker, Weight: w} }
func split(feat, left, right int32) node {
	return node{Feature: feat, Threshold: 0.5, Left: left, Right: right}
}

// validWire returns a small well-formed wire model the corruption
// cases below mutate one field at a time.
func validWire() gobModel {
	return gobModel{
		Params:    DefaultParams(),
		BaseScore: 1.5,
		NumFeat:   2,
		Trees: []gobTree{
			{Nodes: []node{split(0, 1, 2), leaf(0.1), leaf(-0.2)}},
			{Nodes: []node{leaf(0.05)}},
		},
	}
}

// TestLoadValidWire proves the hand-assembled baseline actually loads
// and predicts, so the corruption tests below fail for the corruption
// and not for an unrelated defect.
func TestLoadValidWire(t *testing.T) {
	m, err := Load(encodeWire(t, validWire()))
	if err != nil {
		t.Fatal(err)
	}
	got := walk(m, []float64{0.2, 0.9})
	// Summed in ensemble order (base, tree 0 leaf, tree 1 leaf) to
	// match the predictor's float rounding exactly.
	want := 1.5
	want += 0.1
	want += 0.05
	if got != want {
		t.Fatalf("walk = %g, want %g", got, want)
	}
	if c := m.Compile(); c.Predict1([]float64{0.2, 0.9}) != want {
		t.Fatalf("compiled predict = %g, want %g", c.Predict1([]float64{0.2, 0.9}), want)
	}
}

// TestLoadRejectsCorruptArtifacts feeds Load structurally corrupt
// payloads that decode fine at the gob layer but would panic (or loop
// forever) inside Predict or Compile, and expects a descriptive error
// from Load instead.
func TestLoadRejectsCorruptArtifacts(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*gobModel)
		wantSub string
	}{
		{"zero features", func(g *gobModel) { g.NumFeat = 0 }, "feature count"},
		{"negative features", func(g *gobModel) { g.NumFeat = -3 }, "feature count"},
		{"absurd features", func(g *gobModel) { g.NumFeat = 1 << 30 }, "feature count"},
		{"empty tree", func(g *gobModel) { g.Trees[1].Nodes = nil }, "empty"},
		{"child index past nodes", func(g *gobModel) { g.Trees[0].Nodes[0].Right = 9 }, "out of range"},
		{"child index zero (root)", func(g *gobModel) { g.Trees[0].Nodes[0].Left = 0 }, "out of range"},
		{"child index negative", func(g *gobModel) { g.Trees[0].Nodes[0].Left = -2 }, "out of range"},
		{"split feature past model", func(g *gobModel) { g.Trees[0].Nodes[0].Feature = 5 }, "feature"},
		{"negative non-leaf feature", func(g *gobModel) { g.Trees[0].Nodes[0].Feature = -2 }, "feature"},
		{
			// Both children point at node 1: a shared subtree breaks
			// the compiler's tree-shaped layout assumption.
			"shared child",
			func(g *gobModel) { g.Trees[0].Nodes[0].Right = 1 },
			"more than one parent",
		},
		{
			// 1 → 2 → 1 cycle behind the root would hang Predict if it
			// were reachable; the double reference to node 1 catches it.
			"cycle",
			func(g *gobModel) {
				g.Trees[0].Nodes = []node{
					split(0, 1, 2),
					split(1, 2, 2),
					leaf(0.3),
				}
			},
			"more than one parent",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := validWire()
			tc.mutate(&g)
			_, err := Load(encodeWire(t, g))
			if err == nil {
				t.Fatal("Load accepted a corrupt artifact")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// legacyParams and legacyWire are the wire form older writers used:
// Params still carried Gamma, MinChildWeight, Subsample, ColSample and
// EarlyStopping, and the model carried BestRound. Gob matches fields
// by name, so Load skips the ones this version dropped.
type legacyParams struct {
	NumTrees       int
	LearningRate   float64
	MaxDepth       int
	Lambda         float64
	Gamma          float64
	MinChildWeight float64
	Subsample      float64
	ColSample      float64
	MaxBins        int
	EarlyStopping  int
	Seed           uint64
	Workers        int
}

type legacyWire struct {
	Params    legacyParams
	BaseScore float64
	Trees     []gobTree
	NumFeat   int
	BestRound int
}

// TestLoadAcceptsTrainedBestRound: an artifact in the older wire form,
// with a BestRound and the dropped Params fields set, loads and
// predicts as the same ensemble in the current form does.
func TestLoadAcceptsTrainedBestRound(t *testing.T) {
	g := validWire()
	old := legacyWire{
		Params: legacyParams{
			NumTrees: 100, LearningRate: 0.1, MaxDepth: 6, Lambda: 1,
			MinChildWeight: 1, Subsample: 1, ColSample: 1, MaxBins: 256,
			EarlyStopping: 5, Seed: 1,
		},
		BaseScore: g.BaseScore,
		Trees:     g.Trees,
		NumFeat:   g.NumFeat,
		BestRound: 1,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	m, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load rejected the older wire form: %v", err)
	}
	want, err := Load(encodeWire(t, g))
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{0.2, 0.9}
	if got, w := walk(m, row), walk(want, row); got != w {
		t.Fatalf("older wire form predicts %g, current form %g", got, w)
	}
	if p := m.Params(); p.NumTrees != 100 || p.MaxBins != 256 || p.Seed != 1 {
		t.Fatalf("shared Params fields not decoded: %+v", p)
	}
}
