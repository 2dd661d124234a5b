//surf:deterministic (training is CI-gated byte-identical for any Workers count)

package gbt

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Model serialization lets cmd/surf-train persist a tuned surrogate
// and cmd/surf-find load it later — the paper's "train once, reuse for
// different statistics, thresholds and users" deployment (Section V-D).

// gobModel is the exported wire form.
type gobModel struct {
	Params    Params
	BaseScore float64
	Trees     []gobTree
	NumFeat   int
}

type gobTree struct {
	Nodes []node
}

// Save writes the model in gob encoding. Params.Workers is an
// execution knob, not a model property — the trained ensemble is
// bit-identical for every value — so it is normalized to 0 in the
// artifact; a loaded model trains continuation rounds with one worker
// per CPU unless the caller sets it again.
func (m *Model) Save(w io.Writer) error {
	g := gobModel{
		Params:    m.params,
		BaseScore: m.baseScore,
		NumFeat:   m.nfeat,
	}
	g.Params.Workers = 0
	for _, t := range m.trees {
		g.Trees = append(g.Trees, gobTree{Nodes: t.Nodes})
	}
	if err := gob.NewEncoder(w).Encode(g); err != nil {
		return fmt.Errorf("gbt: encode model: %w", err)
	}
	return nil
}

// maxLoadFeatures bounds the feature count a loaded model may declare;
// a surrogate consumes 2d features, so anything near this limit is a
// corrupt header, not a real model.
const maxLoadFeatures = 1 << 20

// Load reads a model written by Save. The decoded payload is fully
// validated before a Model is returned: Predict and Compile trust the
// node graph (child indices, leaf markers, feature indices), so a
// malformed artifact must fail here with a descriptive error rather
// than panic at first use.
func Load(r io.Reader) (*Model, error) {
	var g gobModel
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("gbt: decode model: %w", err)
	}
	if err := validateDecoded(&g); err != nil {
		return nil, fmt.Errorf("gbt: invalid model artifact: %w", err)
	}
	m := &Model{
		params:    g.Params,
		baseScore: g.BaseScore,
		nfeat:     g.NumFeat,
	}
	for _, t := range g.Trees {
		m.trees = append(m.trees, &tree{Nodes: t.Nodes})
	}
	return m, nil
}

// validateDecoded checks a decoded wire model against every structural
// invariant the predictors rely on.
func validateDecoded(g *gobModel) error {
	if g.NumFeat <= 0 || g.NumFeat > maxLoadFeatures {
		return fmt.Errorf("feature count %d out of range [1,%d]", g.NumFeat, maxLoadFeatures)
	}
	total := 0
	for ti, t := range g.Trees {
		if len(t.Nodes) == 0 {
			return fmt.Errorf("tree %d is empty", ti)
		}
		total += len(t.Nodes)
		// Compile rebases node indices into one int32-indexed array, so
		// the ensemble as a whole must stay below that limit.
		if total > 1<<31-1 {
			return fmt.Errorf("ensemble holds more than %d nodes", int64(1)<<31-1)
		}
		if err := validateTreeNodes(t.Nodes, g.NumFeat); err != nil {
			return fmt.Errorf("tree %d: %w", ti, err)
		}
	}
	return nil
}

// validateTreeNodes checks that a node slice forms a proper binary
// tree the predictors can walk: split features within the model's
// feature count, child indices in range, negative features only ever
// the exact leaf marker, and every non-root node referenced by exactly
// one parent (which rules out cycles and shared subtrees, so both the
// recursive walk and the breadth-first compiler terminate).
func validateTreeNodes(nodes []node, nfeat int) error {
	refs := make([]int8, len(nodes))
	for i, n := range nodes {
		if n.Feature == leafMarker {
			continue
		}
		if n.Feature < 0 || int(n.Feature) >= nfeat {
			return fmt.Errorf("node %d splits on feature %d of %d", i, n.Feature, nfeat)
		}
		for _, child := range [2]int32{n.Left, n.Right} {
			if child <= 0 || int(child) >= len(nodes) {
				return fmt.Errorf("node %d child index %d out of range (1,%d)", i, child, len(nodes))
			}
			if refs[child] != 0 {
				return fmt.Errorf("node %d referenced by more than one parent", child)
			}
			refs[child] = 1
		}
	}
	return nil
}
