//surf:deterministic (training is CI-gated byte-identical for any Workers count)

package gbt

import "surf/internal/gbt/kernel"

// The compiled inference form lives in the kernel subpackage: a
// flat-node float64 traversal that produces bit-for-bit the sum of the
// base score and each trained tree's leaf, in ensemble order. It is
// the model's only prediction path; the tests keep a node walk of the
// trained trees as its reference. This file is only the bridge from
// the trained ensemble to it.

// Ensemble snapshots the trained ensemble into the kernel's neutral
// form. The snapshot is independent of the Model: later training
// continuation does not affect it.
func (m *Model) Ensemble() kernel.Ensemble {
	e := kernel.Ensemble{
		BaseScore:   m.baseScore,
		NumFeatures: m.nfeat,
		Trees:       make([][]kernel.Node, 0, len(m.trees)),
	}
	for _, t := range m.trees {
		nodes := make([]kernel.Node, len(t.Nodes))
		for i := range t.Nodes {
			n := &t.Nodes[i]
			if n.Feature == leafMarker {
				nodes[i] = kernel.Node{Feature: kernel.LeafFeature, Threshold: n.Weight}
			} else {
				nodes[i] = kernel.Node{
					Feature:   n.Feature,
					Threshold: n.Threshold,
					Left:      n.Left,
					Right:     n.Right,
				}
			}
		}
		e.Trees = append(e.Trees, nodes)
	}
	return e
}

// Compile builds the kernel's inference snapshot of the ensemble. The
// result is immutable, safe for concurrent use, and predicts
// bit-for-bit what walking the trained trees returns.
func (m *Model) Compile() *kernel.Model {
	return kernel.Compile(m.Ensemble())
}
