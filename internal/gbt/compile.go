//surf:deterministic (training is CI-gated byte-identical for any Workers count)

package gbt

import "surf/internal/gbt/kernel"

// The compiled inference form lives in the kernel subpackage, behind
// the pluggable Backend interface: "scalar", the default, is the
// flat-node float64 traversal, "binned" the pre-binned uint16 path. Both
// produce bit-for-bit the predictions of Model.Predict1; this file is
// only the bridge from the trained ensemble to that seam.

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

// Compile builds an inference snapshot with the process-default
// backend (SURF_KERNEL, or scalar). The result is
// immutable, safe for concurrent use, and predicts bit-for-bit what
// Model.Predict1 returns.
func (m *Model) Compile() kernel.Model {
	return m.CompileWith(kernel.Default())
}

// CompileWith builds an inference snapshot with backend b, falling
// back to the scalar backend when b cannot represent the ensemble
// (Model.Name on the result reports the backend actually serving it).
func (m *Model) CompileWith(b kernel.Backend) kernel.Model {
	return kernel.Compile(b, m.Ensemble())
}
