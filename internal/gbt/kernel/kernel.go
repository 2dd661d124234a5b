//surf:deterministic (every backend must predict bit-identically to the trained ensemble)

// Package kernel is the pluggable inference-backend seam of the
// surrogate prediction path. A Backend compiles a trained ensemble
// (in the neutral Ensemble form) into an immutable Model serving
// Predict1 and PredictBatch; every layer above — the core batch
// objective, the GSO batch evaluators, Engine/Session prediction —
// talks only to the Model interface, so swapping the traversal
// strategy (or later, a SIMD or GPU implementation) never touches the
// pipeline.
//
// Two backends register at init: "scalar", the portable flat-node
// float64 traversal and the default, and "binned", which quantizes
// thresholds into per-feature cut ranks at compile time and walks
// uint16 bin indices.
// The contract is strict bit-identity: for any ensemble and any row —
// including NaN and ±Inf values — every backend's Predict1 and
// PredictBatch return exactly the float64 the trained model's own
// tree walk returns (same traversal decisions, same summation order).
// Differential tests and the FuzzKernelParity target hold backends to
// it.
//
// Adding a backend: implement Backend, call Register from an init
// function in this package, and extend the parity tests to cover it.
// A backend whose Compile cannot represent an ensemble (the binned
// backend bounds features and distinct cuts at 65535) returns an
// error; Compile — the package-level helper all production paths use
// — then falls back to the scalar backend, which represents
// everything.
package kernel

import (
	"fmt"
	"os"
	"sort"
)

// Model is a compiled, immutable inference snapshot of one ensemble.
// Models are safe for concurrent use; predictions are bit-for-bit
// identical across backends. Predict1 and PredictBatch panic on
// dimension mismatches — callers validate at the public boundary
// (core.Surrogate and Engine.PredictStatisticBatch return wrapped
// sentinel errors there).
type Model interface {
	// Name reports the backend that compiled this model.
	Name() string
	// NumFeatures returns the feature dimensionality the model expects.
	NumFeatures() int
	// NumTrees returns the number of trees in the compiled ensemble.
	NumTrees() int
	// NumNodes returns the total node count across all trees.
	NumNodes() int
	// Predict1 returns the prediction for a single raw feature row.
	Predict1(row []float64) float64
	// PredictBatch writes predictions for every row of X into out
	// without allocating on the steady state: out must have exactly
	// len(X) entries and every row NumFeatures columns.
	PredictBatch(X [][]float64, out []float64)
}

// Backend compiles ensembles into Models. Implementations must be
// stateless (one process-wide instance serves all compilations).
type Backend interface {
	// Name is the backend's registry key ("scalar", "binned").
	Name() string
	// Compile builds an immutable Model from e, returning an error when
	// the backend cannot represent the ensemble within its encoding
	// limits; the ensemble itself is trusted (it comes from a validated
	// trained model).
	Compile(e Ensemble) (Model, error)
}

// DefaultName is the backend used when neither WithInferenceKernel
// nor the SURF_KERNEL environment variable selects one. It is scalar
// because scalar is the faster backend on surrogate-shaped ensembles
// (about 100 trees of depth 6 over 4 features, at swarm-shard batches
// of about 100 rows) and on surf-bench's larger 300-tree ensemble at
// batch 64; binned stays registered and selectable.
const DefaultName = "scalar"

// EnvVar is the environment variable naming the process-default
// backend.
const EnvVar = "SURF_KERNEL"

var backends = map[string]Backend{}

// Register adds a backend under its name. It is called from init
// functions in this package; a duplicate name is a programming error.
func Register(b Backend) {
	name := b.Name()
	if _, ok := backends[name]; ok {
		panic(fmt.Sprintf("kernel: backend %q registered twice", name))
	}
	backends[name] = b
}

// Lookup resolves a backend by name.
func Lookup(name string) (Backend, bool) {
	b, ok := backends[name]
	return b, ok
}

// Names lists the registered backends, sorted.
func Names() []string {
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Default resolves the process-default backend: SURF_KERNEL if it
// names a registered backend, DefaultName otherwise.
func Default() Backend {
	if name := os.Getenv(EnvVar); name != "" {
		if b, ok := Lookup(name); ok {
			return b
		}
	}
	b, ok := Lookup(DefaultName)
	if !ok {
		panic("kernel: default backend not registered")
	}
	return b
}

// Compile compiles e with b, falling back to the scalar backend when
// b cannot represent the ensemble (the scalar backend represents
// everything), and wraps the result with the process-wide activity
// counters exported through /metrics. All production compilation
// paths go through here, so a model that silently fell back reports
// the backend actually serving it via Model.Name.
func Compile(b Backend, e Ensemble) Model {
	m, err := b.Compile(e)
	if err != nil {
		m = compileScalar(e)
	}
	return instrument(m)
}

// bfsOrder lays one tree's nodes out breadth-first starting at node 0:
// both children of a split are enqueued back-to-back, so siblings land
// in adjacent slots and the right child index is always left+1. It
// returns the visit order (old indices) and the old→new index map,
// offset by off; the caller-supplied slices are reused across trees.
func bfsOrder(nodes []Node, off int32, order, newIdx []int32) ([]int32, []int32) {
	order = append(order[:0], 0)
	if cap(newIdx) < len(nodes) {
		newIdx = make([]int32, len(nodes))
	}
	newIdx = newIdx[:len(nodes)]
	for qi := 0; qi < len(order); qi++ {
		old := order[qi]
		newIdx[old] = off + int32(qi)
		if n := &nodes[old]; n.Feature != LeafFeature {
			order = append(order, n.Left, n.Right)
		}
	}
	return order, newIdx
}
