package obs

import (
	"sort"
	"sync"
)

// Per-kernel inference activity. The gbt kernel layer records every
// prediction it serves into a process-wide set of counters keyed by
// kernel name (today only "scalar"); the serving layer exports them
// through /metrics with scrape-time collectors. The set is
// process-wide rather than per-registry because compiled models
// outlive any one server instance (engines, benches and tests all
// share the same kernel).

// KernelStats is one inference backend's activity counters.
type KernelStats struct {
	// Rows counts predicted rows (a Predict1 call counts one row).
	Rows Counter
	// Batches counts PredictBatch and Predict1 calls.
	Batches Counter
	// Nanos accumulates wall nanoseconds spent inside the kernel.
	Nanos Counter
}

var (
	kernelMu sync.Mutex
	kernels  = map[string]*KernelStats{}
)

// Kernel returns (creating if needed) the named backend's counters.
// The returned instruments are updated lock-free.
func Kernel(name string) *KernelStats {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	st, ok := kernels[name]
	if !ok {
		st = &KernelStats{}
		kernels[name] = st
	}
	return st
}

// KernelActivity is a point-in-time reading of one backend's counters.
type KernelActivity struct {
	Name                 string
	Rows, Batches, Nanos uint64
}

// KernelSnapshot reads every backend's counters, sorted by name —
// the scrape-time view behind the surf_kernel_* metric families.
func KernelSnapshot() []KernelActivity {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	out := make([]KernelActivity, 0, len(kernels))
	for name, st := range kernels {
		out = append(out, KernelActivity{
			Name:    name,
			Rows:    st.Rows.Value(),
			Batches: st.Batches.Value(),
			Nanos:   st.Nanos.Value(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
