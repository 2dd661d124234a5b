package stats

import (
	"fmt"
	"sync"
)

// RowFunc computes a custom statistic from the data rows inside a
// region. Each row carries the dataset's columns in their storage
// order (the same order Dataset.Names reports), so a RowFunc can
// aggregate any column or combination of columns. Rows arrive in no
// guaranteed order — grid-indexed evaluation visits them cell by cell
// — so the function must be order-insensitive. The slice may be
// empty; returning NaN marks the statistic undefined on that region
// (workload generation then resamples, exactly as for the built-in
// undefined-on-empty statistics). Implementations must be pure
// functions of rows and safe for concurrent calls — evaluators invoke
// them from many goroutines.
type RowFunc func(rows [][]float64) float64

// customBase offsets registered Kind values far past the built-in
// enum so the two ranges can never collide, even as built-ins are
// added.
const customBase Kind = 1 << 10

var customReg = struct {
	sync.RWMutex
	names []string
	fns   []RowFunc
	index map[string]Kind
}{index: map[string]Kind{}}

// Register adds a named custom statistic to the process-wide registry
// and returns its Kind, which participates everywhere a built-in Kind
// does: String, ParseKind, dataset evaluation (linear scan, grid
// index), workload generation and surrogate training. The
// name must be non-empty and not collide with a built-in or
// previously registered statistic. Custom statistics are
// non-decomposable (the grid index falls back to per-row collection)
// and need no target column: the RowFunc sees whole rows.
func Register(name string, fn RowFunc) (Kind, error) {
	if name == "" {
		return 0, fmt.Errorf("stats: empty custom statistic name")
	}
	if fn == nil {
		return 0, fmt.Errorf("stats: nil function for custom statistic %q", name)
	}
	for _, builtin := range kindNames {
		if builtin == name {
			return 0, fmt.Errorf("stats: custom statistic %q shadows a built-in", name)
		}
	}
	customReg.Lock()
	defer customReg.Unlock()
	if _, dup := customReg.index[name]; dup {
		return 0, fmt.Errorf("stats: custom statistic %q already registered", name)
	}
	k := customBase + Kind(len(customReg.names))
	customReg.names = append(customReg.names, name)
	customReg.fns = append(customReg.fns, fn)
	customReg.index[name] = k
	return k, nil
}

// IsCustom reports whether k is a registered custom statistic.
func (k Kind) IsCustom() bool {
	if k < customBase {
		return false
	}
	customReg.RLock()
	defer customReg.RUnlock()
	return int(k-customBase) < len(customReg.names)
}

// CustomFunc returns the row function registered for k, or ok=false
// when k is not a registered custom kind.
func CustomFunc(k Kind) (fn RowFunc, ok bool) {
	if k < customBase {
		return nil, false
	}
	customReg.RLock()
	defer customReg.RUnlock()
	i := int(k - customBase)
	if i >= len(customReg.fns) {
		return nil, false
	}
	return customReg.fns[i], true
}

// customName returns the registered name for k, or ok=false.
func customName(k Kind) (string, bool) {
	if k < customBase {
		return "", false
	}
	customReg.RLock()
	defer customReg.RUnlock()
	i := int(k - customBase)
	if i >= len(customReg.names) {
		return "", false
	}
	return customReg.names[i], true
}

// lookupCustom resolves a registered name to its Kind.
func lookupCustom(name string) (Kind, bool) {
	customReg.RLock()
	defer customReg.RUnlock()
	k, ok := customReg.index[name]
	return k, ok
}
