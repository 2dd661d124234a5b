//go:build !race

package surf

// raceEnabled reports whether the race detector is compiled in; the
// slowest training tests skip under it.
const raceEnabled = false
