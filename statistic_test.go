package surf

import (
	"errors"
	"testing"

	"surf/internal/stats"
)

// TestStatisticStringTable pins the wire names of every statistic and
// the fallback formatting of unknown values.
func TestStatisticStringTable(t *testing.T) {
	cases := []struct {
		stat Statistic
		want string
	}{
		{Count, "count"},
		{Sum, "sum"},
		{Mean, "mean"},
		{Min, "min"},
		{Max, "max"},
		{Median, "median"},
		{Variance, "variance"},
		{StdDev, "stddev"},
		{Ratio, "ratio"},
		{Statistic(99), "Statistic(99)"},
		{Statistic(-1), "Statistic(-1)"},
	}
	for _, c := range cases {
		if got := c.stat.String(); got != c.want {
			t.Errorf("Statistic(%d).String() = %q, want %q", int(c.stat), got, c.want)
		}
	}
}

// TestParseStatisticTable covers round trips plus the error paths.
func TestParseStatisticTable(t *testing.T) {
	cases := []struct {
		name    string
		want    Statistic
		wantErr bool
	}{
		{"count", Count, false},
		{"sum", Sum, false},
		{"mean", Mean, false},
		{"min", Min, false},
		{"max", Max, false},
		{"median", Median, false},
		{"variance", Variance, false},
		{"stddev", StdDev, false},
		{"ratio", Ratio, false},
		{"nope", 0, true},
		{"", 0, true},
		{"COUNT", 0, true}, // names are case-sensitive
		{"Statistic(99)", 0, true},
	}
	for _, c := range cases {
		got, err := ParseStatistic(c.name)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseStatistic(%q) = %v, want error", c.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseStatistic(%q): %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseStatistic(%q) = %v, want %v", c.name, got, c.want)
		}
	}
	// Full round trip: every defined statistic survives String →
	// ParseStatistic.
	for s := Count; s <= Ratio; s++ {
		back, err := ParseStatistic(s.String())
		if err != nil || back != s {
			t.Errorf("round trip %v -> %q -> (%v, %v)", s, s.String(), back, err)
		}
	}
}

// TestStatisticIsKindNumbering pins the built-ins to stats.Kind's
// numbering, which kind and ParseStatistic convert through, and the
// name round trip through both enums.
func TestStatisticIsKindNumbering(t *testing.T) {
	for _, c := range []struct {
		kind stats.Kind
		stat Statistic
		name string
	}{
		{stats.Count, Count, "count"},
		{stats.Sum, Sum, "sum"},
		{stats.Mean, Mean, "mean"},
		{stats.Min, Min, "min"},
		{stats.Max, Max, "max"},
		{stats.Median, Median, "median"},
		{stats.Variance, Variance, "variance"},
		{stats.StdDev, StdDev, "stddev"},
		{stats.Ratio, Ratio, "ratio"},
	} {
		if Statistic(c.kind) != c.stat {
			t.Errorf("Statistic(stats.%v) = %d, want %d", c.kind, int(Statistic(c.kind)), int(c.stat))
		}
		if k, ok := c.stat.kind(); !ok || k != c.kind {
			t.Errorf("%v.kind() = (%v, %v), want (%v, true)", c.stat, k, ok, c.kind)
		}
		if c.stat.String() != c.name || c.kind.String() != c.name {
			t.Errorf("names %q / %q, want %q", c.stat.String(), c.kind.String(), c.name)
		}
		if back, err := ParseStatistic(c.name); err != nil || back != c.stat {
			t.Errorf("ParseStatistic(%q) = (%v, %v), want %v", c.name, back, err, c.stat)
		}
	}
}

// TestCustomStatisticRoundTrip covers registration, String/Parse
// round trips over built-in and custom statistics together, and the
// registration error paths.
func TestCustomStatisticRoundTrip(t *testing.T) {
	constant := func(rows [][]float64) float64 { return 42 }
	custom, err := CustomStatistic("test-roundtrip", constant)
	if err != nil {
		t.Fatal(err)
	}
	if custom.String() != "test-roundtrip" {
		t.Errorf("String() = %q, want the registered name", custom.String())
	}
	all := []Statistic{Count, Sum, Mean, Min, Max, Median, Variance, StdDev, Ratio, custom}
	for _, s := range all {
		back, err := ParseStatistic(s.String())
		if err != nil {
			t.Errorf("ParseStatistic(%q): %v", s.String(), err)
			continue
		}
		if back != s {
			t.Errorf("round trip %v -> %q -> %v", s, s.String(), back)
		}
	}

	// Error paths, all classified ErrBadConfig.
	for name, tc := range map[string]struct {
		name string
		fn   func([][]float64) float64
	}{
		"empty name":     {"", constant},
		"nil fn":         {"test-nilfn", nil},
		"builtin shadow": {"count", constant},
		"duplicate":      {"test-roundtrip", constant},
	} {
		if _, err := CustomStatistic(tc.name, tc.fn); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}

	// Unregistered out-of-range values still format and fail to parse.
	if got := Statistic(1 << 20).String(); got != "Statistic(1048576)" {
		t.Errorf("out-of-range String() = %q", got)
	}
	if _, err := ParseStatistic("test-unregistered"); err == nil {
		t.Error("expected error for unregistered custom name")
	}
}
