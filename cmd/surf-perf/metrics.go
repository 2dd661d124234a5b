package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef describes one metric the harness reports. The gated lists
// below are exactly BENCHMARK.json's end_to_end and per_layer entries
// (the smoke test checks the two agree); every workload reports every
// one of them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's value a change may worsen it by (end-to-end only)
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"find_p50_ms", "ms", "lower", 0.24},
	{"throughput_qps", "1/s", "higher", 0.24},
	{"compliance", "ratio", "higher", 0.01},
	{"heap_live_mb", "MB", "lower", 0.05},
}

var perLayer = []metricDef{
	{Name: "kernel.ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "kernel.rows_per_query", Unit: "count", Better: "lower"},
	{Name: "kernel.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "kernel.scalar_calls_per_query", Unit: "count", Better: "lower"},
	{Name: "core.swarm_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "core.regions_per_query", Unit: "count", Better: "higher"},
	{Name: "dataset.eval_us", Unit: "us", Better: "lower"},
	{Name: "dataset.evals_per_query", Unit: "count", Better: "lower"},
	{Name: "kde.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "kde.boxmass_us", Unit: "us", Better: "lower"},
	{Name: "surf.stream_start_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.hit_us", Unit: "us", Better: "lower"},
	{Name: "server.hit_roundtrip_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.store_append_ms", Unit: "ms", Better: "lower"},
	{Name: "surf.set_dataset_ms", Unit: "ms", Better: "lower"},
	{Name: "drift.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "surf.generate_workload_s", Unit: "s", Better: "lower"},
	{Name: "gbt.train_s", Unit: "s", Better: "lower"},
	{Name: "harness.calibration_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes non-finite values (a percentile over failed
// requests) as null; JSON has no infinity.
func (v value) MarshalJSON() ([]byte, error) {
	type plain value
	if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
		return []byte(fmt.Sprintf(`{"value":null,"unit":%q}`, v.Unit)), nil
	}
	return json.Marshal(plain(v))
}

// metricSet maps metric names to measurements.
type metricSet map[string]value

func (m metricSet) set(name, unit string, v float64) { m[name] = value{v, unit} }

// pick returns the subset of m named by defs; a missing metric is an
// error, since every workload must report every gated metric.
func (m metricSet) pick(defs []metricDef) (metricSet, error) {
	out := metricSet{}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.Name)
		}
		out[d.Name] = value{v.Value, d.Unit}
	}
	return out, nil
}

// print writes one "workload metric value unit" line per metric,
// sorted by name.
func (m metricSet) print(w io.Writer, workload string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %g %s\n", workload, n, m[n].Value, m[n].Unit)
	}
}
