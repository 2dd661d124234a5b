package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestSmoke runs every workload untraced and traced at toy scale and
// checks that each run passes its correctness checks and reports
// exactly the metrics BENCHMARK.json names, which must match the
// harness's own tables.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, harness runs %v", names, have)
	}
	for _, tc := range []struct {
		name string
		json []metricDef
		ours []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.ours) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the harness %d", len(tc.json), tc.name, len(tc.ours))
		}
		for i := range tc.ours {
			if tc.json[i] != tc.ours[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", tc.name, i, tc.json[i], tc.ours[i])
			}
		}
	}

	for _, trace := range []bool{false, true} {
		want := endToEnd
		if trace {
			want = perLayer
		}
		cfg := config{workload: "all", seed: 1, trace: trace, work: t.TempDir(), out: t.TempDir(), sc: toyScale}
		var out bytes.Buffer
		ok, err := run(context.Background(), cfg, &out)
		if err != nil || !ok {
			t.Fatalf("trace=%v: run ok=%v err=%v\n%s", trace, ok, err, out.String())
		}
		var results int
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			results++
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]value
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("trace=%v: result line %q: %v", trace, line, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("trace=%v: result %s", trace, line)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("trace=%v: %d metrics reported, want %d", trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("trace=%v: metric %s missing or not in %s: %+v", trace, d.Name, d.Unit, v)
				}
			}
		}
		if results != len(workloads) {
			t.Fatalf("trace=%v: %d result lines for %d workloads", trace, results, len(workloads))
		}
		if trace {
			for _, w := range workloads {
				if _, err := os.Stat(filepath.Join(cfg.out, w.name, "trace.json")); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}
