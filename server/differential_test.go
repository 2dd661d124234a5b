package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	surf "surf"
	"surf/registry"
)

// bodyWithoutRequestID reads a JSON response body and removes the
// request_id field writeJSON writes in front of the encoded value and
// the trailing newline, leaving the value's own encoding.
func bodyWithoutRequestID(t *testing.T, resp *http.Response) string {
	t.Helper()
	body := strings.TrimSuffix(readBody(t, resp), "\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	field := `"request_id":"` + resp.Header.Get("X-Request-Id") + `",`
	rest, ok := strings.CutPrefix(body, "{"+field)
	if !ok {
		t.Fatalf("body does not start with %s: %s", field, body)
	}
	return "{" + rest
}

// refFloat, refRegion, refResult and referenceJSON are the reflection
// encoder that surf's hand-written answer codec replaced, the one the
// root package's differential tests keep as their reference: shadow
// structs over a float type with its own marshaler. The HTTP answers
// are compared with its output, so that this test does not check the
// production encoder against itself.
type refFloat float64

func (f refFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

func refFloats(v []float64) []refFloat {
	out := make([]refFloat, len(v))
	for i, x := range v {
		out[i] = refFloat(x)
	}
	return out
}

type refRegion struct {
	Min       []refFloat `json:"min"`
	Max       []refFloat `json:"max"`
	Estimate  refFloat   `json:"estimate"`
	Score     refFloat   `json:"score"`
	Worms     int        `json:"worms"`
	TrueValue refFloat   `json:"true_value"`
	Verified  bool       `json:"verified"`
	Satisfies bool       `json:"satisfies"`
}

type refResult struct {
	Regions               []refRegion `json:"regions"`
	ValidParticleFraction refFloat    `json:"valid_particle_fraction"`
	ComplianceRate        refFloat    `json:"compliance_rate"`
	ElapsedSeconds        refFloat    `json:"elapsed_seconds"`
}

func referenceJSON(res *surf.Result) (string, error) {
	w := refResult{
		Regions:               make([]refRegion, len(res.Regions)),
		ValidParticleFraction: refFloat(res.ValidParticleFraction),
		ComplianceRate:        refFloat(res.ComplianceRate),
		ElapsedSeconds:        refFloat(res.ElapsedSeconds),
	}
	for i, g := range res.Regions {
		w.Regions[i] = refRegion{
			Min: refFloats(g.Min), Max: refFloats(g.Max),
			Estimate: refFloat(g.Estimate), Score: refFloat(g.Score),
			Worms: g.Worms, TrueValue: refFloat(g.TrueValue),
			Verified: g.Verified, Satisfies: g.Satisfies,
		}
	}
	b, err := json.Marshal(w)
	return string(b), err
}

// TestHTTPMatchesEngine checks that a result means the same thing over
// HTTP as in process, on both server constructors: for find, topk,
// findmany and a drained stream, the answer in the HTTP body (request
// ID removed; per query for findmany; the done event's result for the
// stream) equals the reference encoding of the engine's Result byte
// for byte.
// Each HTTP request mines and fills the result cache, so the engine
// call that follows returns the cached copy of the HTTP path's answer.
func TestHTTPMatchesEngine(t *testing.T) {
	q := func(seed uint64) surf.Query {
		q := smallQuery
		q.Seed = seed
		return q
	}
	tq := surf.TopKQuery{K: 2, Largest: true, Seed: 12, Glowworms: 20, Iterations: 10}
	tests := []struct {
		name string
		path string
		body any
		// http extracts the answers from the response, in query order.
		http func(t *testing.T, resp *http.Response) []string
		// engine computes the same answers in process.
		engine func(ctx context.Context, eng *surf.Engine) ([]*surf.Result, error)
	}{
		{
			name: "find",
			path: "/v1/find",
			body: q(11),
			http: func(t *testing.T, resp *http.Response) []string {
				return []string{bodyWithoutRequestID(t, resp)}
			},
			engine: func(ctx context.Context, eng *surf.Engine) ([]*surf.Result, error) {
				res, err := eng.FindContext(ctx, q(11))
				return []*surf.Result{res}, err
			},
		},
		{
			name: "topk",
			path: "/v1/topk",
			body: tq,
			http: func(t *testing.T, resp *http.Response) []string {
				return []string{bodyWithoutRequestID(t, resp)}
			},
			engine: func(ctx context.Context, eng *surf.Engine) ([]*surf.Result, error) {
				res, err := eng.FindTopKContext(ctx, tq)
				return []*surf.Result{res}, err
			},
		},
		{
			name: "findmany",
			path: "/v1/findmany",
			body: map[string]any{"queries": []surf.Query{q(13), q(14)}},
			http: func(t *testing.T, resp *http.Response) []string {
				var out struct {
					Results []struct {
						Index  int             `json:"index"`
						Result json.RawMessage `json:"result"`
						Error  string          `json:"error"`
					} `json:"results"`
				}
				if err := json.Unmarshal([]byte(bodyWithoutRequestID(t, resp)), &out); err != nil {
					t.Fatal(err)
				}
				got := make([]string, len(out.Results))
				for _, r := range out.Results {
					if r.Error != "" {
						t.Fatalf("query %d: %s", r.Index, r.Error)
					}
					got[r.Index] = string(r.Result)
				}
				return got
			},
			engine: func(ctx context.Context, eng *surf.Engine) ([]*surf.Result, error) {
				out := make([]*surf.Result, 2)
				for r := range eng.FindMany(ctx, []surf.Query{q(13), q(14)}) {
					if r.Err != nil {
						return nil, r.Err
					}
					out[r.Index] = r.Result
				}
				return out, nil
			},
		},
		{
			name: "drained stream",
			path: "/v1/stream",
			body: map[string]any{"q": q(15)},
			http: func(t *testing.T, resp *http.Response) []string {
				defer resp.Body.Close()
				var got []string
				readSSE(t, resp.Body, func(ev sseEvent) bool {
					if ev.name == "done" {
						var done struct {
							Result json.RawMessage `json:"result"`
						}
						if err := json.Unmarshal([]byte(ev.data), &done); err != nil {
							t.Fatal(err)
						}
						got = append(got, string(done.Result))
					}
					return true
				})
				return got
			},
			engine: func(ctx context.Context, eng *surf.Engine) ([]*surf.Result, error) {
				res, err := eng.FindContext(ctx, q(15))
				return []*surf.Result{res}, err
			},
		},
	}

	servers := []struct {
		name string
		// start mounts the server and returns the engine it serves.
		start func(t *testing.T) (*httptest.Server, func() *surf.Engine)
	}{
		{"New", func(t *testing.T) (*httptest.Server, func() *surf.Engine) {
			ts, eng := testServer(t, true)
			return ts, func() *surf.Engine { return eng }
		}},
		{"NewRegistry", func(t *testing.T) (*httptest.Server, func() *surf.Engine) {
			fx := newRegistryFixture(t)
			reg := registry.New(0)
			if _, err := reg.Register("alpha", fx.spec(fx.artifactA)); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(NewRegistry(reg, "alpha").Handler())
			t.Cleanup(ts.Close)
			// The entry loads on the first request; resolve its engine
			// after that, and keep the handle pinned to the test's end.
			return ts, func() *surf.Engine {
				h, err := reg.Acquire(context.Background(), "alpha")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(h.Release)
				return h.Engine()
			}
		}},
	}

	for _, srv := range servers {
		t.Run(srv.name, func(t *testing.T) {
			ts, engine := srv.start(t)
			for _, tt := range tests {
				t.Run(tt.name, func(t *testing.T) {
					got := tt.http(t, postJSON(t, ts.URL+tt.path, tt.body))
					eng := engine()
					hits := eng.CacheStats().Hits
					results, err := tt.engine(context.Background(), eng)
					if err != nil {
						t.Fatal(err)
					}
					if n := eng.CacheStats().Hits - hits; n != uint64(len(results)) {
						t.Fatalf("engine calls hit the cache %d times, want %d: the HTTP path did not cache its answers", n, len(results))
					}
					want := make([]string, len(results))
					for i, res := range results {
						if want[i], err = referenceJSON(res); err != nil {
							t.Fatal(err)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("HTTP answers differ from the engine's\nhttp:   %s\nengine: %s", got, want)
					}
				})
			}
		})
	}
}
