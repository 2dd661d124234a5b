package server

import (
	"net/http"

	surf "surf"
	"surf/internal/gbt/kernel"
	"surf/internal/obs"
	"surf/registry"
)

// routePatterns is every mux pattern the server registers, in the
// order the metrics families render them. Per-route instruments are
// pre-registered against this list so the request path never creates
// a series — an unknown pattern (the mux's built-in 404, say) falls
// back to the "other" route.
var routePatterns = []string{
	"POST /v1/find",
	"POST /v1/topk",
	"POST /v1/findmany",
	"GET /v1/stream",
	"POST /v1/stream",
	"GET /healthz",
	"GET /readyz",
	"GET /metrics",
	"GET /v1/models",
	"GET /v1/models/{name}",
	"PUT /v1/models/{name}",
	"DELETE /v1/models/{name}",
	"POST /v1/datasets/{name}/append",
}

// statusClasses are the response-code classes requests are counted
// under. Index 0 catches non-standard codes (499 client-gone is 4xx;
// a zero status that never wrote a header is "other").
var statusClasses = []string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// routeMetrics is one route's pre-registered instruments. Recording a
// request touches only these — no lookups that allocate, no label
// rendering — which is what keeps the middleware off the allocation
// profile it measures.
type routeMetrics struct {
	requests [6]*obs.Counter // indexed like statusClasses
	duration *obs.Histogram
	bytes    *obs.Counter
}

// serverMetrics is the server's whole instrument set: static per-route
// series created at construction plus scrape-time collectors for the
// values owned elsewhere (cache counters, registry entry states).
type serverMetrics struct {
	reg       *obs.Registry
	inFlight  *obs.Gauge
	sseEvents *obs.Counter
	routes    map[string]*routeMetrics
	fallback  *routeMetrics
}

// newServerMetrics builds the instrument set. eng and registry are
// what the server serves — exactly one is non-nil — and feed the
// scrape-time collectors.
func newServerMetrics(eng *surf.Engine, reg *registry.Registry) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg:       r,
		inFlight:  r.Gauge("surf_http_in_flight_requests", "Requests currently being served."),
		sseEvents: r.Counter("surf_http_sse_events_total", "Server-Sent Events emitted on /v1/stream."),
		routes:    make(map[string]*routeMetrics, len(routePatterns)),
	}
	for _, pattern := range routePatterns {
		m.routes[pattern] = m.newRoute(pattern)
	}
	m.fallback = m.newRoute("other")
	m.collectKernels()

	switch {
	case reg != nil:
		m.collectRegistry(reg)
	case eng != nil:
		r.Collect("surf_result_cache_hits_total", "Result cache hits.", obs.TypeCounter,
			func(emit func(v float64, labels ...string)) {
				emit(float64(eng.CacheStats().Hits))
			})
		r.Collect("surf_result_cache_misses_total", "Result cache misses.", obs.TypeCounter,
			func(emit func(v float64, labels ...string)) {
				emit(float64(eng.CacheStats().Misses))
			})
		r.Collect("surf_result_cache_rejected_total", "Completed runs whose answer the full result cache turned away.", obs.TypeCounter,
			func(emit func(v float64, labels ...string)) {
				emit(float64(eng.CacheStats().Rejected))
			})
	}
	return m
}

// collectKernels registers the inference activity collectors, one
// series per family under kernel="scalar". The counters are
// process-wide (the compiled kernel counts every prediction, whichever
// engine served it), so both the single-engine and registry servers
// export the same families.
func (m *serverMetrics) collectKernels() {
	m.reg.Collect("surf_kernel_rows_predicted_total", "Rows predicted by the inference kernel.", obs.TypeCounter,
		func(emit func(v float64, labels ...string)) { emit(float64(kernel.Rows.Value()), "kernel", "scalar") })
	m.reg.Collect("surf_kernel_batches_total", "Prediction calls (batch or single-row) into the inference kernel.", obs.TypeCounter,
		func(emit func(v float64, labels ...string)) { emit(float64(kernel.Calls.Value()), "kernel", "scalar") })
	m.reg.Collect("surf_kernel_nanoseconds_total", "Wall nanoseconds spent inside the inference kernel.", obs.TypeCounter,
		func(emit func(v float64, labels ...string)) { emit(float64(kernel.Nanos.Value()), "kernel", "scalar") })
}

func (m *serverMetrics) newRoute(pattern string) *routeMetrics {
	rm := &routeMetrics{
		duration: m.reg.Histogram("surf_http_request_duration_seconds",
			"Wall time per request.", obs.DefBuckets, "route", pattern),
		bytes: m.reg.Counter("surf_http_response_bytes_total",
			"Response body bytes written.", "route", pattern),
	}
	for i, class := range statusClasses {
		rm.requests[i] = m.reg.Counter("surf_http_requests_total",
			"Requests served.", "route", pattern, "code", class)
	}
	return rm
}

// collectRegistry registers the scrape-time collectors over a model
// registry: per-dataset lifecycle state, version, rows, in-flight
// handles, last load duration, and the engine result-cache counters.
// Label sets only exist at scrape time — datasets register and vanish
// at runtime — so these are collectors, not static series.
func (m *serverMetrics) collectRegistry(reg *registry.Registry) {
	m.reg.Collect("surf_dataset_state", "Dataset lifecycle state (1 = current state).", obs.TypeGauge,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				emit(1, "dataset", st.Name, "state", st.State)
			}
		})
	m.reg.Collect("surf_dataset_version", "Registered spec version.", obs.TypeGauge,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				emit(float64(st.Version), "dataset", st.Name)
			}
		})
	m.reg.Collect("surf_dataset_rows", "Loaded dataset rows (0 unless ready).", obs.TypeGauge,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				emit(float64(st.Rows), "dataset", st.Name)
			}
		})
	m.reg.Collect("surf_dataset_in_flight", "Unreleased handles pinning the dataset.", obs.TypeGauge,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				emit(float64(st.InFlight), "dataset", st.Name)
			}
		})
	m.reg.Collect("surf_dataset_load_seconds", "Wall time of the last completed load, including startup training.", obs.TypeGauge,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				emit(st.LoadSeconds, "dataset", st.Name)
			}
		})
	m.reg.Collect("surf_result_cache_hits_total", "Result cache hits.", obs.TypeCounter,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				emit(float64(st.Cache.Hits), "dataset", st.Name)
			}
		})
	m.reg.Collect("surf_result_cache_misses_total", "Result cache misses.", obs.TypeCounter,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				emit(float64(st.Cache.Misses), "dataset", st.Name)
			}
		})
	m.reg.Collect("surf_result_cache_rejected_total", "Completed runs whose answer the full result cache turned away.", obs.TypeCounter,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				emit(float64(st.Cache.Rejected), "dataset", st.Name)
			}
		})
	m.reg.Collect("surf_dataset_data_version", "Served data version (1 as loaded; appends increment it).", obs.TypeGauge,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				if st.DataVersion > 0 {
					emit(float64(st.DataVersion), "dataset", st.Name)
				}
			}
		})
	m.reg.Collect("surf_dataset_drift_score", "Last drift score from replaying the training reservoir (absent until a check runs).", obs.TypeGauge,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				if st.Drift != nil && st.Drift.Checked {
					emit(st.Drift.Score, "dataset", st.Name)
				}
			}
		})
	m.reg.Collect("surf_dataset_retraining", "1 while a drift-triggered retrain is in flight.", obs.TypeGauge,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				if st.Drift != nil {
					v := 0.0
					if st.Drift.Retraining {
						v = 1
					}
					emit(v, "dataset", st.Name)
				}
			}
		})
	m.reg.Collect("surf_dataset_retrains_total", "Drift-triggered retrains completed.", obs.TypeCounter,
		func(emit func(v float64, labels ...string)) {
			for _, st := range reg.List() {
				if st.Drift != nil {
					emit(float64(st.Drift.Retrains), "dataset", st.Name)
				}
			}
		})
}

// route resolves a mux pattern to its instruments.
func (m *serverMetrics) route(pattern string) *routeMetrics {
	if rm, ok := m.routes[pattern]; ok {
		return rm
	}
	return m.fallback
}

// classIndex maps an HTTP status to its statusClasses index.
func classIndex(status int) int {
	if c := status / 100; c >= 1 && c <= 5 {
		return c
	}
	return 0
}

func (m *serverMetrics) handler() http.Handler { return m.reg.Handler() }
