// Package server exposes surf engines over HTTP — the serving layer
// of the paper's deployment story: datasets and their trained
// surrogates live in one process, and analysts (or dashboards) query
// them remotely. The protocol is plain JSON over these endpoints:
//
//	POST /v1/find            Query          → Result
//	POST /v1/topk            TopKQuery      → Result
//	POST /v1/findmany        {queries:[…]}  → per-query results
//	GET  /v1/stream          ?q= / ?topk=   → Server-Sent Events
//	POST /v1/stream          {q:…}/{topk:…} → Server-Sent Events
//	GET  /healthz                           → liveness + model status
//	GET  /readyz                            → readiness (503 until loaded)
//	GET  /metrics                           → Prometheus text exposition
//	GET  /v1/models                         → registry listing
//	GET  /v1/models/{name}                  → one entry's status
//	PUT  /v1/models/{name}   Spec           → register / hot-swap
//	DELETE /v1/models/{name}                → remove
//	POST /v1/datasets/{name}/append  {rows:[…]} → append rows (living data)
//
// Both /v1/stream forms send "event: iteration" telemetry, "event:
// region" incumbents and a terminal "event: done" — except for a query
// the engine's result cache already answers, which streams only its
// "event: done".
//
// A server built with New serves one engine; one built with
// NewRegistry serves a multi-dataset registry.Registry, routing each
// query by its "dataset" field (?dataset= for GET streams) with an
// optional default for requests that name none. The /v1/models admin
// API, per-dataset /healthz reporting and the append endpoint are
// registry-mode features; a single-engine server answers them 404
// ("no_registry").
//
// # Living data
//
// POST /v1/datasets/{name}/append commits a batch of full-width rows
// (the dataset's column order) to the entry's living store and swaps
// the new data version into its engine — queries in flight finish on
// the version they pinned, new queries see the appended rows, and the
// result cache invalidates exactly as on a model swap.
// When the entry's spec enables drift monitoring, the response (and
// the /v1/models "drift" field) carries the post-append drift score
// and whether it crossed the spec's threshold and started a
// background retrain.
//
// # Request IDs and the error envelope
//
// Every request gets an ID — a well-formed client-sent X-Request-Id
// header is honored, otherwise one is minted — echoed in the
// X-Request-Id response header and as the "request_id" field of every
// JSON response body, success and error alike. Errors share one
// envelope:
//
//	{"error": {"code": "bad_query", "message": "…", "request_id": "…"}, "request_id": "…"}
//
// The code is stable and machine-readable; the full set:
//
//	code             status  meaning
//	bad_query        400     malformed body/parameters, or invalid query (surf.ErrBadQuery)
//	dim_mismatch     400     query geometry disagrees with the engine dims (surf.ErrDimMismatch)
//	bad_spec         400     malformed model spec or one that can never load (registry.ErrBadSpec)
//	bad_append       400     append batch the store rejects (registry.ErrBadAppend)
//	unknown_dataset  404     dataset name with no registry entry (registry.ErrUnknownDataset)
//	no_registry      404     admin/routing request on a single-engine server
//	body_too_large   413     request body over the 1 MiB bound
//	no_surrogate     409     engine cannot serve surrogate queries yet (surf.ErrNoSurrogate)
//	bad_artifact     422     artifact rejected by its spec check (surf.ErrBadArtifact)
//	timeout          504     query deadline exceeded
//	canceled         499     client disconnected mid-query
//	unready          503     /readyz while the gating datasets are not ready
//	cannot_stream    501     /v1/stream over a response path that cannot flush
//	internal         500     anything else
//
// # Observability
//
// GET /metrics exposes the internal/obs registry in Prometheus text
// format: per-route request counts by status class, latency
// histograms and response bytes, the in-flight request gauge, SSE
// events emitted, result-cache hit/miss counters, the inference
// kernel's three process-wide counters (surf_kernel_rows_predicted_total,
// surf_kernel_batches_total and surf_kernel_nanoseconds_total, read
// straight from the kernel under the constant label kernel="scalar"),
// and per-dataset registry state
// (lifecycle state, version, rows, in-flight handles, load duration).
// Living-data entries add surf_dataset_data_version (the served data
// version; appends increment it) and, when drift monitoring is on,
// surf_dataset_drift_score, surf_dataset_retraining and
// surf_dataset_retrains_total. The /v1/models listing reports each
// entry's surrogate provenance as surrogate_info: statistic, filter
// and target columns, training workload size and tree count.
// WithAccessLogger adds one structured slog line per
// request. GET /healthz stays pure liveness — it answers 200 the
// moment the process serves — while GET /readyz answers 503 until the
// default dataset (or, with no default, every registered dataset) is
// ready, kicking lazy loads so readiness converges without traffic.
//
// Each request runs under its own context: a client that disconnects
// mid-query (or mid-stream) cancels the underlying swarm within one
// iteration. Serve shuts down gracefully when its context is
// cancelled, draining in-flight requests.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	surf "surf"
	"surf/registry"
)

// maxBodyBytes bounds request bodies; queries are a few hundred bytes,
// so a megabyte leaves room for large findmany batches. Oversized
// bodies answer 413.
const maxBodyBytes = 1 << 20

// maxFindManyQueries bounds one findmany batch.
const maxFindManyQueries = 256

// shutdownTimeout is how long Serve waits for in-flight requests when
// its context is cancelled before forcibly closing connections.
const shutdownTimeout = 5 * time.Second

// Server serves the query API over one engine (New) or a registry of
// them (NewRegistry). Construct with either, mount Handler on any mux
// or serve directly with Serve/ListenAndServe. Engines may be
// retrained, hot-swapped or have artifacts loaded concurrently;
// queries in flight keep the snapshot (or registry engine set) they
// started with.
type Server struct {
	eng            *surf.Engine
	reg            *registry.Registry
	defaultDataset string
	mux            *http.ServeMux
	metrics        *serverMetrics
	logger         *slog.Logger
	handler        http.Handler
}

// Option configures a Server at construction.
type Option func(*Server)

// WithAccessLogger emits one structured log line per request (route,
// dataset, status, duration, bytes, request ID) through logger. nil
// disables access logging (the default).
func WithAccessLogger(logger *slog.Logger) Option {
	return func(s *Server) { s.logger = logger }
}

// New wraps a single engine in the HTTP API. Requests carrying a
// "dataset" field answer 404: there is no registry to route by.
func New(eng *surf.Engine, opts ...Option) *Server {
	s := &Server{eng: eng}
	s.init(opts)
	return s
}

// NewRegistry serves a multi-dataset registry. Requests route by their
// "dataset" field (?dataset= for GET streams); requests naming none
// use defaultDataset, or answer 400 when it is empty.
func NewRegistry(reg *registry.Registry, defaultDataset string, opts ...Option) *Server {
	s := &Server{reg: reg, defaultDataset: defaultDataset}
	s.init(opts)
	return s
}

func (s *Server) init(opts []Option) {
	for _, opt := range opts {
		opt(s)
	}
	s.metrics = newServerMetrics(s.eng, s.reg)
	s.routes()
	// The observability chain: metrics outermost (it owns the pooled
	// status recorder the inner layers read), then request tracing,
	// then the mux. The mux stamps r.Pattern during routing, so both
	// middlewares read the matched route after serving.
	s.handler = s.metrics.withObs(withTrace(s.logger, s.mux))
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/find", s.handleFind)
	s.mux.HandleFunc("POST /v1/topk", s.handleTopK)
	s.mux.HandleFunc("POST /v1/findmany", s.handleFindMany)
	s.mux.HandleFunc("GET /v1/stream", s.handleStreamGet)
	s.mux.HandleFunc("POST /v1/stream", s.handleStreamPost)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", s.metrics.handler())
	s.mux.HandleFunc("GET /v1/models", s.handleModelsList)
	s.mux.HandleFunc("GET /v1/models/{name}", s.handleModelGet)
	s.mux.HandleFunc("PUT /v1/models/{name}", s.handleModelPut)
	s.mux.HandleFunc("DELETE /v1/models/{name}", s.handleModelDelete)
	s.mux.HandleFunc("POST /v1/datasets/{name}/append", s.handleDatasetAppend)
}

// Handler returns the server's routes, wrapped in the metrics and
// request-tracing middleware, as a standard http.Handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on l until ctx is cancelled, then shuts
// down gracefully: the listener closes, request contexts (derived
// from ctx) cancel so streams and long queries wind down, and
// in-flight handlers get shutdownTimeout to finish before connections
// are closed forcibly. Returns nil after a clean shutdown.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// No WriteTimeout: /v1/stream responses are open-ended.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		//lint:allow ctxflow: graceful shutdown must outlive the canceled serve context or every drain would abort instantly
		sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		err := srv.Shutdown(sctx)
		<-errc // srv.Serve has returned ErrServerClosed
		if err != nil {
			srv.Close()
			return fmt.Errorf("server: shutdown: %w", err)
		}
		return nil
	}
}

// ListenAndServe is Serve on a fresh TCP listener.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l)
}

// errNoRegistry answers registry-only requests on a single-engine
// server.
var errNoRegistry = errors.New("server: not serving a model registry")

// errBodyTooLarge maps an over-limit request body to 413.
var errBodyTooLarge = errors.New("server: request body too large")

// errUnready is the /readyz failure; it exists so statusFor covers
// every status the server emits.
var errUnready = errors.New("server: not ready")

// errCannotStream rejects /v1/stream when the response path cannot
// flush (a middleware or proxy writer hiding the Flusher), so SSE
// clients get a mapped envelope instead of a silent buffer.
var errCannotStream = errors.New("server: response writer cannot stream")

// acquire resolves the request's dataset to an engine plus the
// release to defer, noting the resolved name on w for the access log.
// Single-engine servers reject any explicit dataset (there is no
// registry to route by); registry servers fall back to the default
// dataset, if any, and otherwise require one.
func (s *Server) acquire(ctx context.Context, w http.ResponseWriter, dataset string) (*surf.Engine, func(), error) {
	if s.reg == nil {
		if dataset != "" {
			return nil, nil, fmt.Errorf("%w: %q (single-dataset server)", registry.ErrUnknownDataset, dataset)
		}
		return s.eng, func() {}, nil
	}
	if dataset == "" {
		dataset = s.defaultDataset
		if dataset == "" {
			return nil, nil, fmt.Errorf("%w: no dataset named and the server has no default", surf.ErrBadQuery)
		}
	}
	noteDataset(w, dataset)
	h, err := s.reg.Acquire(ctx, dataset)
	if err != nil {
		return nil, nil, err
	}
	noteDataVersion(w, h.DataVersion())
	if score, ok := h.DriftScore(); ok {
		noteDriftScore(w, score)
	}
	return h.Engine(), h.Release, nil
}

// errorBody is the unified JSON error envelope: every error response,
// on every route, is {"error": {"code", "message", "request_id"}}.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// statusFor maps an engine or registry error to an HTTP status and a
// stable machine-readable code. The code table in the package
// documentation mirrors this switch; keep them in step.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, surf.ErrBadQuery),
		errors.Is(err, surf.ErrBadConfig),
		errors.Is(err, surf.ErrUnknownColumn):
		return http.StatusBadRequest, "bad_query"
	case errors.Is(err, surf.ErrDimMismatch):
		return http.StatusBadRequest, "dim_mismatch"
	case errors.Is(err, registry.ErrBadSpec):
		return http.StatusBadRequest, "bad_spec"
	case errors.Is(err, registry.ErrBadAppend):
		return http.StatusBadRequest, "bad_append"
	case errors.Is(err, registry.ErrUnknownDataset):
		return http.StatusNotFound, "unknown_dataset"
	case errors.Is(err, errNoRegistry):
		return http.StatusNotFound, "no_registry"
	case errors.Is(err, errBodyTooLarge):
		return http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, surf.ErrNoSurrogate):
		return http.StatusConflict, "no_surrogate"
	case errors.Is(err, surf.ErrBadArtifact):
		return http.StatusUnprocessableEntity, "bad_artifact"
	case errors.Is(err, errUnready):
		return http.StatusServiceUnavailable, "unready"
	case errors.Is(err, errCannotStream):
		return http.StatusNotImplemented, "cannot_stream"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		// The client went away; the status is never seen but keeps
		// logs honest.
		return 499, "canceled"
	}
	return http.StatusInternalServerError, "internal"
}

// writeError sends the JSON error envelope for err.
func writeError(w http.ResponseWriter, err error) {
	status, code := statusFor(err)
	writeJSON(w, status, errorBody{Error: errorDetail{
		Code:      code,
		Message:   err.Error(),
		RequestID: w.Header().Get("X-Request-Id"),
	}})
}

// bodyBufs recycles response buffers. A buffer that grew past
// maxPooledBody (a large findmany answer, say) is left to the
// collector rather than pinned in the pool.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// writeJSON sends v with the given status, the request ID (from the
// X-Request-Id header the trace middleware set) as the first field of
// the top-level object.
func writeJSON(w http.ResponseWriter, status int, v any) {
	bp := bodyBufs.Get().(*[]byte)
	b, err := appendBody((*bp)[:0], w.Header().Get("X-Request-Id"), v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"response encoding failed"}}`,
			http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyBufs.Put(bp)
	}
}

// appendBody appends v's JSON form and a newline to b, with a leading
// "request_id" field when id is set. An answer (*surf.Result) is
// appended straight into b; other bodies go through json.Marshal. The
// ID is written first and v's opening brace then turned into the
// separator, rather than wrapping v in a struct: embedding a type with
// a custom MarshalJSON (Result) would promote its marshaler and
// silently drop the sibling field.
func appendBody(b []byte, id string, v any) ([]byte, error) {
	start := len(b)
	if id != "" {
		b = append(b, `{"request_id":"`...)
		b = append(b, id...) // IDs are validated [A-Za-z0-9._-], JSON-safe
		b = append(b, '"')
	}
	at := len(b)
	if res, ok := v.(*surf.Result); ok {
		b = res.AppendJSON(b)
	} else {
		data, err := json.Marshal(v)
		if err != nil {
			return b, err
		}
		b = append(b, data...)
	}
	switch {
	case id == "":
	case b[at] != '{': // not an object: no field to add
		b = append(b[:start], b[at:]...)
	case b[at+1] == '}':
		b = append(b[:at], '}')
	default:
		b[at] = ','
	}
	return append(b, '\n'), nil
}

// decodeBody strictly decodes a JSON request body into v, bounding it
// at maxBodyBytes; an over-limit body maps to 413 rather than a
// generic parse failure, and any other decode failure is a bad query.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeBodyAs(w, r, v, surf.ErrBadQuery)
}

// decodeBodyAs is decodeBody reporting decode failures as kind, for
// bodies that are not queries (a model spec is registry.ErrBadSpec).
func decodeBodyAs(w http.ResponseWriter, r *http.Request, v any, kind error) error {
	if err := decodeOne(http.MaxBytesReader(w, r.Body, maxBodyBytes), v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w: limit %d bytes", errBodyTooLarge, mbe.Limit)
		}
		return fmt.Errorf("%w: body: %v", kind, err)
	}
	return nil
}

// decodeStrict is decodeBody's policy for queries that arrive in URL
// parameters or raw JSON fragments.
func decodeStrict(data string, v any) error {
	return decodeOne(strings.NewReader(data), v)
}

// decodeOne decodes exactly one JSON value from r into v. Unknown
// fields are rejected, so a typoed knob fails loudly instead of
// silently running a default-valued query, and so is anything but
// whitespace after the value, so a second value cannot ride along
// unread.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			return errors.New("trailing data after the JSON value")
		}
		return err
	}
	return nil
}

// findRequest is a Query plus the registry routing field.
type findRequest struct {
	surf.Query
	Dataset string `json:"dataset,omitempty"`
}

// topkRequest is a TopKQuery plus the registry routing field.
type topkRequest struct {
	surf.TopKQuery
	Dataset string `json:"dataset,omitempty"`
}

// handleFind executes one threshold query.
func (s *Server) handleFind(w http.ResponseWriter, r *http.Request) {
	var req findRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	eng, release, err := s.acquire(r.Context(), w, req.Dataset)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	res, err := eng.FindContext(r.Context(), req.Query)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleTopK executes one top-k query.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req topkRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	eng, release, err := s.acquire(r.Context(), w, req.Dataset)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	res, err := eng.FindTopKContext(r.Context(), req.TopKQuery)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// findManyRequest and findManyResponse are the /v1/findmany wire
// forms. Results arrive in completion order; Index recovers each
// query's position in the request.
type findManyRequest struct {
	Dataset string       `json:"dataset,omitempty"`
	Queries []surf.Query `json:"queries"`
}

type findManyResult struct {
	Index  int          `json:"index"`
	Result *surf.Result `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
	Code   string       `json:"code,omitempty"`
}

type findManyResponse struct {
	Results []findManyResult `json:"results"`
}

// handleFindMany executes a batch of threshold queries against one
// surrogate snapshot (one pinned engine for registry datasets).
func (s *Server) handleFindMany(w http.ResponseWriter, r *http.Request) {
	var req findManyRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, fmt.Errorf("%w: findmany with no queries", surf.ErrBadQuery))
		return
	}
	if len(req.Queries) > maxFindManyQueries {
		writeError(w, fmt.Errorf("%w: findmany with %d queries (limit %d)",
			surf.ErrBadQuery, len(req.Queries), maxFindManyQueries))
		return
	}
	eng, release, err := s.acquire(r.Context(), w, req.Dataset)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	out := findManyResponse{Results: make([]findManyResult, 0, len(req.Queries))}
	for mr := range eng.FindMany(r.Context(), req.Queries) {
		fr := findManyResult{Index: mr.Index, Result: mr.Result}
		if mr.Err != nil {
			_, code := statusFor(mr.Err)
			fr.Error, fr.Code = mr.Err.Error(), code
		}
		out.Results = append(out.Results, fr)
	}
	if err := r.Context().Err(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// streamRequest is the POST /v1/stream body: exactly one of q (a
// Query) and topk (a TopKQuery), plus the registry routing field —
// the same query JSON the GET form carries in its URL parameters,
// moved into the body for filter sets too large to URL-encode.
type streamRequest struct {
	Dataset string          `json:"dataset,omitempty"`
	Q       json.RawMessage `json:"q,omitempty"`
	TopK    json.RawMessage `json:"topk,omitempty"`
}

// handleStreamGet runs one query as a Server-Sent Events stream. The
// query rides in the URL — ?q={Query JSON} for threshold queries,
// ?topk={TopKQuery JSON} for top-k, plus ?dataset={name} on a
// registry server — because EventSource clients can only issue plain
// GETs.
func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	s.serveStream(w, r, streamRequest{
		Dataset: r.URL.Query().Get("dataset"),
		Q:       json.RawMessage(r.URL.Query().Get("q")),
		TopK:    json.RawMessage(r.URL.Query().Get("topk")),
	})
}

// handleStreamPost is the GET form with the parameters as a JSON body,
// for queries too large to URL-encode. Both forms produce the same
// event stream.
func (s *Server) handleStreamPost(w http.ResponseWriter, r *http.Request) {
	var req streamRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	s.serveStream(w, r, req)
}

// serveStream is the single SSE execution path behind both stream
// routes. Each event is emitted as
//
//	event: iteration|region|done
//	data: {…}
//
// with the data payload in MarshalEvent's envelope form (the "type"
// field repeats the event name, so consumers without SSE event-name
// support can dispatch on the payload alone). The stream ends after
// "done"; a client that disconnects earlier cancels the swarm within
// one iteration. A query the result cache answers sends "done" alone.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, req streamRequest) {
	if (len(req.Q) == 0) == (len(req.TopK) == 0) {
		writeError(w, fmt.Errorf("%w: exactly one of q and topk is required", surf.ErrBadQuery))
		return
	}
	// Flushing goes through ResponseController, which unwraps the
	// middleware's recorder. Probe the capability by walking the
	// Unwrap chain — calling Flush here would commit a 200 before the
	// query even validates.
	if !canFlush(w) {
		writeError(w, errCannotStream)
		return
	}
	rc := http.NewResponseController(w)
	eng, release, err := s.acquire(r.Context(), w, req.Dataset)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()

	var st *surf.Stream
	if len(req.Q) > 0 {
		var q surf.Query
		if jerr := decodeStrict(string(req.Q), &q); jerr != nil {
			writeError(w, fmt.Errorf("%w: q: %v", surf.ErrBadQuery, jerr))
			return
		}
		st, err = eng.Stream(r.Context(), q)
	} else {
		var q surf.TopKQuery
		if jerr := decodeStrict(string(req.TopK), &q); jerr != nil {
			writeError(w, fmt.Errorf("%w: topk: %v", surf.ErrBadQuery, jerr))
			return
		}
		st, err = eng.StreamTopK(r.Context(), q)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	defer st.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	//lint:allow errenvelope: SSE commits 200 before the event loop; failures after this point are terminal stream comments, not envelopes
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	var buf []byte // one SSE frame, reused across events
	for ev, err := range st.Events() {
		if err != nil {
			// The run failed or the client disconnected. If the
			// connection is still up, surface the failure as a
			// terminal SSE comment; headers are long gone.
			fmt.Fprintf(w, ": stream error: %v\n\n", err)
			_ = rc.Flush()
			return
		}
		name := "iteration"
		switch ev.(type) {
		case surf.EventRegion:
			name = "region"
		case surf.EventDone:
			name = "done"
		}
		buf = append(buf[:0], "event: "...)
		buf = append(buf, name...)
		buf = append(buf, "\ndata: "...)
		var merr error
		if buf, merr = surf.AppendEvent(buf, ev); merr != nil {
			fmt.Fprintf(w, ": encode error: %v\n\n", merr)
			_ = rc.Flush()
			return
		}
		buf = append(buf, "\n\n"...)
		if _, werr := w.Write(buf); werr != nil {
			return // client gone; st.Events' deferred Close stops the swarm
		}
		s.metrics.sseEvents.Inc()
		_ = rc.Flush()
	}
}

// canFlush reports whether w (or any writer it wraps, following the
// ResponseController Unwrap convention) supports http.Flusher.
func canFlush(w http.ResponseWriter) bool {
	for {
		if _, ok := w.(http.Flusher); ok {
			return true
		}
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return false
		}
		w = u.Unwrap()
	}
}

// modelBody is the wire form of one registry entry's status, shared by
// the /v1/models listing and /healthz's datasets array.
type modelBody struct {
	Name    string        `json:"name"`
	Version int           `json:"version"`
	State   string        `json:"state"`
	Spec    registry.Spec `json:"spec"`
	// Rows is the loaded dataset's row count (omitted unless ready).
	Rows int `json:"rows,omitempty"`
	// Surrogate reports whether the loaded entry serves surrogate
	// queries; SurrogateInfo carries the model's provenance when it
	// does.
	Surrogate     bool               `json:"surrogate"`
	SurrogateInfo *surrogateInfoBody `json:"surrogate_info,omitempty"`
	Error         string             `json:"error,omitempty"`
	InFlight      int                `json:"in_flight,omitempty"`
	// LoadSeconds is the last completed load's wall time, including
	// startup training (omitted if never loaded).
	LoadSeconds float64 `json:"load_seconds,omitempty"`
	// Cache is the entry's engine result-cache counters (omitted
	// unless ready).
	Cache *surf.CacheStats `json:"cache,omitempty"`
	// DataVersion is the living store's served data version — 1 as
	// loaded, incremented by every append (omitted unless ready).
	DataVersion uint64 `json:"data_version,omitempty"`
	// Drift is the entry's drift-monitor status (omitted unless the
	// spec enables monitoring).
	Drift *registry.DriftStatus `json:"drift,omitempty"`
}

// surrogateInfoBody is the surrogate_info object of a /v1/models
// entry: the provenance of the model the entry serves. It names no
// inference kernel, since every surrogate runs on the same one.
type surrogateInfoBody struct {
	Statistic      string   `json:"statistic"`
	FilterColumns  []string `json:"filter_columns"`
	TargetColumn   string   `json:"target_column,omitempty"`
	TrainedQueries int      `json:"trained_queries,omitempty"`
	Trees          int      `json:"trees,omitempty"`
}

func modelBodyFor(st registry.ModelStatus) modelBody {
	b := modelBody{
		Name:        st.Name,
		Version:     st.Version,
		State:       st.State,
		Spec:        st.Spec,
		Rows:        st.Rows,
		Surrogate:   st.Surrogate,
		Error:       st.Err,
		InFlight:    st.InFlight,
		LoadSeconds: st.LoadSeconds,
		DataVersion: st.DataVersion,
		Drift:       st.Drift,
	}
	if st.State == "ready" {
		cache := st.Cache
		b.Cache = &cache
	}
	if st.Info != nil {
		b.SurrogateInfo = &surrogateInfoBody{
			Statistic:      st.Info.Statistic,
			FilterColumns:  st.Info.FilterColumns,
			TargetColumn:   st.Info.TargetColumn,
			TrainedQueries: st.Info.TrainedQueries,
			Trees:          st.Info.Trees,
		}
	}
	return b
}

// handleModelsList reports every registry entry's status.
func (s *Server) handleModelsList(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeError(w, errNoRegistry)
		return
	}
	statuses := s.reg.List()
	models := make([]modelBody, 0, len(statuses))
	for _, st := range statuses {
		models = append(models, modelBodyFor(st))
	}
	writeJSON(w, http.StatusOK, struct {
		Default string      `json:"default_dataset,omitempty"`
		Models  []modelBody `json:"models"`
	}{s.defaultDataset, models})
}

// handleModelGet reports one registry entry's status.
func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeError(w, errNoRegistry)
		return
	}
	st, err := s.reg.Status(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, modelBodyFor(st))
}

// handleModelPut registers a dataset or hot-swaps an existing one: the
// body is the whole registry.Spec the entry will run (a field left out
// takes its zero value, not the replaced spec's), and the swap is
// atomic — in-flight queries finish against the engine set they pinned
// while the next request loads the new version.
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeError(w, errNoRegistry)
		return
	}
	name := r.PathValue("name")
	var spec registry.Spec
	if err := decodeBodyAs(w, r, &spec, registry.ErrBadSpec); err != nil {
		writeError(w, err)
		return
	}
	version, err := s.reg.Register(name, spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Name    string `json:"name"`
		Version int    `json:"version"`
	}{name, version})
}

// handleModelDelete removes a dataset from the registry. In-flight
// queries finish; new requests for the name answer 404.
func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeError(w, errNoRegistry)
		return
	}
	name := r.PathValue("name")
	if err := s.reg.Remove(name); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Name    string `json:"name"`
		Removed bool   `json:"removed"`
	}{name, true})
}

// appendRequest is the POST /v1/datasets/{name}/append body: a batch
// of full-width rows, each in the dataset's column order.
type appendRequest struct {
	Rows [][]float64 `json:"rows"`
}

// appendResponse reports one committed append: the data version it
// published, the dataset's new total row count, and — for entries
// that monitor drift — the post-append drift status and whether it
// started a background retrain.
type appendResponse struct {
	Name           string                `json:"name"`
	DataVersion    uint64                `json:"data_version"`
	Rows           int                   `json:"rows"`
	Appended       int                   `json:"appended"`
	Drift          *registry.DriftStatus `json:"drift,omitempty"`
	RetrainStarted bool                  `json:"retrain_started,omitempty"`
}

// handleDatasetAppend commits rows to a registry entry's living store
// and swaps the new data version into its engine. The body
// rides under the same 1 MiB bound as every other route; batches the
// store rejects (wrong width, empty, non-finite values) answer 400
// "bad_append" with nothing changed.
func (s *Server) handleDatasetAppend(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeError(w, errNoRegistry)
		return
	}
	name := r.PathValue("name")
	noteDataset(w, name)
	var req appendRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	res, err := s.reg.Append(r.Context(), name, req.Rows)
	if err != nil {
		writeError(w, err)
		return
	}
	noteDataVersion(w, res.Version)
	body := appendResponse{
		Name:           name,
		DataVersion:    res.Version,
		Rows:           res.Rows,
		Appended:       res.Appended,
		Drift:          res.Drift,
		RetrainStarted: res.RetrainStarted,
	}
	if res.Drift != nil {
		noteDriftScore(w, res.Drift.Score)
	}
	writeJSON(w, http.StatusOK, body)
}

// healthzBody is the single-engine /healthz response.
type healthzBody struct {
	Status    string   `json:"status"`
	Dims      int      `json:"dims"`
	Surrogate bool     `json:"surrogate"`
	Statistic string   `json:"statistic,omitempty"`
	Filters   []string `json:"filter_columns,omitempty"`
}

// registryHealthzBody is the registry-mode /healthz response: overall
// liveness plus per-dataset readiness.
type registryHealthzBody struct {
	Status   string      `json:"status"`
	Default  string      `json:"default_dataset,omitempty"`
	Datasets []modelBody `json:"datasets"`
}

// handleHealthz reports liveness — it answers 200 whenever the process
// serves, never gating on model state (that is /readyz's job). A
// single-engine server reports whether its engine can serve surrogate
// queries (surrogate-less engines still answer use_true_function
// queries); a registry server reports every dataset's name, version
// and lifecycle state (unloaded, loading, training, ready, failed,
// evicted).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		body := healthzBody{Status: "ok", Dims: s.eng.Dims(), Surrogate: s.eng.HasSurrogate()}
		if info, ok := s.eng.SurrogateInfo(); ok {
			body.Statistic = info.Statistic
			body.Filters = info.FilterColumns
		}
		writeJSON(w, http.StatusOK, body)
		return
	}
	statuses := s.reg.List()
	body := registryHealthzBody{Status: "ok", Default: s.defaultDataset, Datasets: make([]modelBody, 0, len(statuses))}
	for _, st := range statuses {
		body.Datasets = append(body.Datasets, modelBodyFor(st))
	}
	writeJSON(w, http.StatusOK, body)
}

// readyzBody is the /readyz response: the gating datasets and their
// states, with status "ready" (200) or "unready" (503).
type readyzBody struct {
	Status   string        `json:"status"`
	Datasets []readyzState `json:"datasets,omitempty"`
}

type readyzState struct {
	Name  string `json:"name"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// handleReadyz reports readiness for load-balancer integration: 200
// exactly when the gating datasets — the default dataset if one is
// configured, every registered dataset otherwise — are ready, 503
// until then. Because registry entries load lazily, each probe also
// kicks (Registry.Warm) the loads of cold gating entries, so a
// freshly started server converges to ready under health checks
// alone, without waiting for query traffic. A single-engine server is
// ready as soon as it serves: its engine was fully constructed before
// the listener opened.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeJSON(w, http.StatusOK, readyzBody{Status: "ready"})
		return
	}
	var gating []registry.ModelStatus
	if s.defaultDataset != "" {
		st, err := s.reg.Status(s.defaultDataset)
		if err != nil {
			writeError(w, err)
			return
		}
		gating = []registry.ModelStatus{st}
	} else {
		gating = s.reg.List()
	}
	body := readyzBody{Status: "ready", Datasets: make([]readyzState, 0, len(gating))}
	ready := true
	for _, st := range gating {
		if st.State != "ready" {
			ready = false
			_ = s.reg.Warm(st.Name)
		}
		body.Datasets = append(body.Datasets, readyzState{Name: st.Name, State: st.State, Error: st.Err})
	}
	if !ready {
		body.Status = "unready"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
