// Package endpoint implements the SPARQL 1.1 Protocol over HTTP: a
// server exposing a store.Store at /sparql (query) and /update, and a
// client for driving remote endpoints. Together they substitute for the
// Virtuoso 7 endpoint used in the QB2OLAP paper.
//
// Concurrency contract: Server, Local, and Remote are all safe for
// concurrent use. Query requests run lock-free on the shared engine,
// each on the one store snapshot it pinned when it started; only
// mutating requests (updates and loads) are serialized, by
// Server.updateMu, so that the read and write phases of DELETE/INSERT
// WHERE form one atomic transition. A query racing an update request
// therefore sees the store between two of the request's operations,
// never inside one — per-query snapshot isolation with each update
// operation atomic (a bulk load: each 4096-triple chunk).
package endpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
	"repro/internal/vocab"
)

// Server serves the SPARQL protocol over a store. It is safe for
// concurrent use: net/http serves every request on its own goroutine,
// and queries run lock-free against the engine at full concurrency.
//
// Read/write interaction (audited): query traffic deliberately bypasses
// updateMu. The engine evaluates every query against one immutable
// store.Snapshot and applies every update operation as one store.Batch,
// so a query that overlaps an update request observes some prefix of
// the request's operations, each of them whole — snapshot isolation per
// query, not a transaction across a multi-operation request, which
// matches the SPARQL protocol's lack of cross-request transaction
// semantics. updateMu exists only to serialize engine-visible
// state *transitions*: two concurrent DELETE/INSERT WHERE updates could
// otherwise interleave their read and write phases and lose writes.
type Server struct {
	engine *sparql.Engine

	// updateMu serializes mutating requests (/update and /load) with
	// each other only; queries never take it.
	updateMu sync.Mutex

	// ReadOnly rejects /update and /load requests with 403, for
	// endpoints that publish data without accepting writes.
	ReadOnly bool

	// Logger receives structured access logs (one Info line per
	// request) and the slow-query log (Warn lines carrying the query
	// text). Nil disables request logging; metrics still record.
	Logger *slog.Logger

	// SlowQuery is the slow-query log threshold: /sparql requests
	// taking at least this long are counted in slow_queries_total and,
	// when Logger is set, logged at Warn with the offending query text.
	// Zero disables the slow-query log.
	SlowQuery time.Duration

	// QueryTimeout bounds each /sparql evaluation. An expired query
	// returns 504 Gateway Timeout (with the partial trace collected so
	// far when the query was traced) — or, once its body has started,
	// the "timeout" stream-error trailer — and counts in
	// queries_timeout_total. Zero disables the per-query deadline; the
	// request context still cancels evaluation when the caller
	// disconnects. Set before the first request.
	QueryTimeout time.Duration

	// MaxInFlight bounds concurrently evaluating /sparql requests.
	// Excess queries are shed immediately — 503 + Retry-After, counted
	// in queries_shed_total — rather than queued, so an overloaded
	// server stays responsive instead of accumulating work it cannot
	// finish. Zero means unbounded. Set before the first request.
	MaxInFlight int

	inflightOnce sync.Once
	inflight     chan struct{}

	// Tracer, when set, records a per-operator trace of sampled /sparql
	// SELECT/ASK evaluations (served at /debug/traces) and folds the
	// spans into the registry's op.* totals. Nil — the default — keeps
	// query evaluation on the engine's untraced fast path; individual
	// queries can still be traced on demand with /sparql?explain=1.
	Tracer *obs.Tracer

	// Sampler decides which queries the Tracer/Exporter record, so
	// tracing can stay always-on under production load. Nil samples
	// everything (the pre-sampling behaviour). Requests arriving with a
	// W3C traceparent header bypass the sampler entirely: the caller's
	// sampled flag is honored, the propagated trace ID is adopted, and
	// a sampled request additionally gets the server's serialized span
	// tree back (see respond) so the caller can stitch one end-to-end
	// trace.
	Sampler *obs.Sampler

	// Exporter, when set, appends every recorded trace as JSONL (the
	// durable archive `qb2olap trace` analyzes). Export failures are
	// counted on the exporter but never fail the request.
	Exporter *obs.Exporter

	// Debug mounts the diagnostics routes (/debug/vars, /debug/pprof,
	// /debug/traces, /debug/slow) on the protocol handler itself. Leave
	// false when a separate DebugHandler listener serves them (sparqld
	// -debug-addr).
	Debug bool

	// Slow retains the most recent slow queries for /debug/slow,
	// bounded in entries and query-text bytes. Created by NewServer;
	// entries are only recorded when SlowQuery is set.
	Slow *obs.SlowLog

	// Workload aggregates per-shape query statistics (normalized query
	// hash → count, latency quantiles, rows, bytes) for /workload.
	// Created by NewServer with the default shape bound; ?cost=1
	// requests are excluded since they plan without evaluating.
	Workload *obs.Workload

	// Resources is the server-wide resource tracker behind the
	// query_mem_inflight_bytes / query_mem_highwater_bytes gauges.
	// Created by NewServer and installed on the engine, so every query
	// — HTTP or in-process via Engine() — accounts against it.
	Resources *obs.ResourceTracker

	// MaxQueryMem, when > 0, bounds the approximate bytes one query may
	// hold materialized at once. An over-budget query is aborted with
	// 429 Too Many Requests (plus the X-Qb2olap-Mem-Limit marker header
	// so clients know not to retry) and counted in
	// queries_over_mem_total. Zero disables the limit; accounting still
	// runs for the gauges. Set before the first request.
	MaxQueryMem int64

	// Profiler, when set, captures trace-ID-stamped heap (and CPU)
	// profiles into a size-bounded directory whenever a /sparql request
	// crosses ProfileLatency or its account's peak crosses
	// ProfileMemBytes. Captures count in profiles_captured_total. Set
	// all three before the first request (sparqld -profile-dir,
	// -profile-latency, -profile-mem).
	Profiler        *obs.Profiler
	ProfileLatency  time.Duration
	ProfileMemBytes int64

	// Series, when set, is the registry's time-series history: it adds
	// /timeseries (windowed JSON API) and /debug/dash (self-refreshing
	// HTML dashboard) to the handler, and powers the windowed shed-rate
	// readiness check. The caller owns the sampling loop (Series.Start).
	Series *obs.TimeSeries

	// Alerts, when set, is the burn-rate alert evaluator over Series;
	// it adds /alerts to the handler. Hook Alerts.Eval into
	// Series.OnTick so rules re-evaluate once per sampling tick.
	Alerts *obs.Alerts

	// ReadyMaxShedRate, when > 0 with Series set, flips /readyz to 503
	// while the shed rate (queries_shed_total / queries_total) over
	// ReadyShedWindow (default 1m) exceeds it — a drowning node asks
	// its load balancer to drain, while /healthz (liveness) stays 200
	// so the process is not restarted for being popular.
	ReadyMaxShedRate float64
	ReadyShedWindow  time.Duration

	// inflightN tracks /sparql requests currently in the handler, for
	// the queries_inflight gauge (the shedding limiter in acquire()
	// bounds evaluation; this gauge reports it).
	inflightN atomic.Int64

	// Request metrics, all served at /metrics.
	reg                        *obs.Registry
	mQueries, mUpdates, mLoads *obs.Counter
	mErrors, mFailed, mSlow    *obs.Counter
	mShed, mTimeout, mCanceled *obs.Counter
	mOverMem, mProfiles        *obs.Counter
	mCost, mCostUnavail        *obs.Counter
	hQuery, hUpdate, hLoad     *obs.Histogram
}

// NewServer returns a protocol server over st. Engine options (e.g.
// sparql.WithPlanner) configure the embedded engine.
func NewServer(st *store.Store, opts ...sparql.Option) *Server {
	s := &Server{reg: obs.NewRegistry(), Resources: obs.NewResourceTracker()}
	// The tracker option precedes the caller's so an explicit
	// WithResources still wins; the engine-level tracker makes direct
	// Engine() use account against the same gauges as HTTP traffic.
	s.engine = sparql.NewEngine(st, append([]sparql.Option{sparql.WithResources(s.Resources)}, opts...)...)
	s.Workload = obs.NewWorkload(0)
	s.mQueries = s.reg.Counter("queries_total")
	s.mUpdates = s.reg.Counter("updates_total")
	s.mLoads = s.reg.Counter("loads_total")
	s.mErrors = s.reg.Counter("errors_total")
	s.mFailed = s.reg.Counter("queries_failed_total")
	s.mSlow = s.reg.Counter("slow_queries_total")
	s.mShed = s.reg.Counter("queries_shed_total")
	s.mTimeout = s.reg.Counter("queries_timeout_total")
	s.mCanceled = s.reg.Counter("queries_canceled_total")
	s.mOverMem = s.reg.Counter("queries_over_mem_total")
	s.mProfiles = s.reg.Counter("profiles_captured_total")
	s.mCost = s.reg.Counter("cost_estimates_total")
	s.mCostUnavail = s.reg.Counter("cost_unavailable_total")
	s.hQuery = s.reg.Histogram("query_latency")
	s.hUpdate = s.reg.Histogram("update_latency")
	s.hLoad = s.reg.Histogram("load_latency")
	s.reg.Gauge("store_quads", func() int64 { return int64(st.TotalLen()) })
	s.reg.Gauge("store_terms", func() int64 { return int64(st.Dict().Len()) })
	s.reg.Gauge("store_graphs", func() int64 { return int64(len(st.GraphNames())) })
	// Statistics gauges sample the lazy per-graph statistics cache;
	// after a write burst the first snapshot repays the recompute, every
	// later one is a map lookup.
	s.reg.Gauge("store_distinct_subjects", func() int64 {
		return int64(st.GraphStat(store.NoID).DistinctSubjects)
	})
	s.reg.Gauge("store_distinct_predicates", func() int64 {
		return int64(st.GraphStat(store.NoID).DistinctPredicates)
	})
	s.reg.Gauge("store_distinct_objects", func() int64 {
		return int64(st.GraphStat(store.NoID).DistinctObjects)
	})
	// Resource gauges: bytes currently held by in-flight queries, and
	// the server-lifetime high-water mark of that figure — the pair an
	// operator compares when sizing -max-query-mem.
	s.reg.Gauge("query_mem_inflight_bytes", s.Resources.Inflight)
	s.reg.Gauge("query_mem_highwater_bytes", s.Resources.HighWater)
	s.reg.Gauge("queries_inflight", s.inflightN.Load)
	// Go runtime telemetry (goroutines, heap, GC pause p99): the
	// server-side half of a load investigation — driver-observed latency
	// spikes line up against these or they don't, which localizes the
	// problem to the server or the path to it.
	obs.RegisterRuntimeGauges(s.reg)
	s.Slow = obs.NewSlowLog(64)
	return s
}

// Engine exposes the underlying engine (used by tests and tools running
// in-process).
func (s *Server) Engine() *sparql.Engine { return s.engine }

// Metrics exposes the server's metrics registry (served at /metrics),
// so embedders can add their own gauges (sparqld registers the
// ql.Choose decision counters this way) or publish it via expvar.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the HTTP handler implementing the protocol routes:
//
//	GET/POST /sparql  — query (query=..., Accept: json/csv/tsv;
//	                    &explain=1 returns an EXPLAIN ANALYZE trace;
//	                    &cost=1 returns the planner's estimated cost
//	                    as JSON without evaluating)
//	POST     /update  — update (update=... or raw body)
//	POST     /load    — load Turtle into a graph (?graph=IRI optional)
//	GET      /stats   — store statistics
//	GET      /metrics — metrics registry snapshot (JSON by default;
//	                    Prometheus text for Accept: text/plain)
//	GET      /workload— per-shape workload statistics (JSON by default;
//	                    text for Accept: text/plain or ?text=1)
//	GET      /healthz — liveness probe (200 once serving)
//	GET      /readyz  — readiness probe (store snapshot + statistics)
//
// plus, when Debug is set, the /debug/ diagnostics of DebugHandler.
// Every route is wrapped in the instrumentation middleware (metrics,
// access log, slow-query log).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", s.handleQuery)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/load", s.handleLoad)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", s.reg)
	if s.Workload != nil {
		mux.HandleFunc("/workload", obs.WorkloadHandler(s.Workload))
	}
	s.mountSeries(mux)
	if s.Debug {
		obs.RegisterDebug(mux, nil, s.Tracer, s.Slow, nil) // /metrics, /workload already mounted
	}
	return s.instrument(mux)
}

// mountSeries adds the time-series surfaces to a mux when enabled:
// /timeseries and /debug/dash over Series, /alerts over Alerts.
func (s *Server) mountSeries(mux *http.ServeMux) {
	if s.Series != nil {
		mux.HandleFunc("/timeseries", obs.TimeSeriesHandler(s.Series))
		mux.HandleFunc("/debug/dash", obs.DashHandler(s.Series, s.Alerts, obs.DefaultDashConfig()))
	}
	if s.Alerts != nil {
		mux.HandleFunc("/alerts", obs.AlertsHandler(s.Alerts))
	}
}

// DebugHandler returns the standalone diagnostics mux (/metrics,
// /debug/vars, /debug/pprof, /debug/traces, /debug/slow, and — when
// Series/Alerts are set — /timeseries, /debug/dash, /alerts) for
// serving on a separate address, keeping profilers off the protocol
// listener.
func (s *Server) DebugHandler() http.Handler {
	mux := obs.DebugMux(s.reg, s.Tracer, s.Slow, s.Workload)
	s.mountSeries(mux)
	return mux
}

// obsResponseWriter captures the response status and size for the
// middleware, and carries the query text from the /sparql handler to
// the slow-query log.
type obsResponseWriter struct {
	http.ResponseWriter
	status  int
	bytes   int
	query   string
	traceID obs.TraceID
	// acct is the request's resource account, read by the middleware
	// after the handler (and the account's Finish) have returned — the
	// cumulative totals survive Finish, only the in-flight figure is
	// released.
	acct *obs.QueryAcct
	// costOnly marks ?cost=1 requests, which plan without evaluating:
	// they get their own access-log outcome and stay out of the
	// workload registry.
	costOnly bool
	// streamErr is the stream-error trailer code of a query that failed
	// after its 200 was committed; the middleware books the request
	// under the status the same failure has before the body starts.
	streamErr string
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush (an embedded interface hides it from type assertions).
func (w *obsResponseWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *obsResponseWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsResponseWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// instrument wraps the protocol mux with request-level observability:
// per-route counters and latency histograms, structured access logs,
// and the slow-query log.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ow := &obsResponseWriter{ResponseWriter: w, status: http.StatusOK}
		route := r.URL.Path
		if route == "/sparql" {
			s.inflightN.Add(1)
		}
		next.ServeHTTP(ow, r)
		if route == "/sparql" {
			s.inflightN.Add(-1)
		}
		d := time.Since(start)
		// A mid-stream abort answered 200 on the wire; everything below
		// — counters, outcome, workload, slow log — sees the status the
		// same failure gets before the body starts.
		status := ow.status
		if ow.streamErr != "" {
			status = streamErrStatus(ow.streamErr)
		}
		switch route {
		case "/sparql":
			s.mQueries.Inc()
			s.hQuery.Observe(d)
		case "/update":
			s.mUpdates.Inc()
			s.hUpdate.Observe(d)
		case "/load":
			s.mLoads.Inc()
			s.hLoad.Observe(d)
		}
		if status >= 400 {
			s.mErrors.Inc()
		}
		// queries_failed_total counts user-visible /sparql failures —
		// the numerator of the alerting error rate. Sheds (503) and
		// client disconnects (499) are excluded: shedding has its own
		// rate, and a caller hanging up is not a server failure.
		if route == "/sparql" && !ow.costOnly && status >= 400 &&
			status != http.StatusServiceUnavailable && status != statusClientClosedRequest {
			s.mFailed.Inc()
		}
		// Resilience outcome for the access log: shed, timeout, and
		// canceled lines are what an operator greps for when tuning
		// -max-inflight and -query-timeout. The same classification
		// (minus the cost-only cases) feeds the per-shape outcome
		// counters of the workload registry.
		outcome := "ok"
		wlOutcome := obs.OutcomeOK
		switch {
		case ow.costOnly && status == http.StatusConflict:
			outcome = "cost-unavailable"
		case ow.costOnly && status < 400:
			outcome = "cost"
		case route == "/sparql" && status == http.StatusServiceUnavailable:
			outcome, wlOutcome = "shed", obs.OutcomeShed
		case route == "/sparql" && status == http.StatusTooManyRequests:
			outcome, wlOutcome = "over-mem", obs.OutcomeError
		case status == http.StatusGatewayTimeout:
			outcome, wlOutcome = "timeout", obs.OutcomeTimeout
		case status == statusClientClosedRequest:
			outcome, wlOutcome = "canceled", obs.OutcomeCanceled
		case status >= 400:
			outcome, wlOutcome = "error", obs.OutcomeError
		}
		var rows, mem, peak int64
		if ow.acct != nil {
			rows, mem, peak = ow.acct.Rows(), ow.acct.Bytes(), ow.acct.Peak()
		}
		// Workload fingerprinting: every /sparql query joins its shape
		// bucket, classified by outcome — shed and timed-out shapes show
		// up as such, not as generic errors. ?cost=1 requests plan
		// without evaluating and stay out.
		if route == "/sparql" && ow.query != "" && !ow.costOnly && s.Workload != nil {
			s.Workload.Record(ow.query, d, rows, mem, wlOutcome)
		}
		slow := route == "/sparql" && !ow.costOnly && s.SlowQuery > 0 && d >= s.SlowQuery
		if slow {
			s.mSlow.Inc()
			entry := obs.SlowEntry{
				When: start, Duration: d, Query: ow.query, Status: status,
				TraceID: ow.traceID, Shape: obs.ShapeHash(ow.query),
				Rows: rows, MemBytes: mem, MemPeak: peak,
			}
			// Price the query after the fact so the slow-query log pairs
			// estimated cost with measured latency; the planning pass is
			// only paid for queries already past the slow threshold.
			if s.engine.PlannerEnabled() {
				if q, perr := sparql.ParseQuery(ow.query); perr == nil {
					entry.EstCost = s.engine.Plan(q).Cost
				}
			}
			s.Slow.Record(entry)
		}
		// Threshold-triggered profiling: a request that blows past the
		// latency or peak-memory threshold captures a trace-ID-stamped
		// heap (and CPU) profile, rate-limited and size-capped by the
		// profiler itself.
		if s.Profiler != nil && route == "/sparql" {
			switch {
			case s.ProfileLatency > 0 && d >= s.ProfileLatency:
				if _, ok := s.Profiler.MaybeCapture("slow", ow.traceID); ok {
					s.mProfiles.Inc()
				}
			case s.ProfileMemBytes > 0 && peak >= s.ProfileMemBytes:
				if _, ok := s.Profiler.MaybeCapture("mem", ow.traceID); ok {
					s.mProfiles.Inc()
				}
			}
		}
		if s.Logger == nil {
			return
		}
		// The trace ID joins access-log lines against /debug/slow and the
		// exported trace archive.
		s.Logger.Info("request",
			"method", r.Method, "path", route, "status", status,
			"outcome", outcome, "bytes", ow.bytes, "dur", d,
			"trace", string(ow.traceID))
		if slow {
			s.Logger.Warn("slow query",
				"dur", d, "threshold", s.SlowQuery, "status", status,
				"rows", rows, "mem", mem, "peak", peak,
				"trace", string(ow.traceID), "query", ow.query)
		}
	})
}

// statusClientClosedRequest is the nginx-convention status recorded
// when the caller disconnected before the query finished. The response
// itself is unsendable; the code exists for the access log and metrics.
const statusClientClosedRequest = 499

// acquire takes an in-flight query slot, reporting false when the
// server is saturated and the query should be shed. The returned
// release must be called once evaluation finishes.
func (s *Server) acquire() (release func(), ok bool) {
	if s.MaxInFlight <= 0 {
		return func() {}, true
	}
	s.inflightOnce.Do(func() { s.inflight = make(chan struct{}, s.MaxInFlight) })
	select {
	case s.inflight <- struct{}{}:
		return func() { <-s.inflight }, true
	default:
		return nil, false
	}
}

// queryContext derives the evaluation context for one /sparql request:
// the request context (so a disconnecting caller cancels evaluation),
// bounded by QueryTimeout when set.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.QueryTimeout)
	}
	return r.Context(), func() {}
}

// MemLimitHeader marks a 429 as a per-query memory-limit rejection
// rather than rate limiting. Remote treats a 429 carrying it as
// non-retryable: the same query against the same limit will fail the
// same way, so retrying only re-spends the work.
const MemLimitHeader = "X-Qb2olap-Mem-Limit"

// StreamErrorTrailer is the HTTP trailer carrying the outcome of a
// streamed query that failed after the 200 status line was already
// sent. A streaming response commits its status before evaluation
// finishes; when evaluation then fails mid-stream, the server truncates
// the body and names the failure here — "mem-limit", "timeout",
// "canceled", or "internal" — so Remote can surface a typed error
// instead of mistaking the truncated document for a transport fault.
const StreamErrorTrailer = "X-Qb2olap-Stream-Error"

// Stream-error codes: the one classification of an evaluation failure,
// sent as the trailer value mid-stream and mapped to a status
// (streamErrStatus) before the body starts.
const (
	streamErrMemLimit = "mem-limit"
	streamErrTimeout  = "timeout"
	streamErrCanceled = "canceled"
	streamErrInternal = "internal"
)

// streamErrorCode classifies an evaluation error, counting it in the
// outcome metrics.
func (s *Server) streamErrorCode(err error) string {
	var mle *sparql.MemLimitError
	switch {
	case errors.As(err, &mle):
		s.mOverMem.Inc()
		return streamErrMemLimit
	case errors.Is(err, context.DeadlineExceeded):
		s.mTimeout.Inc()
		return streamErrTimeout
	case errors.Is(err, context.Canceled):
		s.mCanceled.Inc()
		return streamErrCanceled
	default:
		return streamErrInternal
	}
}

// streamErrStatus is the protocol status of a stream-error code:
// memory-limit abort → 429 Too Many Requests, deadline expiry → 504
// Gateway Timeout, caller disconnect → 499 (client closed request),
// anything else → 500.
func streamErrStatus(code string) int {
	switch code {
	case streamErrMemLimit:
		return http.StatusTooManyRequests
	case streamErrTimeout:
		return http.StatusGatewayTimeout
	case streamErrCanceled:
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeEvalError answers an evaluation error that arrived while the
// status line was still open (a 429 carries MemLimitHeader).
func (s *Server) writeEvalError(w http.ResponseWriter, err error) {
	code, msg := s.streamErrorCode(err), err.Error()
	switch code {
	case streamErrMemLimit:
		w.Header().Set(MemLimitHeader, "1")
	case streamErrTimeout:
		msg = "query timed out: " + msg
	}
	http.Error(w, msg, streamErrStatus(code))
}

// rowEncoder is the shape the result serializations share
// (sparql.ResultsEncoder, sparql.TextEncoder).
type rowEncoder interface {
	Head(vars []string) error
	Rows(rows [][]rdf.Term) error
	Close() error
}

// respond evaluates a SELECT or ASK through the engine's streaming
// entry and writes the result — the one response path of every such
// request, whatever its format and whether or not it is traced. The
// body is encoded chunk by chunk as the pipeline produces rows, and
// flushed whenever another chunk follows, so the server never holds a
// result table. The status line is
// deferred until the first chunk (or a clean EOF) arrives, so errors at
// the first chunk boundary — notably a tiny -max-query-mem tripping
// immediately — still get their proper 429/504 status; only an error
// after bytes have flowed falls back to the trailer.
//
// Tracing. ?explain=1 (any non-empty value) always traces and returns
// the EXPLAIN ANALYZE tree instead of the results: it counts the rows
// and writes nothing until evaluation ends. A request carrying a W3C
// traceparent header adopts the caller's trace ID and sampling verdict
// — honored in both directions, so a 1%-sampling client costs the
// server nothing on the other 99% — and a sampled one gets the server's
// span tree back for stitching. Otherwise a server with trace sinks
// applies its own Sampler (nil samples all). The span tree is complete
// only when evaluation ends: it travels in the X-Qb2olap-Trace header
// while the status line is still open (every pre-body failure, so a 504
// carries the partial trace that shows where the deadline went) and
// otherwise closes the JSON document as its "trace" member.
func (s *Server) respond(ctx context.Context, w *obsResponseWriter, r *http.Request, q *sparql.Query) {
	explain := r.FormValue("explain") != ""
	tp, hasTP := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	traced := explain
	switch {
	case hasTP:
		w.traceID = tp.TraceID
		traced = traced || tp.Sampled
	case s.Tracer != nil || s.Exporter != nil:
		w.traceID = obs.NewTraceID()
		traced = traced || s.Sampler.Sample(w.traceID)
	}
	var evalID obs.TraceID // empty = the engine's untraced path
	if traced {
		if w.traceID == "" {
			w.traceID = obs.NewTraceID()
		}
		evalID = w.traceID
	}

	var enc rowEncoder
	var jsonEnc *sparql.ResultsEncoder
	accept, ctype := r.Header.Get("Accept"), "application/sparql-results+json"
	switch {
	case strings.Contains(accept, "text/csv"):
		enc, ctype = sparql.NewCSVEncoder(w), "text/csv"
	case strings.Contains(accept, "text/tab-separated-values"):
		enc, ctype = sparql.NewTSVEncoder(w), "text/tab-separated-values"
	default:
		jsonEnc = sparql.NewResultsEncoder(w)
		enc = jsonEnc
	}

	flush := http.NewResponseController(w)
	var vars []string
	started, rows := false, 0
	begin := func() error {
		w.Header().Set("Content-Type", ctype)
		w.Header().Set("Trailer", StreamErrorTrailer)
		started = true
		return enc.Head(vars)
	}
	tr, err := s.engine.Stream(ctx, q, evalID,
		func(hd []string) error { vars = hd; return nil },
		func(chunk [][]rdf.Term) error {
			if rows += len(chunk); explain {
				return nil
			}
			if !started {
				if err := begin(); err != nil {
					return err
				}
			} else {
				// More rows are coming, so what the earlier chunks left in
				// net/http's buffer goes out now instead of when it next
				// fills. A first chunk is not flushed on its own: most
				// results are one chunk, and the flush would split each
				// into two writes (+5–10 % CPU per op on enrich-3k).
				flush.Flush() //nolint:errcheck // a writer that cannot flush buffers instead
			}
			return enc.Rows(chunk)
		})
	if tr != nil {
		tr.Query = w.query
		s.Tracer.Collect(tr) // nil-safe
		s.reg.ObserveTrace(tr)
		s.Exporter.Export(tr) // nil-safe; failures count on the exporter
		if hasTP && tp.Sampled {
			if wire, ok := obs.EncodeSpanWire(tr.Root); ok && !started {
				w.Header().Set(obs.ServerTraceHeader, wire)
			} else if ok && jsonEnc != nil {
				jsonEnc.SetTrace(wire)
			}
		}
	}
	switch {
	case err != nil && !started:
		s.writeEvalError(w, err)
	case err != nil:
		// Mid-stream failure: the 200 is committed, so truncate the body
		// and name the failure in the trailer.
		w.streamErr = s.streamErrorCode(err)
		w.Header().Set(StreamErrorTrailer, w.streamErr)
	case explain:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%s\n%d result row(s)\n", tr.Render(), rows)
	default:
		if !started {
			if err := begin(); err != nil {
				return
			}
		}
		enc.Close() //nolint:errcheck // a failed final write has no recovery
	}
}

func (s *Server) handleQuery(rw http.ResponseWriter, r *http.Request) {
	// The middleware's writer carries what the handler learns about the
	// request (query text, trace ID, account, outcome) back to it.
	w, ok := rw.(*obsResponseWriter)
	if !ok {
		w = &obsResponseWriter{ResponseWriter: rw}
	}
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var err error
	if w.query, err = requestText(r, "query"); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if w.query == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return
	}

	// Load shedding happens before parsing: when the server is
	// saturated the cheapest possible rejection is the point.
	release, ok := s.acquire()
	if !ok {
		s.mShed.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("server is at its in-flight query limit (%d)", s.MaxInFlight),
			http.StatusServiceUnavailable)
		return
	}
	defer release()

	q, err := sparql.ParseQuery(w.query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// ?cost=1 (any non-empty value) returns the planner's estimated
	// C_out cost as JSON without evaluating the query — the plan-cost
	// surface Remote.EstimateCost consumes and internal/ql's translation
	// selection builds on. 409 when the server's planner is off, so
	// remote callers fall back to their heuristic instead of trusting a
	// cost the evaluator would not follow.
	if r.FormValue("cost") != "" {
		w.costOnly = true
		if !s.engine.PlannerEnabled() {
			s.mCostUnavail.Inc()
			http.Error(w, "cost estimate unavailable: planner disabled (-planner=off)", http.StatusConflict)
			return
		}
		s.mCost.Inc()
		p := s.engine.Plan(q)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(costResponse{"on", p.Cost, p.Reordered, p.PushedFilters}) //nolint:errcheck
		return
	}

	ctx, cancel := s.queryContext(r)
	defer cancel()

	// Per-request resource account: the engine adopts it (a
	// context-injected account always wins), so the middleware can read
	// rows/bytes/peak after the handler returns. Finish is deferred, so
	// whatever the query still holds stays on the in-flight gauge until
	// the response has been written.
	w.acct = obs.NewQueryAcct(s.Resources, s.MaxQueryMem)
	defer w.acct.Finish()
	ctx = sparql.WithQueryAcct(ctx, w.acct)

	// CONSTRUCT and DESCRIBE are breakers — their output is one
	// deduplicated, sorted N-Triples document — so they answer from the
	// finished graph, under the same error mapping as respond.
	if q.Form == sparql.FormConstruct || q.Form == sparql.FormDescribe {
		eval := s.engine.ConstructContext
		if q.Form == sparql.FormDescribe {
			eval = s.engine.DescribeContext
		}
		triples, err := eval(ctx, q)
		if err != nil {
			s.writeEvalError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/n-triples")
		turtle.WriteNTriples(w, triples) //nolint:errcheck // a failed write has no recovery
		return
	}
	s.respond(ctx, w, r, q)
}

// requestText extracts the operation text of a protocol request — key
// is "query" or "update": the raw body when it is sent directly
// (application/sparql-<key>), else the form or URL parameter named key.
func requestText(r *http.Request, key string) (string, error) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/sparql-"+key) {
		body, err := io.ReadAll(r.Body)
		return string(body), err
	}
	if err := r.ParseForm(); err != nil {
		return "", err
	}
	return r.Form.Get(key), nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.ReadOnly {
		http.Error(w, "endpoint is read-only", http.StatusForbidden)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	updateText, err := requestText(r, "update")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if updateText == "" {
		http.Error(w, "missing update parameter", http.StatusBadRequest)
		return
	}
	u, err := sparql.ParseUpdate(updateText)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The request's resource account, as for a query: the WHERE rows of
	// a DELETE/INSERT are charged to it, and the middleware reports it.
	acct := obs.NewQueryAcct(s.Resources, s.MaxQueryMem)
	defer acct.Finish()
	if ow, ok := w.(*obsResponseWriter); ok {
		ow.acct = acct
	}
	s.updateMu.Lock()
	err = s.engine.UpdateContext(sparql.WithQueryAcct(r.Context(), acct), u)
	s.updateMu.Unlock()
	if err != nil {
		s.writeEvalError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.ReadOnly {
		http.Error(w, "endpoint is read-only", http.StatusForbidden)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	triples, _, err := turtle.Parse(string(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var graph rdf.Term
	if g := r.URL.Query().Get("graph"); g != "" {
		graph = rdf.NewIRI(g)
	}
	s.updateMu.Lock()
	added := s.engine.Store().InsertTriples(graph, triples)
	s.updateMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"loaded":%d}`, added)
}

// handleHealthz is the liveness probe: the process is up and the
// handler chain is serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is the readiness probe: it exercises the read path a
// query depends on — a store snapshot and the statistics cache — and
// reports 503 if either fails, so load balancers stop routing before
// queries start erroring. With Series and ReadyMaxShedRate set it also
// reports 503 while the windowed shed rate exceeds the threshold —
// sustained overload drains the node without restarting it (liveness
// at /healthz is unaffected).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := struct {
		Ready    bool    `json:"ready"`
		Quads    int     `json:"quads"`
		Graphs   int     `json:"graphs"`
		ShedRate float64 `json:"shedRate,omitempty"`
		Error    string  `json:"error,omitempty"`
	}{Ready: true}
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("readiness probe panicked: %v", p)
			}
		}()
		st := s.engine.Store()
		ready.Quads = st.TotalLen()
		stats := st.Stats()
		ready.Graphs = len(stats.Graphs)
		return nil
	}()
	if err == nil && s.Series != nil && s.ReadyMaxShedRate > 0 {
		window := s.ReadyShedWindow
		if window <= 0 {
			window = time.Minute
		}
		if rate, ok := s.Series.Ratio("queries_shed_total", "queries_total", window); ok {
			ready.ShedRate = rate
			if rate > s.ReadyMaxShedRate {
				err = fmt.Errorf("shedding %.1f%% of queries over the last %s (limit %.1f%%)",
					rate*100, window, s.ReadyMaxShedRate*100)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		ready.Ready = false
		ready.Error = err.Error()
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(ready)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sn := s.engine.Store().Snapshot()
	type levelCount struct {
		Level   string `json:"level"`
		Members int    `json:"members"`
	}
	type stats struct {
		DefaultGraph int      `json:"defaultGraph"`
		Total        int      `json:"total"`
		NamedGraphs  []string `json:"namedGraphs"`
		Terms        int      `json:"terms"`
		// IndexBytes is the resident size of the triple indexes
		// (store.Stats.IndexBytes); BytesPerTriple divides it by Total.
		IndexBytes     int                `json:"indexBytes"`
		BytesPerTriple float64            `json:"bytesPerTriple"`
		Graphs         []store.GraphStats `json:"graphs,omitempty"`
		LevelMembers   []levelCount       `json:"levelMembers,omitempty"`
	}
	storeStats := sn.Stats()
	out := stats{
		DefaultGraph: sn.Len(rdf.Term{}),
		Total:        sn.TotalLen(),
		Terms:        storeStats.Terms,
		IndexBytes:   storeStats.IndexBytes,
		Graphs:       storeStats.Graphs,
	}
	for _, g := range sn.GraphNames() {
		out.NamedGraphs = append(out.NamedGraphs, g.Value)
	}
	if out.Total > 0 {
		out.BytesPerTriple = float64(out.IndexBytes) / float64(out.Total)
	}
	// Per-level member counts of the enriched cube, derived from the
	// contiguous (qb4o:memberOf, level) groups of the POS index.
	for _, oc := range sn.ObjectCounts(rdf.Term{}, vocab.QB4OMemberOf) {
		out.LevelMembers = append(out.LevelMembers, levelCount{Level: oc.Object.Value, Members: oc.Count})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
