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

	// Slow retains the records of the most recent slow queries for
	// /debug/slow, bounded in entries and query-text bytes. Created by
	// NewServer; entries are only recorded when SlowQuery is set.
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

	// Profiler, when set, captures a trace-ID-stamped heap profile into
	// a size-bounded directory for every /sparql request the slow-query
	// log records (SlowQuery) and every query aborted over MaxQueryMem.
	// Captures count in profiles_captured_total. Set before the first
	// request (sparqld -profile-dir).
	Profiler *obs.Profiler

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
	// while the shed rate (queries_shed_total / queries_total) over the
	// last readyShedWindow exceeds it — a drowning node asks its load
	// balancer to drain, while /healthz (liveness) stays 200 so the
	// process is not restarted for being popular. sparqld sets it to
	// the -slo file's max_shed_rate.
	ReadyMaxShedRate float64

	// inflightN tracks /sparql requests currently in the handler, for
	// the queries_inflight gauge (the shedding limiter in acquire()
	// bounds evaluation; this gauge reports it).
	inflightN atomic.Int64

	// Request metrics, all served at /metrics. mOutcome counts the
	// requests of each outcome that has a counter of its own.
	reg                        *obs.Registry
	mQueries, mUpdates, mLoads *obs.Counter
	mErrors, mFailed, mSlow    *obs.Counter
	mProfiles                  *obs.Counter
	mOutcome                   map[obs.QueryOutcome]*obs.Counter
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
	s.Workload = obs.NewWorkload()
	s.mQueries = s.reg.Counter("queries_total")
	s.mUpdates = s.reg.Counter("updates_total")
	s.mLoads = s.reg.Counter("loads_total")
	s.mErrors = s.reg.Counter("errors_total")
	s.mFailed = s.reg.Counter("queries_failed_total")
	s.mSlow = s.reg.Counter("slow_queries_total")
	s.mProfiles = s.reg.Counter("profiles_captured_total")
	s.mOutcome = map[obs.QueryOutcome]*obs.Counter{
		obs.OutcomeShed:            s.reg.Counter("queries_shed_total"),
		obs.OutcomeTimeout:         s.reg.Counter("queries_timeout_total"),
		obs.OutcomeCanceled:        s.reg.Counter("queries_canceled_total"),
		obs.OutcomeOverMem:         s.reg.Counter("queries_over_mem_total"),
		obs.OutcomeCost:            s.reg.Counter("cost_estimates_total"),
		obs.OutcomeCostUnavailable: s.reg.Counter("cost_unavailable_total"),
	}
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
// plus the time-series routes when Series and Alerts are set. The
// /debug/ diagnostics are DebugHandler's, on a listener of their own.
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
// middleware, and carries the request's record, which the handler fills
// in as it learns the query text, trace ID, outcome and resource totals.
type obsResponseWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	rec    obs.QueryRecord
	// q is the parsed query, priced by the middleware when it turns out
	// slow.
	q *sparql.Query
}

// recording returns the middleware's writer, through which a handler
// reports to the request's record.
func recording(rw http.ResponseWriter) *obsResponseWriter {
	if w, ok := rw.(*obsResponseWriter); ok {
		return w
	}
	return &obsResponseWriter{ResponseWriter: rw}
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

// settle closes the request's resource account and copies its totals
// into the record. The cumulative totals survive Finish; only the
// in-flight figure is released.
func (w *obsResponseWriter) settle(acct *obs.QueryAcct) {
	acct.Finish()
	w.rec.Rows, w.rec.MemBytes, w.rec.MemPeak = acct.Rows(), acct.Bytes(), acct.Peak()
}

// instrument wraps the protocol mux with request-level observability.
// Every request gets one obs.QueryRecord; once the handler returns, the
// per-route counters and histograms, the outcome counters, the access
// log and — for /sparql — the workload registry, the slow-query log
// and the profiler trigger all read that record.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ow := &obsResponseWriter{ResponseWriter: w, status: http.StatusOK}
		rec := &ow.rec
		rec.When = time.Now()
		route := r.URL.Path
		query := route == "/sparql"
		if query {
			s.inflightN.Add(1)
		}
		next.ServeHTTP(ow, r)
		if query {
			s.inflightN.Add(-1)
		}
		rec.Duration = time.Since(rec.When)
		rec.Status = ow.status
		if p, ok := protocol[rec.Outcome]; ok {
			// A mid-stream abort answered 200 on the wire; everything below
			// sees the status the same failure gets before the body starts.
			rec.Status = p.status
		} else if rec.Outcome == "" {
			rec.Outcome = obs.OutcomeOK
			if rec.Status >= 400 {
				rec.Outcome = obs.OutcomeError // a request the handler refused
			}
		}
		if c := s.mOutcome[rec.Outcome]; c != nil {
			c.Inc()
		}
		switch route {
		case "/sparql":
			s.mQueries.Inc()
			s.hQuery.Observe(rec.Duration)
		case "/update":
			s.mUpdates.Inc()
			s.hUpdate.Observe(rec.Duration)
		case "/load":
			s.mLoads.Inc()
			s.hLoad.Observe(rec.Duration)
		}
		if rec.Status >= 400 {
			s.mErrors.Inc()
		}
		planOnly := rec.Outcome == obs.OutcomeCost || rec.Outcome == obs.OutcomeCostUnavailable
		slow := query && !planOnly && s.recordQuery(ow)
		if s.Logger == nil {
			return
		}
		// The access log tags over-mem on queries only; an update over its
		// budget is a plain error there.
		outcome := rec.Outcome
		if !query && outcome == obs.OutcomeOverMem {
			outcome = obs.OutcomeError
		}
		// The trace ID joins access-log lines against /debug/slow and the
		// exported trace archive.
		s.Logger.Info("request",
			"method", r.Method, "path", route, "status", rec.Status,
			"outcome", string(outcome), "bytes", ow.bytes, "dur", rec.Duration,
			"trace", string(rec.TraceID))
		if slow {
			s.Logger.Warn("slow query",
				"dur", rec.Duration, "threshold", s.SlowQuery, "status", rec.Status,
				"rows", rec.Rows, "mem", rec.MemBytes, "peak", rec.MemPeak,
				"trace", string(rec.TraceID), "query", rec.Query)
		}
	})
}

// recordQuery books the finished record of an evaluated (not plan-only)
// /sparql request: the failure counter, the query's shape row at
// /workload, the slow-query log and the profiler trigger. It reports
// whether the query was slow.
func (s *Server) recordQuery(w *obsResponseWriter) (slow bool) {
	rec := &w.rec
	// queries_failed_total counts user-visible /sparql failures — the
	// numerator of the alerting error rate. Sheds and client disconnects
	// are excluded: shedding has its own rate, and a caller hanging up
	// is not a server failure.
	if rec.Status >= 400 && rec.Outcome != obs.OutcomeShed && rec.Outcome != obs.OutcomeCanceled {
		s.mFailed.Inc()
	}
	// Workload fingerprinting: every query joins its shape row,
	// classified by outcome — shed and timed-out shapes show up as such,
	// not as generic errors. The slow log prints the same shape hash.
	rec.Fingerprint()
	if rec.Query != "" {
		s.Workload.Record(*rec)
	}
	slow = s.SlowQuery > 0 && rec.Duration >= s.SlowQuery
	if slow {
		s.mSlow.Inc()
		// Price the query after the fact so the slow-query log pairs
		// estimated cost with measured latency; the planning pass is only
		// paid for queries already past the slow threshold.
		if w.q != nil && s.engine.PlannerEnabled() {
			rec.EstCost = s.engine.Plan(w.q).Cost
		}
		s.Slow.Record(*rec)
	}
	// Threshold-triggered profiling: a slow-logged or over-budget query
	// captures a trace-ID-stamped heap profile, rate-limited and
	// size-capped by the profiler itself.
	if s.Profiler != nil && (slow || rec.Outcome == obs.OutcomeOverMem) {
		trigger := "slow"
		if !slow {
			trigger = "mem"
		}
		if _, ok := s.Profiler.MaybeCapture(trigger, rec.TraceID); ok {
			s.mProfiles.Inc()
		}
	}
	return slow
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

// protocol is the wire form of each failed outcome: the status it
// answers while the status line is still open and, for an evaluation
// failure, the stream-error trailer code that names it once a 200 is
// committed. The middleware books a request under the status of its
// outcome, and Remote maps a trailer code back to the same status.
var protocol = map[obs.QueryOutcome]struct {
	status  int
	trailer string
}{
	obs.OutcomeShed:            {http.StatusServiceUnavailable, ""},
	obs.OutcomeCostUnavailable: {http.StatusConflict, ""},
	obs.OutcomeOverMem:         {http.StatusTooManyRequests, "mem-limit"},
	obs.OutcomeTimeout:         {http.StatusGatewayTimeout, "timeout"},
	obs.OutcomeCanceled:        {statusClientClosedRequest, "canceled"},
	obs.OutcomeError:           {http.StatusInternalServerError, "internal"},
}

// streamErrStatus is the protocol status of a stream-error trailer
// code; a code this server never sends counts as an internal failure.
func streamErrStatus(code string) int {
	for _, p := range protocol {
		if p.trailer != "" && p.trailer == code {
			return p.status
		}
	}
	return http.StatusInternalServerError
}

// evalOutcome is the one classification of an evaluation error:
// memory-limit abort, deadline expiry, caller disconnect, or anything
// else.
func evalOutcome(err error) obs.QueryOutcome {
	var mle *sparql.MemLimitError
	switch {
	case errors.As(err, &mle):
		return obs.OutcomeOverMem
	case errors.Is(err, context.DeadlineExceeded):
		return obs.OutcomeTimeout
	case errors.Is(err, context.Canceled):
		return obs.OutcomeCanceled
	default:
		return obs.OutcomeError
	}
}

// writeEvalError answers an evaluation error that arrived while the
// status line was still open (a 429 carries MemLimitHeader).
func writeEvalError(w *obsResponseWriter, err error) {
	w.rec.Outcome = evalOutcome(err)
	msg := err.Error()
	switch w.rec.Outcome {
	case obs.OutcomeOverMem:
		w.Header().Set(MemLimitHeader, "1")
	case obs.OutcomeTimeout:
		msg = "query timed out: " + msg
	}
	http.Error(w, msg, protocol[w.rec.Outcome].status)
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
		w.rec.TraceID = tp.TraceID
		traced = traced || tp.Sampled
	case s.Tracer != nil || s.Exporter != nil:
		w.rec.TraceID = obs.NewTraceID()
		traced = traced || s.Sampler.Sample(w.rec.TraceID)
	}
	var evalID obs.TraceID // empty = the engine's untraced path
	if traced {
		if w.rec.TraceID == "" {
			w.rec.TraceID = obs.NewTraceID()
		}
		evalID = w.rec.TraceID
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
		tr.Query = w.rec.Query
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
		writeEvalError(w, err)
	case err != nil:
		// Mid-stream failure: the 200 is committed, so truncate the body
		// and name the failure in the trailer.
		w.rec.Outcome = evalOutcome(err)
		w.Header().Set(StreamErrorTrailer, protocol[w.rec.Outcome].trailer)
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
	w := recording(rw)
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var err error
	if w.rec.Query, err = requestText(r, "query"); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if w.rec.Query == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return
	}

	// Load shedding happens before parsing: when the server is
	// saturated the cheapest possible rejection is the point.
	release, ok := s.acquire()
	if !ok {
		w.rec.Outcome = obs.OutcomeShed
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("server is at its in-flight query limit (%d)", s.MaxInFlight),
			protocol[obs.OutcomeShed].status)
		return
	}
	defer release()

	q, err := sparql.ParseQuery(w.rec.Query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.q = q

	// ?cost=1 (any non-empty value) returns the planner's estimated
	// C_out cost as JSON without evaluating the query — the plan-cost
	// surface Remote.EstimateCost consumes and internal/ql's translation
	// selection builds on. 409 when the server's planner is off, so
	// remote callers fall back to their heuristic instead of trusting a
	// cost the evaluator would not follow.
	if r.FormValue("cost") != "" {
		if !s.engine.PlannerEnabled() {
			w.rec.Outcome = obs.OutcomeCostUnavailable
			http.Error(w, "cost estimate unavailable: planner disabled (-planner=off)",
				protocol[obs.OutcomeCostUnavailable].status)
			return
		}
		w.rec.Outcome = obs.OutcomeCost
		p := s.engine.Plan(q)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(costResponse{"on", p.Cost, p.Reordered, p.PushedFilters}) //nolint:errcheck
		return
	}

	ctx, cancel := s.queryContext(r)
	defer cancel()

	// Per-request resource account: the engine adopts it (a
	// context-injected account always wins), and settle copies its
	// rows/bytes/peak into the record. It is deferred, so whatever the
	// query still holds stays on the in-flight gauge until the response
	// has been written.
	acct := obs.NewQueryAcct(s.Resources, s.MaxQueryMem)
	defer w.settle(acct)
	ctx = sparql.WithQueryAcct(ctx, acct)

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
			writeEvalError(w, err)
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
	// a DELETE/INSERT are charged to it.
	acct := obs.NewQueryAcct(s.Resources, s.MaxQueryMem)
	defer acct.Finish()
	s.updateMu.Lock()
	err = s.engine.UpdateContext(sparql.WithQueryAcct(r.Context(), acct), u)
	s.updateMu.Unlock()
	if err != nil {
		writeEvalError(recording(w), err)
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

// readyShedWindow is the window /readyz measures the shed rate over.
const readyShedWindow = time.Minute

// handleReadyz is the readiness probe: it exercises the read path a
// query depends on — a store snapshot and the statistics cache — and
// reports 503 if either fails, so load balancers stop routing before
// queries start erroring. With Series and ReadyMaxShedRate set it also
// reports 503 while the shed rate over readyShedWindow exceeds the
// threshold — sustained overload drains the node without restarting it
// (liveness at /healthz is unaffected).
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
		if rate, ok := s.Series.Ratio("queries_shed_total", "queries_total", readyShedWindow); ok {
			ready.ShedRate = rate
			if rate > s.ReadyMaxShedRate {
				err = fmt.Errorf("shedding %.1f%% of queries over the last %s (limit %.1f%%)",
					rate*100, readyShedWindow, s.ReadyMaxShedRate*100)
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
