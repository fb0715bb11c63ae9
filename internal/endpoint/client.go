package endpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// SPARQLClient is the interface the QB2OLAP modules use to talk to an
// endpoint: either in-process (Local) or over HTTP (Remote). This
// mirrors the paper's architecture, where all modules operate through
// the SPARQL endpoint.
type SPARQLClient interface {
	// Select runs a SELECT (or ASK) query and returns the result table.
	Select(query string) (*sparql.Results, error)
	// Update runs a SPARQL update request.
	Update(update string) error
}

// ContextClient is the context-aware extension of SPARQLClient: the
// context bounds the call (cancellation and deadline), propagating into
// engine evaluation for Local and into the HTTP exchange for Remote.
// Both built-in clients implement it; third-party SPARQLClients need
// not. Use the package-level SelectContext/UpdateContext helpers to
// call through the extension when present.
type ContextClient interface {
	SPARQLClient
	SelectContext(ctx context.Context, query string) (*sparql.Results, error)
	UpdateContext(ctx context.Context, update string) error
}

// SelectContext runs a SELECT through c under ctx when the client
// supports cancellation, falling back to the plain call otherwise.
func SelectContext(ctx context.Context, c SPARQLClient, query string) (*sparql.Results, error) {
	if cc, ok := c.(ContextClient); ok {
		return cc.SelectContext(ctx, query)
	}
	return c.Select(query)
}

// UpdateContext runs an update through c under ctx when the client
// supports cancellation, falling back to the plain call otherwise.
func UpdateContext(ctx context.Context, c SPARQLClient, update string) error {
	if cc, ok := c.(ContextClient); ok {
		return cc.UpdateContext(ctx, update)
	}
	return c.Update(update)
}

// Explainer is implemented by clients that can produce an EXPLAIN
// ANALYZE plan for a query: Local renders an in-process trace, Remote
// uses the server's ?explain=1 surface, so `qb2olap query -trace`
// prints the server-side plan either way instead of silently degrading
// on remote endpoints.
type Explainer interface {
	// Explain runs the query with operator tracing and returns the
	// rendered plan. Note this evaluates the query.
	Explain(query string) (string, error)
}

// TracedClient is implemented by clients that can evaluate one SELECT
// with full tracing forced, bypassing any sampler: Local traces the
// in-process engine, Remote propagates the trace over HTTP and returns
// the stitched client+server tree. `qb2olap query -trace` uses this to
// render one end-to-end trace for either source kind.
type TracedClient interface {
	// SelectTraced runs the query with tracing forced and returns the
	// trace alongside the results.
	SelectTraced(query string) (*sparql.Results, *obs.Trace, error)
}

// CostEstimator is implemented by clients that can price a query with
// the cost-based planner without evaluating it: Local plans in process,
// Remote uses the server's ?cost=1 surface. internal/ql uses this to
// pick the cheaper of its two QL-to-SPARQL translations per query; a
// client that does not implement it (or whose planner is off) makes the
// caller fall back to a static heuristic.
type CostEstimator interface {
	// EstimateCost parses and plans the query and returns the planner's
	// estimated C_out cost (the sum of estimated operator output
	// cardinalities). It never evaluates the query. It errors when the
	// planner is unavailable, e.g. disabled with sparql.WithPlanner(false)
	// or -planner=off.
	EstimateCost(query string) (float64, error)
}

// Local is an in-process client evaluating directly against a store.
// It is safe for concurrent use; see the package comment for the
// read/write interaction.
type Local struct {
	Engine *sparql.Engine
}

// NewLocal returns an in-process client over st. Engine options (e.g.
// sparql.WithPlanner) configure the embedded engine.
func NewLocal(st *store.Store, opts ...sparql.Option) *Local {
	return &Local{Engine: sparql.NewEngine(st, opts...)}
}

// Select implements SPARQLClient.
func (l *Local) Select(query string) (*sparql.Results, error) {
	return l.Engine.QueryString(query)
}

// SelectContext implements ContextClient; ctx cancels evaluation.
func (l *Local) SelectContext(ctx context.Context, query string) (*sparql.Results, error) {
	return l.Engine.QueryStringContext(ctx, query)
}

// Update implements SPARQLClient.
func (l *Local) Update(update string) error {
	return l.Engine.ExecuteString(update)
}

// UpdateContext implements ContextClient; ctx is checked between
// operations and during WHERE evaluation, never mid-write.
func (l *Local) UpdateContext(ctx context.Context, update string) error {
	return l.Engine.ExecuteStringContext(ctx, update)
}

// Explain implements Explainer with an in-process traced evaluation.
func (l *Local) Explain(query string) (string, error) {
	res, tr, err := l.Engine.QueryTracedString(query)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s\n%d result row(s)\n", tr.Render(), len(res.Rows)), nil
}

// SelectTraced implements TracedClient with an in-process traced
// evaluation.
func (l *Local) SelectTraced(query string) (*sparql.Results, *obs.Trace, error) {
	return l.Engine.QueryTracedString(query)
}

// EstimateCost implements CostEstimator in process: the query is parsed
// and planned, never evaluated. It errors when the engine's planner is
// disabled, so callers fall back to their own heuristic instead of
// trusting a cost the evaluator would not follow.
func (l *Local) EstimateCost(query string) (float64, error) {
	if !l.Engine.PlannerEnabled() {
		return 0, fmt.Errorf("endpoint: cost estimate unavailable: planner disabled")
	}
	q, err := sparql.ParseQuery(query)
	if err != nil {
		return 0, err
	}
	return l.Engine.EstimateCost(q), nil
}

// Remote is an HTTP client for a SPARQL protocol endpoint.
//
// With a Tracer installed, every Select draws a trace ID, asks the
// Sampler for a verdict (nil samples everything), and — when sampled —
// sends a W3C traceparent header so a qb2olap-aware server evaluates
// the query traced and returns its span tree (in the X-Qb2olap-Trace
// response header, or closing a streamed body). The client stitches
// that tree under its own HTTP span and collects the result: one
// end-to-end trace per sampled query, exported as JSONL when an
// Exporter is set. Unsampled queries send an unsampled traceparent,
// which pins the server to its untraced fast path too.
//
// The zero resilience configuration is the plain single-attempt client.
// With Retries > 0 the idempotent exchanges (Select, Explain) are
// retried on transient failures — connection errors, attempt timeouts,
// 429/502/503/504 responses, truncated or undecodable result bodies —
// with exponential backoff and jitter; updates are never retried (see
// UpdateContext). Failures come back as *Error; test with IsRetryable.
type Remote struct {
	// QueryURL is the query endpoint, e.g. http://host:port/sparql.
	QueryURL string
	// UpdateURL is the update endpoint, e.g. http://host:port/update.
	UpdateURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	// Timeout bounds each HTTP attempt; the retry loop runs fresh
	// attempts under the caller's context. 0 means no attempt timeout.
	Timeout time.Duration
	// Retries is how many times an idempotent exchange is retried after
	// a transient failure (so Retries+1 attempts total). 0 disables
	// retrying. Updates are never retried regardless.
	Retries int
	// Backoff is the base delay before the first retry, doubling per
	// subsequent retry with jitter and capped at 5s. 0 means 100ms.
	Backoff time.Duration
	// Breaker, when set, fails requests fast after a run of consecutive
	// failures instead of hammering a down endpoint. It may be shared
	// across clients.
	Breaker *Breaker

	// Tracer, when set, collects a stitched client+server trace of
	// every sampled Select. Set it before the client is shared.
	Tracer *obs.Tracer
	// Sampler gates which Selects are traced (nil = all, when tracing
	// is on). Set it before the client is shared.
	Sampler *obs.Sampler
	// Exporter, when set, appends every collected trace as JSONL.
	Exporter *obs.Exporter

	retried atomic.Int64 // retry attempts performed (not first tries)

	// sleep and jitterFn are test seams for the backoff schedule.
	sleep    func(context.Context, time.Duration) error
	jitterFn func() float64
}

// NewRemote returns a client for a server rooted at base (without
// trailing slash), using the /sparql and /update routes.
func NewRemote(base string) *Remote {
	base = strings.TrimSuffix(base, "/")
	return &Remote{
		QueryURL:  base + "/sparql",
		UpdateURL: base + "/update",
	}
}

func (r *Remote) client() *http.Client {
	if r.HTTPClient != nil {
		return r.HTTPClient
	}
	return http.DefaultClient
}

// RetryCount returns how many retry attempts (beyond first tries) this
// client has performed.
func (r *Remote) RetryCount() int64 { return r.retried.Load() }

// tracing reports whether this client records traces at all.
func (r *Remote) tracing() bool { return r.Tracer != nil || r.Exporter != nil }

// Select implements SPARQLClient over HTTP. When tracing is enabled the
// query is sampled; see the type comment.
func (r *Remote) Select(query string) (*sparql.Results, error) {
	return r.SelectContext(context.Background(), query)
}

// SelectContext implements ContextClient: ctx bounds the whole exchange
// including retries and backoff waits.
func (r *Remote) SelectContext(ctx context.Context, query string) (*sparql.Results, error) {
	traceparent := ""
	if r.tracing() {
		id := obs.NewTraceID()
		if r.Sampler.Sample(id) {
			res, _, err := r.selectTraced(ctx, query, id)
			return res, err
		}
		// Unsampled: tell the server so it skips tracing too.
		traceparent = obs.FormatTraceparent(id, obs.NewSpanID(), false)
	}
	res, _, err := r.retrySelect(ctx, query, traceparent)
	return res, err
}

// SelectTraced implements TracedClient: tracing is forced for this one
// query regardless of the sampler, and the stitched client+server trace
// is returned (and still collected/exported when sinks are set).
func (r *Remote) SelectTraced(query string) (*sparql.Results, *obs.Trace, error) {
	return r.selectTraced(context.Background(), query, obs.NewTraceID())
}

// retrySelect runs one (possibly retried) query exchange and returns
// the results and the last attempt's server span tree, if any.
func (r *Remote) retrySelect(ctx context.Context, query, traceparent string) (res *sparql.Results, wire string, err error) {
	err = r.retryIdempotent(ctx, "query", func(actx context.Context) *Error {
		var aerr *Error
		res, wire, aerr = r.doSelect(actx, query, traceparent)
		return aerr
	})
	return res, wire, err
}

// selectTraced runs one sampled query: it wraps the (possibly retried)
// HTTP exchange in a client span, propagates id with the sampled flag
// set, and attaches the span tree the server returns.
func (r *Remote) selectTraced(ctx context.Context, query string, id obs.TraceID) (*sparql.Results, *obs.Trace, error) {
	start := time.Now()
	root := obs.StartSpan("HTTP", "POST "+urlPath(r.QueryURL), 1)
	res, wire, err := r.retrySelect(ctx, query, obs.FormatTraceparent(id, obs.NewSpanID(), true))
	if srv, derr := obs.DecodeSpanWire(wire); derr == nil {
		root.Attach(srv) // nil-safe: no tree leaves a client-only span
	}
	out := 0
	if res != nil {
		out = res.Len()
	}
	root.Finish(out)
	tr := &obs.Trace{ID: id, Start: start, Query: query, Root: root}
	r.Tracer.Collect(tr)  // nil-safe
	r.Exporter.Export(tr) // nil-safe
	return res, tr, err
}

// urlPath reduces an endpoint URL to its path for span details, so
// traces are stable across hosts and ports.
func urlPath(raw string) string {
	if u, err := url.Parse(raw); err == nil && u.Path != "" {
		return u.Path
	}
	return raw
}

// retryIdempotent runs attempt under the client's resilience policy:
// breaker gate, per-attempt timeout, retry on transient failures with
// exponential backoff + jitter. It must only be used for idempotent
// exchanges. The returned error is nil or a *Error with Op and
// Attempts filled in.
func (r *Remote) retryIdempotent(ctx context.Context, op string, attempt func(context.Context) *Error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for n := 1; ; n++ {
		if !r.Breaker.Allow() {
			return &Error{Op: op, Retryable: true, Attempts: n - 1, Err: ErrCircuitOpen}
		}
		aerr := r.attemptOnce(ctx, attempt)
		r.Breaker.Record(aerr == nil)
		if aerr == nil {
			return nil
		}
		aerr.Op, aerr.Attempts = op, n
		if ctx.Err() != nil {
			// The caller's context ended; what looks like a transport
			// failure is really a cancel, and retrying can't help.
			aerr.Retryable = false
			return aerr
		}
		if !aerr.Retryable || n > r.Retries {
			return aerr
		}
		if err := r.backoffWait(ctx, n, aerr.RetryAfter); err != nil {
			aerr.Retryable = false
			return aerr
		}
		r.retried.Add(1)
	}
}

// attemptOnce applies the per-attempt timeout around one exchange.
func (r *Remote) attemptOnce(ctx context.Context, attempt func(context.Context) *Error) *Error {
	if r.Timeout > 0 {
		actx, cancel := context.WithTimeout(ctx, r.Timeout)
		defer cancel()
		return attempt(actx)
	}
	return attempt(ctx)
}

// backoffWait sleeps before retry n (1-based): exponential growth from
// Backoff, capped at 5s, with equal jitter (a uniform draw over the
// upper half) so synchronized clients spread out. A positive hint is a
// server-requested delay (Retry-After on a 503 shed) and replaces the
// exponential schedule: the client waits at least what the server asked
// for, plus up to 25% additive jitter, under the same 5s cap. Returns
// early with an error when ctx ends.
func (r *Remote) backoffWait(ctx context.Context, n int, hint time.Duration) error {
	jitter := r.jitterFn
	if jitter == nil {
		jitter = rand.Float64
	}
	var d time.Duration
	if hint > 0 {
		if hint > 5*time.Second {
			hint = 5 * time.Second
		}
		d = hint + time.Duration(jitter()*float64(hint/4))
	} else {
		base := r.Backoff
		if base <= 0 {
			base = 100 * time.Millisecond
		}
		d = base << uint(n-1)
		if d > 5*time.Second || d <= 0 {
			d = 5 * time.Second
		}
		d = d/2 + time.Duration(jitter()*float64(d/2))
	}
	if r.sleep != nil {
		return r.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// maxDrainBytes bounds how much of a response body is drained before
// closing, so connections can be reused without reading an unbounded
// tail.
const maxDrainBytes = 256 << 10

// drainBody discards what remains of body and closes it, letting the
// transport reuse the connection no matter how the exchange ended.
func drainBody(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, maxDrainBytes)) //nolint:errcheck
	body.Close()
}

// exchange POSTs one form-encoded protocol request (what names it in
// messages). On a 2xx status the caller drains the returned response;
// anything else comes back as an *Error classifying the failure for the
// retry loop, with the response — when there was one — already drained
// and good only for its headers.
func (r *Remote) exchange(ctx context.Context, what, target string, form url.Values, accept, traceparent string) (*http.Response, *Error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, strings.NewReader(form.Encode()))
	if err != nil {
		return nil, &Error{Err: err}
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := r.client().Do(req)
	if err != nil {
		return nil, &Error{Retryable: true, Err: fmt.Errorf("endpoint: %s request: %w", what, err)}
	}
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<10))
		drainBody(resp.Body)
		return resp, &Error{
			Status:     resp.StatusCode,
			Retryable:  retryableResponse(resp),
			RetryAfter: parseRetryAfter(resp),
			Err:        fmt.Errorf("endpoint: %s failed (%d): %s", what, resp.StatusCode, strings.TrimSpace(string(body))),
		}
	}
	return resp, nil
}

// doSelect performs one query exchange. A non-empty traceparent is
// propagated on the request; the server's serialized span tree
// (possibly empty; DecodeSpanWire rejects a hostile one) is returned
// alongside the results — from the X-Qb2olap-Trace response header when
// the server finished before it sent its status line, else from the
// "trace" member that closes a streamed document.
func (r *Remote) doSelect(ctx context.Context, query, traceparent string) (*sparql.Results, string, *Error) {
	resp, aerr := r.exchange(ctx, "query", r.QueryURL, url.Values{"query": {query}},
		"application/sparql-results+json", traceparent)
	var wire string
	if resp != nil {
		wire = resp.Header.Get(obs.ServerTraceHeader)
	}
	if aerr != nil {
		return nil, wire, aerr
	}
	defer drainBody(resp.Body)
	// The body is decoded incrementally — bindings are parsed as bytes
	// arrive instead of buffering the document whole, the client half of
	// the server's chunk-flushed streaming encoder.
	res, bodyWire, derr := sparql.DecodeTracedResults(resp.Body)
	if wire == "" {
		wire = bodyWire
	}
	// A streamed response commits its 200 before evaluation finishes;
	// a mid-stream failure truncates the JSON and names itself in the
	// trailer (readable only once the body is consumed). The trailer
	// verdict outranks the decode error: a truncated document it
	// explains is a server-side abort, not a transport fault.
	if derr != nil {
		drainBody(io.NopCloser(resp.Body)) // reach EOF so trailers arrive
	}
	if code := resp.Trailer.Get(StreamErrorTrailer); code != "" {
		return nil, wire, streamTrailerError(code)
	}
	if derr != nil {
		// A 200 whose body doesn't decode is a truncated or corrupted
		// payload; a fresh exchange may deliver it intact.
		return nil, wire, &Error{Retryable: true, Err: derr}
	}
	return res, wire, nil
}

// streamTrailerError maps a stream-error trailer to the *Error the
// equivalent pre-body failure would have produced: a timeout is worth a
// fresh exchange; a mem-limit abort is permanent (the same query against
// the same limit fails the same way), and a cancel or internal failure
// is terminal for this attempt.
func streamTrailerError(code string) *Error {
	status := streamErrStatus(code)
	return &Error{Status: status, Retryable: status == http.StatusGatewayTimeout,
		Err: fmt.Errorf("endpoint: query aborted mid-stream: %s", code)}
}

// Explain implements Explainer against the server's ?explain=1
// surface: the query is evaluated remotely with operator tracing and
// the rendered EXPLAIN ANALYZE tree is returned as plain text. Like
// Select it is idempotent and retried.
func (r *Remote) Explain(query string) (string, error) {
	var out string
	err := r.retryIdempotent(context.Background(), "explain", func(actx context.Context) *Error {
		resp, aerr := r.exchange(actx, "explain", r.QueryURL, url.Values{"query": {query}, "explain": {"1"}}, "text/plain", "")
		if aerr != nil {
			return aerr
		}
		defer drainBody(resp.Body)
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return &Error{Retryable: true, Err: fmt.Errorf("endpoint: reading explain response: %w", err)}
		}
		out = string(body)
		return nil
	})
	return out, err
}

// costResponse is the JSON body of the server's ?cost=1 surface. The
// Planner field doubles as a marker: a foreign SPARQL endpoint that
// evaluated the query instead of planning it returns a result document
// without it, which the client rejects rather than misreading a result
// table as a cost.
type costResponse struct {
	Planner       string  `json:"planner"`
	Cost          float64 `json:"cost"`
	Reordered     bool    `json:"reordered"`
	PushedFilters int     `json:"pushedFilters"`
}

// EstimateCost implements CostEstimator against the server's ?cost=1
// surface: the query is parsed and planned remotely, never evaluated.
// Like Select it is idempotent and retried.
func (r *Remote) EstimateCost(query string) (float64, error) {
	var cr costResponse
	err := r.retryIdempotent(context.Background(), "cost", func(actx context.Context) *Error {
		resp, aerr := r.exchange(actx, "cost", r.QueryURL, url.Values{"query": {query}, "cost": {"1"}}, "application/json", "")
		if aerr != nil {
			return aerr
		}
		defer drainBody(resp.Body)
		body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		if err != nil {
			return &Error{Retryable: true, Err: fmt.Errorf("endpoint: reading cost response: %w", err)}
		}
		if err := json.Unmarshal(body, &cr); err != nil || cr.Planner == "" {
			// Not the planner surface — likely a foreign endpoint that
			// evaluated the query. Retrying will not produce a plan.
			return &Error{Err: fmt.Errorf("endpoint: cost response is not a plan (server without ?cost support?)")}
		}
		return nil
	})
	return cr.Cost, err
}

// Update implements SPARQLClient over HTTP.
func (r *Remote) Update(update string) error {
	return r.UpdateContext(context.Background(), update)
}

// UpdateContext implements ContextClient. Updates are never retried:
// they are not idempotent, and after an ambiguous failure (say, a
// connection dropped after the server applied the write) a retry could
// apply the update twice. The per-attempt Timeout still applies, and
// the returned *Error still classifies the failure so the caller can
// decide what a safe recovery looks like.
func (r *Remote) UpdateContext(ctx context.Context, update string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	resp, aerr := r.exchange(ctx, "update", r.UpdateURL, url.Values{"update": {update}}, "", "")
	if aerr != nil {
		aerr.Op, aerr.Attempts = "update", 1
		return aerr
	}
	drainBody(resp.Body)
	return nil
}

// InsertTriples sends triples to a client as INSERT DATA batches. It is
// the loading path the Enrichment module uses for generated triples.
func InsertTriples(c SPARQLClient, graph rdf.Term, triples []rdf.Triple, batch int) error {
	return InsertTriplesP(c, graph, triples, batch, nil)
}

// InsertTriplesP is InsertTriples with per-batch progress reporting:
// the phase's total grows by len(triples) up front and advances one
// batch at a time, so bulk commits render a live rate and ETA. A nil
// phase reports nothing.
func InsertTriplesP(c SPARQLClient, graph rdf.Term, triples []rdf.Triple, batch int, ph *obs.Phase) error {
	if batch <= 0 {
		batch = 5000
	}
	ph.Grow(int64(len(triples)))
	for from := 0; from < len(triples); from += batch {
		to := from + batch
		if to > len(triples) {
			to = len(triples)
		}
		var b strings.Builder
		b.WriteString("INSERT DATA {\n")
		if !graph.IsZero() {
			fmt.Fprintf(&b, "GRAPH <%s> {\n", graph.Value)
		}
		for _, t := range triples[from:to] {
			b.WriteString(t.String())
			b.WriteString(" .\n")
		}
		if !graph.IsZero() {
			b.WriteString("}\n")
		}
		b.WriteString("}")
		if err := c.Update(b.String()); err != nil {
			return fmt.Errorf("endpoint: inserting batch %d..%d: %w", from, to, err)
		}
		ph.Add(int64(to - from))
	}
	return nil
}
