package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/endpoint"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// span is one timed call into a layer's public API, recorded by the
// harness from outside the layer. Times are nanoseconds since the
// tracer started. Shadow marks a span that re-executes, in process,
// work the server did inside its parent's interval (see shadowSelect).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // 0 = outside any op (set-up, probes)
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
}

// tracer keeps spans and named samples in memory; writeFile dumps the
// spans when the run ends. The closed-loop driver is single-threaded,
// so the open-span stack needs no lock. A nil *tracer records nothing:
// set-up code calls it unconditionally and the untraced run passes nil.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	op     int
	shadow int           // >0 while re-executing server work in process
	aside  time.Duration // harness-only time so far (see outside)
	opMs   []float64     // duration of each traced op, net of aside
	// samples holds what was sampled inside the traced rounds' ops;
	// around holds the rest (set-up, oracle checks, probes). A metric is
	// computed from the ops' samples when the workload's own requests
	// exercise its layer, and from the rest otherwise.
	samples, around map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: make(map[string][]float64), around: make(map[string][]float64)}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name,
		Shadow: t.shadow > 0, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
	return time.Duration(s.End - s.Start)
}

// add records one sample of a named quantity (milliseconds for
// durations, plain numbers for counts).
func (t *tracer) add(name string, v float64) {
	switch {
	case t == nil:
	case t.op != 0:
		t.samples[name] = append(t.samples[name], v)
	default:
		t.around[name] = append(t.around[name], v)
	}
}

// of returns the samples a metric is computed from.
func (t *tracer) of(name string) []float64 {
	if xs := t.samples[name]; len(xs) > 0 {
		return xs
	}
	return t.around[name]
}

func (t *tracer) has(name string) bool { return t != nil && len(t.of(name)) > 0 }

// timed runs fn inside a span and records its duration, net of
// harness-only time and in milliseconds, as a sample of the same name.
func (t *tracer) timed(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	aside := t.aside
	id := t.begin(name)
	err := fn()
	t.add(name, ms(t.end(id)-(t.aside-aside)))
	return err
}

// outside runs harness-only work (shadow re-execution, probes) in a
// bench.outside span and adds its wall time to aside. The span makes
// every enclosing span's self time exclude it; aside lets timed, and
// callers that end spans by hand, report durations net of it. The
// calls never nest: nothing run outside goes through the client.
func (t *tracer) outside(fn func()) {
	id := t.begin("bench.outside")
	fn()
	t.aside += t.end(id)
}

// shadowOf runs fn with the finished span parent re-opened as the
// current parent: the spans fn records are marked shadow and explain
// part of parent's interval by re-executing it.
func (t *tracer) shadowOf(parent int, fn func()) {
	t.stack = append(t.stack, parent)
	t.shadow++
	fn()
	t.shadow--
	t.stack = t.stack[:len(t.stack)-1]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerOf is the part of a span name before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerSelf returns, per layer, the self time (a span's duration minus
// its direct children's) the layer spent in each of the n traced ops, in
// milliseconds and zero where the op never entered the layer, and the
// layer's span count. Shadow spans are children of the endpoint.select
// they decompose, so the endpoint's self time is what the in-process
// re-execution does not explain: HTTP, admission and transport.
func (t *tracer) layerSelf(n int) (self map[string][]float64, spans map[string]int) {
	child := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	self, spans = make(map[string][]float64), make(map[string]int)
	for _, s := range t.spans {
		l := layerOf(s.Name)
		if s.Op == 0 || l == "op" || l == "bench" {
			continue
		}
		if self[l] == nil {
			self[l] = make([]float64, n)
		}
		self[l][s.Op-1] += float64(s.End-s.Start-child[s.ID]) / 1e6
		spans[l]++
	}
	return self, spans
}

// budget prints the per-layer table of the traced ops — spans, busy
// (self) time, share of the ops' time, and the median over ops of the
// layer's self time in one op — and records the two ratios ROADMAP item
// 2a asks of a latency budget: the layer medians must add up to the
// untraced p50, and tracing must not have slowed the ops it timed.
func (t *tracer) budget(workload string, untracedP50 float64) {
	opMs := t.opMs
	self, spans := t.layerSelf(len(opMs))
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	total, layerSum := sum(opMs), 0.0
	fmt.Fprintf(os.Stderr, "\n%s: per-layer budget of %d traced ops (%.1f ms)\n", workload, len(opMs), total)
	fmt.Fprintf(os.Stderr, "  %-10s %7s %12s %9s %14s\n", "layer", "spans", "busy ms", "share", "median ms/op")
	for _, l := range layers {
		busy, med := sum(self[l]), median(self[l])
		layerSum += med
		fmt.Fprintf(os.Stderr, "  %-10s %7d %12.3f %8.1f%% %14.3f\n", l, spans[l], busy, 100*busy/total, med)
	}
	tracedP50 := nearestRank(sortedCopy(opMs), 50)
	sumRatio, overhead := layerSum/untracedP50, tracedP50/untracedP50
	t.add("bench.layer_sum_ratio", sumRatio)
	t.add("bench.trace_overhead_ratio", overhead)
	verdict := map[bool]string{true: "within budget", false: "OUTSIDE budget"}
	fmt.Fprintf(os.Stderr, "  layer medians sum to %.3f ms = %.3f of the untraced p50 %.3f ms: %s (0.9 to 1.1)\n",
		layerSum, sumRatio, untracedP50, verdict[sumRatio >= 0.9 && sumRatio <= 1.1])
	fmt.Fprintf(os.Stderr, "  traced p50 %.3f ms = %.3f of the untraced p50: %s (at most 1.05)\n\n",
		tracedP50, overhead, verdict[overhead <= 1.05])
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedClient decorates the HTTP client for the traced run: every
// Select/Update/EstimateCost becomes an endpoint.* span under whatever
// layer called it, and every successful Select is then decomposed by
// re-running the same query in process (shadowSelect) and probed for
// time-to-first-byte, both outside the op's measured time.
type tracedClient struct {
	inner *endpoint.Remote
	tr    *tracer
	env   *env
}

func (c *tracedClient) Select(query string) (*sparql.Results, error) {
	id := c.tr.begin("endpoint.select")
	res, err := c.inner.Select(query)
	d := c.tr.end(id)
	c.tr.add("endpoint.select", ms(d))
	if err == nil {
		c.tr.outside(func() {
			c.tr.shadowOf(id, func() { c.shadowSelect(query, d) })
			c.probeTTFB(query)
		})
	}
	return res, err
}

func (c *tracedClient) Update(update string) error {
	return c.tr.timed("endpoint.update", func() error { return c.inner.Update(update) })
}

// EstimateCost keeps ql.Auto's cost-based choice working through the
// decorator (ql.Choose type-asserts endpoint.CostEstimator).
func (c *tracedClient) EstimateCost(query string) (cost float64, err error) {
	err = c.tr.timed("endpoint.cost", func() error {
		cost, err = c.inner.EstimateCost(query)
		return err
	})
	return cost, err
}

// shadowSelect re-executes one query against the server's own engine,
// one public call per span, as children of the endpoint.select span it
// explains: ParseQuery, Engine.Plan, Engine.StreamSelect with the
// result encoded chunk by chunk exactly as the server's handler does,
// and DecodeResults on the encoded bytes. What is left of the HTTP
// round trip after subtracting these is the endpoint's own overhead.
func (c *tracedClient) shadowSelect(query string, selectDur time.Duration) {
	t := c.tr
	id := t.begin("sparql.parse")
	q, err := sparql.ParseQuery(query)
	parseDur := t.end(id)
	if err != nil || q.Form != sparql.FormSelect {
		return
	}
	t.add("sparql.parse", ms(parseDur))

	eng := c.env.srv.Engine()
	id = t.begin("sparql.plan")
	plan := eng.Plan(q)
	planDur := t.end(id)
	t.add("sparql.plan", ms(planDur))

	acct := obs.NewQueryAcct(nil, 0)
	ctx := sparql.WithQueryAcct(context.Background(), acct)
	var buf bytes.Buffer
	enc := sparql.NewResultsEncoder(&buf)
	var encDur, firstChunk time.Duration
	rows := 0
	evalID := t.begin("sparql.eval")
	evalStart := time.Now()
	err = eng.StreamSelect(ctx, plan.Query,
		func(vars []string) error { return enc.Head(vars) },
		func(chunk [][]rdf.Term) error {
			if rows == 0 {
				firstChunk = time.Since(evalStart)
			}
			rows += len(chunk)
			eid := t.begin("sparql.encode")
			err := enc.Rows(chunk)
			encDur += t.end(eid)
			return err
		})
	if err == nil {
		eid := t.begin("sparql.encode")
		err = enc.Close()
		encDur += t.end(eid)
	}
	evalDur := t.end(evalID) - encDur
	acct.Finish()
	if err != nil {
		return
	}
	if rows == 0 {
		firstChunk = evalDur
	}
	t.add("sparql.eval", ms(evalDur))
	t.add("sparql.first_chunk", ms(firstChunk))
	t.add("sparql.encode", ms(encDur))
	t.add("sparql.rows_out", float64(rows))
	t.add("sparql.acct_rows", float64(acct.Rows()))
	t.add("sparql.acct_peak_kb", float64(acct.Peak())/1024)
	t.add("sparql.result_kb", float64(buf.Len())/1024)

	id = t.begin("sparql.decode")
	_, err = sparql.DecodeResults(&buf)
	decDur := t.end(id)
	if err != nil {
		return
	}
	t.add("sparql.decode", ms(decDur))
	t.add("endpoint.overhead", ms(selectDur-parseDur-planDur-evalDur-encDur-decDur))
}

// probeTTFB posts the query with plain net/http and records when the
// first response byte arrives: the server's time to first chunk plus
// the HTTP path, without the client's decode.
func (c *tracedClient) probeTTFB(query string) {
	t := c.tr
	id := t.begin("bench.ttfb_probe")
	defer t.end(id)
	form := url.Values{"query": {query}}
	req, err := http.NewRequest(http.MethodPost, c.inner.QueryURL, strings.NewReader(form.Encode()))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", "application/sparql-results+json")
	var first time.Duration
	start := time.Now()
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Since(start) },
	}))
	resp, err := c.inner.HTTPClient.Do(req)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK && first > 0 {
		t.add("endpoint.ttfb", ms(first))
	}
}

// layerMetric maps one per-layer metric of BENCHMARK.json to the
// samples it is computed from.
type layerMetric struct {
	name, unit, better string
	from               string  // sample name
	agg                string  // median | last | ratio
	scale              float64 // multiplies the aggregate (ms→µs = 1000)
	over               string  // denominator sample name of a ratio
}

// layerMetrics lists every per-layer metric, in the order printed. The
// README's prediction table says which end-to-end metric each moves.
var layerMetrics = []layerMetric{
	{name: "ql.parse_us", unit: "us", better: "lower", from: "ql.parse", agg: "median", scale: 1000},
	{name: "ql.analyze_us", unit: "us", better: "lower", from: "ql.analyze", agg: "median", scale: 1000},
	{name: "ql.simplify_us", unit: "us", better: "lower", from: "ql.simplify", agg: "median", scale: 1000},
	{name: "ql.translate_us", unit: "us", better: "lower", from: "ql.translate", agg: "median", scale: 1000},
	{name: "ql.materialize_us", unit: "us", better: "lower", from: "ql.materialize", agg: "median", scale: 1000},
	{name: "ql.sparql_lines", unit: "count", better: "lower", from: "ql.sparql_lines", agg: "median", scale: 1},

	{name: "sparql.parse_us", unit: "us", better: "lower", from: "sparql.parse", agg: "median", scale: 1000},
	{name: "sparql.plan_us", unit: "us", better: "lower", from: "sparql.plan", agg: "median", scale: 1000},
	{name: "sparql.first_chunk_ms", unit: "ms", better: "lower", from: "sparql.first_chunk", agg: "median", scale: 1},
	{name: "sparql.eval_ms", unit: "ms", better: "lower", from: "sparql.eval", agg: "median", scale: 1},
	{name: "sparql.acct_rows", unit: "count", better: "lower", from: "sparql.acct_rows", agg: "median", scale: 1},
	{name: "sparql.acct_peak_kb", unit: "KiB", better: "lower", from: "sparql.acct_peak_kb", agg: "median", scale: 1},
	{name: "sparql.rows_out", unit: "count", better: "higher", from: "sparql.rows_out", agg: "median", scale: 1},
	{name: "sparql.rows_per_result", unit: "ratio", better: "lower", from: "sparql.acct_rows", agg: "ratio", scale: 1, over: "sparql.rows_out"},
	{name: "sparql.encode_ms", unit: "ms", better: "lower", from: "sparql.encode", agg: "median", scale: 1},
	{name: "sparql.decode_ms", unit: "ms", better: "lower", from: "sparql.decode", agg: "median", scale: 1},
	{name: "sparql.result_kb", unit: "KiB", better: "lower", from: "sparql.result_kb", agg: "median", scale: 1},

	{name: "endpoint.select_ms", unit: "ms", better: "lower", from: "endpoint.select", agg: "median", scale: 1},
	{name: "endpoint.overhead_ms", unit: "ms", better: "lower", from: "endpoint.overhead", agg: "median", scale: 1},
	{name: "endpoint.ttfb_ms", unit: "ms", better: "lower", from: "endpoint.ttfb", agg: "median", scale: 1},
	{name: "endpoint.update_ms", unit: "ms", better: "lower", from: "endpoint.update", agg: "median", scale: 1},
	{name: "endpoint.retries", unit: "count", better: "lower", from: "endpoint.retries", agg: "last", scale: 1},

	{name: "store.insert_ktriples_per_s", unit: "1/s", better: "higher", from: "store.insert_triples", agg: "ratio", scale: 1, over: "store.insert"},
	{name: "store.refresh_ms", unit: "ms", better: "lower", from: "store.refresh", agg: "median", scale: 1},
	{name: "store.scan_mtriples_per_s", unit: "1/s", better: "higher", from: "store.scan_triples", agg: "ratio", scale: 1e-3, over: "store.scan"},
	{name: "store.bytes_per_triple", unit: "B", better: "lower", from: "store.bytes_per_triple", agg: "last", scale: 1},
	{name: "store.triples", unit: "count", better: "lower", from: "store.triples", agg: "last", scale: 1},

	{name: "enrich.new_session_ms", unit: "ms", better: "lower", from: "enrich.new_session", agg: "median", scale: 1},
	{name: "enrich.suggest_ms", unit: "ms", better: "lower", from: "enrich.suggest", agg: "median", scale: 1},
	{name: "enrich.apply_ms", unit: "ms", better: "lower", from: "enrich.apply", agg: "median", scale: 1},
	{name: "enrich.generate_ms", unit: "ms", better: "lower", from: "enrich.generate", agg: "median", scale: 1},
	{name: "enrich.commit_ms", unit: "ms", better: "lower", from: "enrich.commit", agg: "median", scale: 1},
	{name: "enrich.client_wait_ms", unit: "ms", better: "lower", from: "enrich.client_wait", agg: "median", scale: 1},
	{name: "enrich.self_ms", unit: "ms", better: "lower", from: "enrich.self", agg: "median", scale: 1},
	{name: "enrich.client_calls", unit: "count", better: "lower", from: "enrich.client_calls", agg: "median", scale: 1},
	{name: "enrich.triples_out", unit: "count", better: "lower", from: "enrich.triples_out", agg: "median", scale: 1},

	{name: "qb4olap.load_schema_ms", unit: "ms", better: "lower", from: "qb4olap.load_schema", agg: "median", scale: 1},
	{name: "qb4olap.validate_ms", unit: "ms", better: "lower", from: "qb4olap.validate", agg: "median", scale: 1},
	{name: "explore.members_ms", unit: "ms", better: "lower", from: "explore.members", agg: "median", scale: 1},
	{name: "explore.rollup_edges_ms", unit: "ms", better: "lower", from: "explore.rollup_edges", agg: "median", scale: 1},
	{name: "eurostat.generate_ms", unit: "ms", better: "lower", from: "eurostat.generate", agg: "median", scale: 1},

	{name: "bench.layer_sum_ratio", unit: "ratio", better: "higher", from: "bench.layer_sum_ratio", agg: "last", scale: 1},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower", from: "bench.trace_overhead_ratio", agg: "last", scale: 1},
}

// value computes the metric from the tracer's samples. A ratio of a
// count to a duration in milliseconds is a rate in thousands per second.
func (m layerMetric) value(t *tracer) float64 {
	xs := t.of(m.from)
	var v float64
	switch m.agg {
	case "median":
		v = median(xs)
	case "last":
		if len(xs) > 0 {
			v = xs[len(xs)-1]
		}
	case "ratio":
		if d := sum(t.of(m.over)); d > 0 {
			v = sum(xs) / d
		}
	default:
		panic(fmt.Sprintf("bench: unknown aggregation %q for %s", m.agg, m.name))
	}
	return v * m.scale
}
