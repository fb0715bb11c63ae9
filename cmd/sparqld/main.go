// Command sparqld serves an in-memory RDF store over the SPARQL 1.1
// protocol (query at /sparql, update at /update, bulk load at /load),
// playing the role of the Virtuoso endpoint in the QB2OLAP paper.
//
// Usage:
//
//	sparqld [-addr :8080] [-data file.ttl|file.nq]... [-demo N]
//	        [-readonly] [-planner on|off] [-trace RATE] [-trace-export file.jsonl]
//	        [-slowlog DUR] [-debug-addr :8081] [-query-timeout DUR]
//	        [-max-inflight N] [-max-query-mem SIZE] [-profile-dir DIR]
//	        [-fault-profile NAME] [-tick DUR] [-slo file.json]
//
// -data loads a file (repeatable): one whose name ends in .nq as N-Quads,
// keeping its named graphs, any other as Turtle into the default graph.
// -demo N generates the synthetic Eurostat asylum cube (generator seed
// 42) with N observations plus the simulated external graph and loads it.
// -readonly rejects updates and loads. -planner=off disables the
// cost-based query planner (statistics-driven join reordering and
// filter pushdown before evaluation, plus the /sparql?cost=1 plan-cost
// surface): patterns then join in the written order.
//
// Observability: -trace RATE traces that fraction of locally-initiated
// queries (0, the default, disables tracing; 1 traces every query) and
// keeps the last 64 traces at /debug/traces on the -debug-addr
// listener, which it therefore requires. Clients that send a W3C
// traceparent header choose for themselves, and sampled requests get
// the server's span tree back in the X-Qb2olap-Trace response header.
// Individual queries can always be traced on demand with
// /sparql?...&explain=1. -trace-export FILE additionally appends every
// collected trace as JSONL (size-bounded, rotating) for offline
// analysis with `qb2olap trace`; it requires -trace.
//
// Resilience: -query-timeout DUR bounds each query evaluation — an
// expired query returns 504 Gateway Timeout, with the partial trace in
// X-Qb2olap-Trace when the query was traced. -max-inflight N sheds
// queries beyond N concurrent evaluations with 503 + Retry-After
// instead of queueing them. Shed, timed-out and client-canceled
// queries count in queries_shed_total / queries_timeout_total /
// queries_canceled_total at /metrics and are tagged in the access log.
// -fault-profile wraps the whole protocol handler in a deterministic
// fault injector (connection drops, 503 bursts, slow responses,
// truncated bodies) for chaos testing clients; its decision sequence is
// seeded with the constant 1.
//
// Resource accounting is always on: every query's materialized rows and
// approximate bytes are tracked (visible per query via ?explain=1, per
// shape at /workload, and server-wide as the query_mem_inflight_bytes /
// query_mem_highwater_bytes gauges). -max-query-mem SIZE (e.g. 64M,
// 1G) additionally aborts any single query whose in-flight materialized
// bytes exceed the budget, returning 429 with the X-Qb2olap-Mem-Limit
// marker so aware clients do not retry. -profile-dir DIR enables
// continuous profiling: every query the slow log records (-slowlog) and
// every query aborted over -max-query-mem captures a heap profile
// stamped with the query's trace ID into DIR (size-bounded, oldest
// deleted first, rate-limited to one capture per 30s). It requires at
// least one of those two flags.
//
// Time series & alerting: every registry metric is sampled each -tick
// (default 1s) into multi-resolution ring buffers (5m, 1h and 12h of
// history at a 1s tick), served as windowed JSON at /timeseries
// (?window=5m&step=10s&name=substr) and as a self-refreshing
// zero-dependency HTML dashboard at /debug/dash; `qb2olap monitor`
// renders the same data as a live terminal view. -slo FILE reuses the
// checked-in SLO thresholds as burn-rate alert rules — a rule fires
// when both the fast window (the finest level's reach, 5m at a 1s tick)
// and the slow window (the next level's, 1h) violate it and resolves
// when the fast window recovers — with state at /alerts, transition
// counters in /metrics, and transitions logged. The file's
// max_shed_rate also flips /readyz to 503 while the shed rate over the
// last minute exceeds it, so a load balancer drains an overloaded node
// (liveness at /healthz is unaffected). -tick 0 disables all of it at
// zero cost; -slo requires -tick > 0.
//
// Every /sparql request is booked as one record: the access log line,
// the per-shape statistics at /workload and, for a slow query, the
// slow-log entry all read it. -slowlog DUR logs queries at Warn, with
// their text, when they take at least DUR (e.g. -slowlog 250ms), and
// keeps the last 64 at /debug/slow, each with its trace ID and the
// shape hash it has at /workload. -debug-addr serves /metrics,
// /debug/vars, /debug/pprof, /debug/traces and /debug/slow on a second
// listener, the only one that serves them, keeping profilers off the
// protocol port. The server shuts down gracefully on SIGINT/SIGTERM,
// draining in-flight requests and logging a final metrics snapshot plus
// one latency-quantile line per histogram.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/endpoint"
	"repro/internal/eurostat"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/ql"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

// parseSize parses a byte size with an optional K/M/G suffix (powers of
// 1024), e.g. "64M" or "1G". A bare number is bytes.
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative size")
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("size %q overflows int64 bytes", s)
	}
	return n * mult, nil
}

// sparqld is one configured server: the protocol server, the handler
// that fronts it, and the addresses main listens on.
type sparqld struct {
	srv       *endpoint.Server
	handler   http.Handler
	addr      string
	debugAddr string
}

// newServer defines sparqld's flags on fs, parses args, and builds the
// server they describe: it validates every flag, loads the data, and
// wires tracing, profiling, the time series, alerts and fault
// injection. It starts no goroutine and listens on nothing.
func newServer(fs *flag.FlagSet, args []string) (*sparqld, error) {
	var files []string
	addr := fs.String("addr", ":8080", "listen address")
	demoObs := fs.Int("demo", 0, "generate the synthetic Eurostat cube (seed 42) with this many observations")
	readOnly := fs.Bool("readonly", false, "reject updates and loads (serve data only)")
	planner := fs.String("planner", "on", "cost-based query planner: on (reorder joins, push filters, serve ?cost=1) or off (joins and filters run as written)")
	traceRate := fs.Float64("trace", 0, "trace this fraction of queries, keeping the last 64 traces at /debug/traces (0 disables; propagated traceparent verdicts always win; requires -debug-addr)")
	traceExport := fs.String("trace-export", "", "append every collected trace as JSONL to this file (rotated at 64MB; requires -trace)")
	slowlog := fs.Duration("slowlog", 0, "log queries taking at least this long, with their text (0 disables)")
	queryTimeout := fs.Duration("query-timeout", 0, "per-query evaluation deadline; expired queries return 504 (0 disables)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently evaluating queries; excess requests are shed with 503 (0 = unbounded)")
	maxQueryMem := fs.String("max-query-mem", "", "per-query in-flight materialized-bytes budget, e.g. 64M or 1G; over-budget queries return 429 (empty disables)")
	profileDir := fs.String("profile-dir", "", "capture a heap profile into this directory for every slow-logged (-slowlog) or over-budget (-max-query-mem) query (empty disables)")
	faultProfile := fs.String("fault-profile", "", "inject faults around the protocol handler for chaos testing: "+strings.Join(faults.Names(), ", "))
	tick := fs.Duration("tick", time.Second, "metrics time-series sampling interval for /timeseries and /debug/dash (0 disables the series, dashboard, alerts and shed readiness)")
	sloFile := fs.String("slo", "", "evaluate this SLO file's thresholds as live burn-rate alert rules at /alerts, and drain /readyz past its max_shed_rate (requires -tick > 0)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics and /debug diagnostics on this second address")
	fs.Func("data", "file to load: .nq as N-Quads keeping its named graphs, any other as Turtle into the default graph (repeatable)", func(v string) error { files = append(files, v); return nil })
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	// Validate every flag before the (possibly slow) load.
	if *planner != "on" && *planner != "off" {
		return nil, fmt.Errorf("invalid -planner value %q (want on or off)", *planner)
	}
	if !(*traceRate >= 0 && *traceRate <= 1) {
		return nil, fmt.Errorf("invalid -trace %v (want a sampling rate in [0, 1])", *traceRate)
	}
	if *traceExport != "" && *traceRate == 0 {
		return nil, errors.New("-trace-export requires -trace")
	}
	if *traceRate > 0 && *debugAddr == "" {
		return nil, errors.New("-trace requires -debug-addr, the listener that serves /debug/traces")
	}
	if *sloFile != "" && *tick <= 0 {
		return nil, errors.New("-slo requires -tick > 0")
	}
	if *profileDir != "" && *slowlog <= 0 && *maxQueryMem == "" {
		return nil, errors.New("-profile-dir needs a trigger: -slowlog or -max-query-mem")
	}
	faultProf, ok := faults.ByName(*faultProfile)
	if !ok {
		return nil, fmt.Errorf("unknown -fault-profile %q (have: %s)", *faultProfile, strings.Join(faults.Names(), ", "))
	}
	var memLimit int64
	if *maxQueryMem != "" {
		n, err := parseSize(*maxQueryMem)
		if err != nil {
			return nil, fmt.Errorf("invalid -max-query-mem: %v", err)
		}
		memLimit = n
	}

	st := store.New()
	for _, path := range files {
		if err := load(st, path); err != nil {
			return nil, err
		}
	}
	if *demoObs > 0 {
		cfg := eurostat.DefaultConfig()
		cfg.TargetObservations = *demoObs
		d := eurostat.Generate(cfg)
		d.LoadInto(st)
		log.Printf("generated demo cube: %d observations, %d triples total",
			len(d.Observations), st.TotalLen())
	}

	srv := endpoint.NewServer(st, sparql.WithPlanner(*planner == "on"))
	srv.ReadOnly = *readOnly
	// Publish the ql.Choose decision counters on the same /metrics
	// surface: zero while translation choice happens client-side, live
	// the moment anything in this process (an embedded tool, a future
	// server-side translator) calls Choose.
	ql.RegisterChooseMetrics(srv.Metrics())
	srv.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv.SlowQuery = *slowlog
	srv.QueryTimeout = *queryTimeout
	srv.MaxInFlight = *maxInflight
	srv.MaxQueryMem = memLimit
	if *profileDir != "" {
		prof, err := obs.NewProfiler(*profileDir)
		if err != nil {
			return nil, fmt.Errorf("opening profile dir: %v", err)
		}
		srv.Profiler = prof
		log.Printf("sparqld: continuous profiling on: dir=%s (slow-logged and over-budget queries)", *profileDir)
	}
	if *traceRate > 0 {
		srv.Tracer = obs.NewTracer(64) // the slow log's bound
		srv.Sampler = obs.NewSampler(*traceRate)
	}

	// Time-series sampling, burn-rate alerting, and the readiness shed
	// gate all hang off the -tick sampler; with -tick 0 none of it runs
	// and the server pays nothing.
	if *tick > 0 {
		srv.Series = obs.NewTimeSeries(srv.Metrics(), obs.NewLadder(*tick, 0))
		if *sloFile != "" {
			slo, err := loadgen.LoadSLO(*sloFile)
			if err != nil {
				return nil, err
			}
			srv.ReadyMaxShedRate = slo.MaxShedRate
			if rules := loadgen.AlertRules(slo); len(rules) > 0 {
				srv.Alerts = obs.NewAlerts(srv.Series, srv.Metrics(), rules, srv.Logger)
				srv.Series.OnTick = srv.Alerts.Eval
				w := srv.Alerts.Snapshot()
				log.Printf("sparqld: %d alert rule(s) from %s (fast=%dms slow=%dms) at /alerts", len(rules), *sloFile, w.FastWindowMs, w.SlowWindowMs)
			}
		}
	}

	// The fault injector wraps the protocol handler from the outside, so
	// injected drops and 503s look like network/infrastructure failures
	// to clients — the deterministic chaos hook behind -fault-profile.
	handler := http.Handler(srv.Handler())
	if faultProf.Enabled() {
		handler = faults.New(faultProf, 1).Handler(handler)
		log.Printf("sparqld: fault injection on: profile=%s", faultProf.Name)
	}

	// Opened last: nothing after it can fail and leave the file open.
	if *traceExport != "" {
		exporter, err := obs.NewExporter(*traceExport, obs.DefaultExportMaxBytes, 3)
		if err != nil {
			return nil, fmt.Errorf("opening trace export: %v", err)
		}
		srv.Exporter = exporter
	}
	return &sparqld{srv: srv, handler: handler, addr: *addr, debugAddr: *debugAddr}, nil
}

// load reads one -data file into st: N-Quads, with their named graphs,
// when the name ends in .nq, and Turtle into the default graph otherwise.
func load(st *store.Store, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".nq") {
		quads, err := turtle.ParseNQuads(string(data))
		if err != nil {
			return fmt.Errorf("parsing %s: %v", path, err)
		}
		log.Printf("loaded %d quads from %s", turtle.LoadQuads(st, quads), path)
		return nil
	}
	triples, _, err := turtle.Parse(string(data))
	if err != nil {
		return fmt.Errorf("parsing %s: %v", path, err)
	}
	log.Printf("loaded %d triples from %s", st.InsertTriples(rdf.Term{}, triples), path)
	return nil
}

func main() {
	d, err := newServer(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("sparqld: %v", err)
	}
	srv := d.srv
	if srv.Series != nil {
		stopSeries := srv.Series.Start()
		defer stopSeries()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: d.addr, Handler: d.handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	var dbg *http.Server
	if d.debugAddr != "" {
		srv.Metrics().Publish("sparqld") // mirror the registry into expvar
		dbg = &http.Server{Addr: d.debugAddr, Handler: srv.DebugHandler()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("sparqld: debug listener: %v", err)
			}
		}()
		log.Printf("sparqld debug listening on %s (/metrics, /debug/vars, /debug/pprof, /debug/traces, /debug/slow)", d.debugAddr)
	}

	routes := "query: /sparql, update: /update, load: /load, stats: /stats, metrics: /metrics, workload: /workload"
	if srv.Series != nil {
		routes += ", timeseries: /timeseries, dashboard: /debug/dash"
	}
	if srv.Alerts != nil {
		routes += ", alerts: /alerts"
	}
	log.Printf("sparqld listening on %s (%s)", d.addr, routes)
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop listening, drain in-flight requests for up
	// to 5s, then report what the process did with its life.
	stop()
	log.Printf("sparqld: signal received, shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("sparqld: shutdown: %v", err)
	}
	if dbg != nil {
		dbg.Shutdown(sctx)
	}
	if exporter := srv.Exporter; exporter != nil {
		log.Printf("sparqld: trace export: %d written, %d dropped (%s)",
			exporter.Written(), exporter.Dropped(), exporter.Path())
		if err := exporter.Close(); err != nil {
			log.Printf("sparqld: closing trace export: %v", err)
		}
	}
	snapshot := srv.Metrics().Snapshot()
	if snap, err := json.Marshal(snapshot); err == nil {
		log.Printf("sparqld: final metrics: %s", snap)
	}
	// One human-readable latency line per histogram, sorted by name.
	names := make([]string, 0, len(snapshot))
	for name := range snapshot {
		if _, ok := snapshot[name].(obs.HistogramSnapshot); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		log.Printf("sparqld: %s: %s", name, snapshot[name].(obs.HistogramSnapshot).Quantiles())
	}
}
