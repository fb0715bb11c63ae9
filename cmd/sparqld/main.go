// Command sparqld serves an in-memory RDF store over the SPARQL 1.1
// protocol (query at /sparql, update at /update, bulk load at /load),
// playing the role of the Virtuoso endpoint in the QB2OLAP paper.
//
// Usage:
//
//	sparqld [-addr :8080] [-data file.ttl]... [-demo N] [-planner on|off]
//	        [-trace N] [-sample RATE] [-trace-export file.jsonl]
//	        [-slowlog DUR] [-debug-addr :8081]
//	        [-query-timeout DUR] [-max-inflight N]
//	        [-max-query-mem SIZE]
//	        [-profile-dir DIR] [-profile-mem SIZE] [-profile-latency DUR]
//	        [-fault-profile NAME] [-fault-seed N]
//	        [-tick DUR] [-retention DUR] [-slo file.json]
//	        [-alert-fast DUR] [-alert-slow DUR]
//	        [-ready-max-shed RATE] [-ready-shed-window DUR]
//	        [-progress] [-report file.json]
//
// -data loads a Turtle file into the default graph (repeatable);
// -demo N generates the synthetic Eurostat asylum cube with N
// observations (plus the simulated external graph) and loads it.
// -planner=off disables the cost-based query planner
// (statistics-driven join reordering and filter pushdown before
// evaluation, plus the /sparql?cost=1 plan-cost surface): patterns then
// join in the written order. Every query evaluates through the chunked
// pipeline, and a SELECT's JSON response is encoded and flushed chunk
// by chunk, so peak memory tracks pipeline depth instead of the largest
// intermediate.
//
// Observability: -trace N keeps the last N collected traces at
// /debug/traces (individual queries can always be traced on demand
// with /sparql?...&explain=1). With tracing on, -sample RATE (default
// 0.01) decides which locally-initiated queries are traced; clients
// that send a W3C traceparent header choose for themselves, and sampled
// requests get the server's span tree back in the X-Qb2olap-Trace
// response header. -trace-export FILE additionally appends every
// collected trace as JSONL (size-bounded, rotating) for offline
// analysis with `qb2olap trace`.
// Resilience: -query-timeout DUR bounds each query evaluation — an
// expired query returns 504 Gateway Timeout, with the partial trace in
// X-Qb2olap-Trace when the query was traced. -max-inflight N sheds
// queries beyond N concurrent evaluations with 503 + Retry-After
// instead of queueing them. Shed, timed-out and client-canceled
// queries count in queries_shed_total / queries_timeout_total /
// queries_canceled_total at /metrics and are tagged in the access log.
// -fault-profile wraps the whole protocol handler in a deterministic,
// seeded fault injector (connection drops, 503 bursts, slow responses,
// truncated bodies) for chaos testing clients; -fault-seed fixes the
// decision sequence.
//
// Resource accounting is always on: every query's materialized rows and
// approximate bytes are tracked (visible per query via ?explain=1, per
// shape at /workload, and server-wide as the query_mem_inflight_bytes /
// query_mem_highwater_bytes gauges). -max-query-mem SIZE (e.g. 64M,
// 1G) additionally aborts any single query whose in-flight materialized
// bytes exceed the budget, returning 429 with the X-Qb2olap-Mem-Limit
// marker so aware clients do not retry. -profile-dir DIR enables
// threshold-triggered continuous profiling: when a query's latency
// crosses -profile-latency or its peak in-flight bytes cross
// -profile-mem, a heap and CPU profile stamped with the query's trace
// ID is captured into DIR (size-bounded, oldest deleted first,
// rate-limited to one capture per 30s).
//
// Time series & alerting: every registry metric is sampled each -tick
// (default 1s) into multi-resolution ring buffers retained for
// -retention (default 12h), served as windowed JSON at /timeseries
// (?window=5m&step=10s&name=substr) and as a self-refreshing
// zero-dependency HTML dashboard at /debug/dash; `qb2olap monitor`
// renders the same data as a live terminal view. -slo FILE reuses the
// checked-in SLO thresholds as burn-rate alert rules — a rule fires
// when both the -alert-fast and -alert-slow windows violate it and
// resolves when the fast window recovers — with state at /alerts,
// transition counters in /metrics, and transitions logged.
// -ready-max-shed RATE flips /readyz to 503 while the shed rate over
// -ready-shed-window exceeds RATE, so a load balancer drains an
// overloaded node (liveness at /healthz is unaffected). -tick 0
// disables all of it at zero cost.
//
// -slowlog DUR logs queries at Warn, with their text, when they take
// at least DUR (e.g. -slowlog 250ms). -debug-addr serves /metrics,
// /debug/vars, /debug/pprof, and /debug/traces on a second listener,
// keeping profilers off the protocol port. -progress streams live
// per-phase load progress to stderr and -report writes a JSON run
// report of the startup load. The server shuts down gracefully on
// SIGINT/SIGTERM, draining in-flight requests and logging a final
// metrics snapshot plus one latency-quantile line per histogram.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
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

type fileList []string

func (f *fileList) String() string { return fmt.Sprint(*f) }

func (f *fileList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

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
	return n * mult, nil
}

func main() {
	var files fileList
	addr := flag.String("addr", ":8080", "listen address")
	demoObs := flag.Int("demo", 0, "generate the synthetic Eurostat cube with this many observations")
	seed := flag.Int64("seed", 42, "generator seed for -demo")
	readOnly := flag.Bool("readonly", false, "reject updates and loads (serve data only)")
	planner := flag.String("planner", "on", "cost-based query planner: on (reorder joins, push filters, serve ?cost=1) or off (joins and filters run as written)")
	traceN := flag.Int("trace", 0, "trace every query, keeping the last N traces at /debug/traces (0 disables)")
	sample := flag.Float64("sample", 0.01, "fraction of queries traced when tracing is on (propagated traceparent verdicts always win)")
	traceExport := flag.String("trace-export", "", "append every collected trace as JSONL to this file (rotated at 64MB)")
	slowlog := flag.Duration("slowlog", 0, "log queries taking at least this long, with their text (0 disables)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query evaluation deadline; expired queries return 504 (0 disables)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently evaluating queries; excess requests are shed with 503 (0 = unbounded)")
	maxQueryMem := flag.String("max-query-mem", "", "per-query in-flight materialized-bytes budget, e.g. 64M or 1G; over-budget queries return 429 (empty disables)")
	profileDir := flag.String("profile-dir", "", "capture threshold-triggered pprof profiles into this directory (empty disables)")
	profileMem := flag.String("profile-mem", "", "capture a profile when a query's peak in-flight bytes reach this size, e.g. 128M (requires -profile-dir)")
	profileLatency := flag.Duration("profile-latency", 0, "capture a profile when a query takes at least this long (requires -profile-dir)")
	faultProfile := flag.String("fault-profile", "", "inject faults around the protocol handler for chaos testing: "+strings.Join(faults.Names(), ", "))
	faultSeed := flag.Int64("fault-seed", 1, "seed for the -fault-profile decision sequence")
	tick := flag.Duration("tick", time.Second, "metrics time-series sampling interval for /timeseries and /debug/dash (0 disables the series, dashboard, and alerts)")
	retention := flag.Duration("retention", 12*time.Hour, "total time-series history retained across the downsampling ladder")
	sloFile := flag.String("slo", "", "evaluate this SLO file's thresholds as live burn-rate alert rules at /alerts (requires -tick > 0)")
	alertFast := flag.Duration("alert-fast", 5*time.Minute, "fast alert window: a rule fires when both windows violate and resolves when this one recovers")
	alertSlow := flag.Duration("alert-slow", time.Hour, "slow alert window: the sustained half of the burn-rate pair")
	readyMaxShed := flag.Float64("ready-max-shed", 0, "flip /readyz to 503 while the windowed shed rate exceeds this fraction, e.g. 0.5 (0 disables; requires -tick > 0)")
	readyShedWindow := flag.Duration("ready-shed-window", time.Minute, "window for the -ready-max-shed readiness shed rate")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug diagnostics on this second address")
	progress := flag.Bool("progress", false, "print live load progress to stderr")
	report := flag.String("report", "", "write a JSON run report of the startup load to this file (- for stdout)")
	var quadFiles fileList
	flag.Var(&files, "data", "Turtle file to load into the default graph (repeatable)")
	flag.Var(&quadFiles, "quads", "N-Quads file to load, preserving named graphs (repeatable)")
	flag.Parse()

	var prog *obs.Progress
	if *progress || *report != "" {
		prog = obs.NewProgress("load")
		if *progress {
			prog.OnEvent = obs.TermSink(os.Stderr)
		}
	}

	st := store.New()
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("sparqld: %v", err)
		}
		triples, _, err := turtle.Parse(string(data))
		if err != nil {
			log.Fatalf("sparqld: parsing %s: %v", path, err)
		}
		ph := prog.Phase("load-turtle")
		n := st.InsertTriplesP(rdf.Term{}, triples, ph)
		ph.Done()
		prog.Count("triplesLoaded", int64(n))
		log.Printf("loaded %d triples from %s", n, path)
	}
	for _, path := range quadFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("sparqld: %v", err)
		}
		quads, err := turtle.ParseNQuads(string(data))
		if err != nil {
			log.Fatalf("sparqld: parsing %s: %v", path, err)
		}
		ph := prog.Phase("load-quads")
		n := turtle.LoadQuadsP(st, quads, ph)
		ph.Done()
		prog.Count("quadsLoaded", int64(n))
		log.Printf("loaded %d quads from %s", n, path)
	}
	if *demoObs > 0 {
		cfg := eurostat.DefaultConfig()
		cfg.TargetObservations = *demoObs
		cfg.Seed = *seed
		ph := prog.Phase("generate-demo")
		d := eurostat.Generate(cfg)
		before := st.TotalLen()
		d.LoadInto(st)
		ph.Grow(int64(st.TotalLen() - before))
		ph.Add(int64(st.TotalLen() - before))
		ph.Done()
		prog.Count("triplesLoaded", int64(st.TotalLen()-before))
		log.Printf("generated demo cube: %d observations, %d triples total",
			len(d.Observations), st.TotalLen())
	}
	if *report != "" {
		if err := prog.Report().WriteFile(*report); err != nil {
			log.Fatalf("sparqld: writing run report: %v", err)
		}
	}

	if *planner != "on" && *planner != "off" {
		log.Fatalf("sparqld: invalid -planner value %q (want on or off)", *planner)
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
	if *maxQueryMem != "" {
		n, err := parseSize(*maxQueryMem)
		if err != nil {
			log.Fatalf("sparqld: invalid -max-query-mem: %v", err)
		}
		srv.MaxQueryMem = n
	}
	if *profileDir == "" && (*profileMem != "" || *profileLatency > 0) {
		log.Fatalf("sparqld: -profile-mem and -profile-latency require -profile-dir")
	}
	if *profileDir != "" {
		prof, err := obs.NewProfiler(*profileDir)
		if err != nil {
			log.Fatalf("sparqld: opening profile dir: %v", err)
		}
		srv.Profiler = prof
		srv.ProfileLatency = *profileLatency
		if *profileMem != "" {
			n, err := parseSize(*profileMem)
			if err != nil {
				log.Fatalf("sparqld: invalid -profile-mem: %v", err)
			}
			srv.ProfileMemBytes = n
		}
		if srv.ProfileLatency == 0 && srv.ProfileMemBytes == 0 {
			log.Fatalf("sparqld: -profile-dir needs at least one trigger (-profile-mem or -profile-latency)")
		}
		log.Printf("sparqld: continuous profiling on: dir=%s mem=%s latency=%s",
			*profileDir, *profileMem, *profileLatency)
	}
	if *traceN > 0 {
		srv.Tracer = obs.NewTracer(*traceN)
		// Without a separate debug listener, mount /debug on the
		// protocol handler so the traces are reachable.
		srv.Debug = *debugAddr == ""
	}
	var exporter *obs.Exporter
	if *traceExport != "" {
		var err error
		exporter, err = obs.NewExporter(*traceExport, obs.DefaultExportMaxBytes, 3)
		if err != nil {
			log.Fatalf("sparqld: opening trace export: %v", err)
		}
		srv.Exporter = exporter
	}
	if srv.Tracer != nil || srv.Exporter != nil {
		srv.Sampler = obs.NewSampler(*sample)
	}

	// Time-series sampling, burn-rate alerting, and the readiness shed
	// gate all hang off the -tick sampler; with -tick 0 none of it runs
	// and the server pays nothing.
	if *tick > 0 {
		srv.Series = obs.NewTimeSeries(srv.Metrics(), obs.NewLadder(*tick, *retention))
		if *sloFile != "" {
			slo, err := loadgen.LoadSLO(*sloFile)
			if err != nil {
				log.Fatalf("sparqld: %v", err)
			}
			if rules := loadgen.AlertRules(slo); len(rules) > 0 {
				srv.Alerts = obs.NewAlerts(srv.Series, srv.Metrics(), rules, *alertFast, *alertSlow, srv.Logger)
				srv.Series.OnTick = srv.Alerts.Eval
				log.Printf("sparqld: %d alert rule(s) from %s (fast=%s slow=%s) at /alerts",
					len(rules), *sloFile, *alertFast, *alertSlow)
			}
		}
		srv.ReadyMaxShedRate = *readyMaxShed
		srv.ReadyShedWindow = *readyShedWindow
		stopSeries := srv.Series.Start()
		defer stopSeries()
	} else if *sloFile != "" || *readyMaxShed > 0 {
		log.Fatalf("sparqld: -slo and -ready-max-shed require -tick > 0")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The fault injector wraps the protocol handler from the outside, so
	// injected drops and 503s look like network/infrastructure failures
	// to clients — the deterministic chaos hook behind -fault-profile.
	handler := http.Handler(srv.Handler())
	if *faultProfile != "" {
		profile, ok := faults.ByName(*faultProfile)
		if !ok {
			log.Fatalf("sparqld: unknown -fault-profile %q (have: %s)", *faultProfile, strings.Join(faults.Names(), ", "))
		}
		if profile.Enabled() {
			inj := faults.New(profile, *faultSeed)
			handler = inj.Handler(handler)
			log.Printf("sparqld: fault injection on: profile=%s seed=%d", profile.Name, *faultSeed)
		}
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	var dbg *http.Server
	if *debugAddr != "" {
		srv.Metrics().Publish("sparqld") // mirror the registry into expvar
		dbg = &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("sparqld: debug listener: %v", err)
			}
		}()
		log.Printf("sparqld debug listening on %s (/metrics, /debug/vars, /debug/pprof, /debug/traces)", *debugAddr)
	}

	routes := "query: /sparql, update: /update, load: /load, stats: /stats, metrics: /metrics, workload: /workload"
	if srv.Series != nil {
		routes += ", timeseries: /timeseries, dashboard: /debug/dash"
	}
	if srv.Alerts != nil {
		routes += ", alerts: /alerts"
	}
	log.Printf("sparqld listening on %s (%s)", *addr, routes)
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
	if exporter != nil {
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
