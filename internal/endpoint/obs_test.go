package endpoint

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

const obsQuery = `PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:p ?o } ORDER BY ?s`

// newStoreFromTTL builds a store for direct-handler tests that need the
// Server value itself rather than an httptest.Server.
func newStoreFromTTL(t *testing.T, ttl string) *store.Store {
	t.Helper()
	st := store.New()
	triples, _, err := turtle.Parse(ttl)
	if err != nil {
		t.Fatal(err)
	}
	st.InsertTriples(rdf.Term{}, triples)
	return st
}

// TestStatsHandler exercises /stats directly: status code, content
// type, and the JSON shape with the store's quad and graph counts.
func TestStatsHandler(t *testing.T) {
	st := newStoreFromTTL(t, testTTL)
	srv := NewServer(st)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))

	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var out struct {
		DefaultGraph int      `json:"defaultGraph"`
		Total        int      `json:"total"`
		NamedGraphs  []string `json:"namedGraphs"`
		Terms        int      `json:"terms"`
		IndexBytes   int      `json:"indexBytes"`
		PerTriple    float64  `json:"bytesPerTriple"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, rec.Body.String())
	}
	if out.Total != 3 || out.DefaultGraph != 3 {
		t.Errorf("stats counts = %+v, want total=3 defaultGraph=3", out)
	}
	if out.Terms == 0 {
		t.Errorf("stats terms = 0, want > 0")
	}
	// Three orderings of twelve-byte id-triples (plus whatever capacity
	// the allocator rounded a three-element slice up to), nothing else.
	if out.IndexBytes < 3*3*12 || out.IndexBytes > 2*3*3*12 || out.PerTriple != float64(out.IndexBytes)/3 {
		t.Errorf("indexBytes = %d, bytesPerTriple = %v, want 108–216 and indexBytes/3", out.IndexBytes, out.PerTriple)
	}
	if len(out.NamedGraphs) != 0 {
		t.Errorf("namedGraphs = %v, want none", out.NamedGraphs)
	}
}

// metricsSnapshot fetches and decodes /metrics from a running server.
func metricsSnapshot(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	return m
}

func TestMetricsMiddleware(t *testing.T) {
	srv, _ := newTestServer(t, testTTL)

	// Two queries, one update, one parse error.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(obsQuery))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.PostForm(srv.URL+"/update", url.Values{"update": {
		`PREFIX ex: <http://example.org/> INSERT DATA { ex:d ex:p "4" }`}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/sparql?query=" + url.QueryEscape("SELECT WHERE garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	m := metricsSnapshot(t, srv.URL)
	wantCounts := map[string]float64{
		"queries_total": 3, // two good, one bad
		"updates_total": 1,
		"errors_total":  1,
		"store_quads":   4, // after the INSERT DATA
	}
	for name, want := range wantCounts {
		if got, _ := m[name].(float64); got != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	hist, _ := m["query_latency"].(map[string]any)
	if hist == nil {
		t.Fatalf("query_latency missing from snapshot: %v", m)
	}
	if got, _ := hist["count"].(float64); got != 3 {
		t.Errorf("query_latency count = %v, want 3", hist["count"])
	}
}

func TestSlowQueryLog(t *testing.T) {
	st := newStoreFromTTL(t, testTTL)
	srv := NewServer(st)
	var buf bytes.Buffer
	srv.Logger = slog.New(slog.NewTextHandler(&buf, nil))
	srv.SlowQuery = time.Nanosecond // everything is slow

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/sparql?query=" + url.QueryEscape(obsQuery))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	logged := buf.String()
	if !strings.Contains(logged, "slow query") {
		t.Errorf("no slow-query warning in log:\n%s", logged)
	}
	if !strings.Contains(logged, "ORDER BY ?s") {
		t.Errorf("slow-query log missing query text:\n%s", logged)
	}
	if !strings.Contains(logged, "msg=request") {
		t.Errorf("no access-log line in log:\n%s", logged)
	}
	m := metricsSnapshot(t, hs.URL)
	if got, _ := m["slow_queries_total"].(float64); got != 1 {
		t.Errorf("slow_queries_total = %v, want 1", m["slow_queries_total"])
	}
}

func TestExplainMode(t *testing.T) {
	srv, _ := newTestServer(t, testTTL)
	resp, err := http.Get(srv.URL + "/sparql?explain=1&query=" + url.QueryEscape(obsQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"SELECT", "BGP", "result row(s)", "time="} {
		if !strings.Contains(string(body), want) {
			t.Errorf("explain output missing %q:\n%s", want, body)
		}
	}
}

func TestServerTracerAndDebugRoutes(t *testing.T) {
	st := newStoreFromTTL(t, testTTL)
	srv := NewServer(st)
	srv.Tracer = obs.NewTracer(4)

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/sparql?query=" + url.QueryEscape(obsQuery))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	recent := srv.Tracer.Recent()
	if len(recent) != 1 {
		t.Fatalf("tracer holds %d traces, want 1", len(recent))
	}
	if !strings.Contains(recent[0].Query, "ORDER BY ?s") {
		t.Errorf("trace missing query text: %q", recent[0].Query)
	}

	// Tracing fed the per-operator totals.
	m := metricsSnapshot(t, hs.URL)
	if got, _ := m["op.BGP.count"].(float64); got != 1 {
		t.Errorf("op.BGP.count = %v, want 1", m["op.BGP.count"])
	}

	// The debug routes live on the standalone mux only, never on the
	// protocol handler.
	for _, path := range []string{"/debug/vars", "/debug/pprof/", "/debug/traces", "/debug/slow"} {
		rec := httptest.NewRecorder()
		srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("debug handler %s status = %d, want 200", path, rec.Code)
		}
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("protocol handler %s status = %d, want 404", path, resp.StatusCode)
		}
	}
	rec := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "SELECT") {
		t.Errorf("standalone /debug/traces: status=%d body=%q", rec.Code, rec.Body.String())
	}
}
