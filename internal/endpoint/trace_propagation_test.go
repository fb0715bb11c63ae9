package endpoint

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTracedTestServer builds a protocol server over testTTL with the
// given trace sinks and returns it plus its httptest listener.
func newTracedTestServer(t *testing.T, cfg func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	st := newStoreFromTTL(t, testTTL)
	srv := NewServer(st)
	if cfg != nil {
		cfg(srv)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestStitchedTraceOverHTTP: a tracing client propagates its trace ID
// over real HTTP and stitches the server's span tree under its client
// HTTP span — one trace, one ID, visible on both sides.
func TestStitchedTraceOverHTTP(t *testing.T) {
	srv, ts := newTracedTestServer(t, func(s *Server) { s.Tracer = obs.NewTracer(8) })

	c := NewRemote(ts.URL)
	c.Tracer = obs.NewTracer(8)
	res, err := c.Select(obsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}

	client := c.Tracer.Recent()
	if len(client) != 1 {
		t.Fatalf("client collected %d traces, want 1", len(client))
	}
	tr := client[0]
	if tr.ID == "" {
		t.Fatal("client trace has no ID")
	}
	if tr.Root.Op != "HTTP" || !strings.Contains(tr.Root.Detail, "/sparql") {
		t.Errorf("client root span = %s %q, want HTTP .../sparql", tr.Root.Op, tr.Root.Detail)
	}
	if tr.Root.Out != 2 {
		t.Errorf("client root out = %d, want 2 result rows", tr.Root.Out)
	}
	if len(tr.Root.Children) != 1 || tr.Root.Children[0].Op != "SELECT" {
		t.Fatalf("client span has no stitched server tree:\n%s", tr.Render())
	}
	srvRoot := tr.Root.Children[0]
	if len(srvRoot.Children) == 0 {
		t.Errorf("stitched server tree has no operator spans:\n%s", tr.Render())
	}
	if tr.Root.Wall < srvRoot.Wall {
		t.Errorf("client span (%s) shorter than nested server span (%s)", tr.Root.Wall, srvRoot.Wall)
	}

	// The server collected the same trace under the same propagated ID.
	server := srv.Tracer.Recent()
	if len(server) != 1 {
		t.Fatalf("server collected %d traces, want 1", len(server))
	}
	if server[0].ID != tr.ID {
		t.Errorf("trace IDs differ across processes: client %s, server %s", tr.ID, server[0].ID)
	}
	if server[0].Query == "" {
		t.Error("server trace lost the query text")
	}
}

// TestUnsampledPropagation: the caller's negative verdict is honored —
// an unsampled traceparent keeps the server on the untraced path even
// though the server has a tracer of its own, and no span tree comes
// back.
func TestUnsampledPropagation(t *testing.T) {
	srv, ts := newTracedTestServer(t, func(s *Server) { s.Tracer = obs.NewTracer(8) })

	c := NewRemote(ts.URL)
	c.Tracer = obs.NewTracer(8)
	c.Sampler = obs.NewSampler(0)
	res, err := c.Select(obsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
	if n := len(c.Tracer.Recent()); n != 0 {
		t.Errorf("client collected %d traces at rate 0", n)
	}
	if n := len(srv.Tracer.Recent()); n != 0 {
		t.Errorf("server traced %d unsampled queries", n)
	}

	// The raw response carries no server span tree either.
	form := url.Values{"query": {obsQuery}}
	req, _ := http.NewRequest("POST", ts.URL+"/sparql", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(obs.NewTraceID(), obs.NewSpanID(), false))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h := resp.Header.Get(obs.ServerTraceHeader); h != "" {
		t.Errorf("unsampled request returned a server trace header (%d bytes)", len(h))
	}
}

// TestServerOwnSampling: without a traceparent the server applies its
// own sampler — rate 0 records nothing, rate 1 and nil record
// everything, each trace under a fresh ID of its own — and ?explain=1
// forces a trace whatever the sampler says. The server is the only
// place that samples; the engine keeps no sampler.
func TestServerOwnSampling(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64 // < 0: no sampler
		want int
	}{
		{"nil-sampler", -1, 5},
		{"rate-0", 0, 0},
		{"rate-1", 1, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTracedTestServer(t, func(s *Server) {
				s.Tracer = obs.NewTracer(16)
				if tc.rate >= 0 {
					s.Sampler = obs.NewSampler(tc.rate)
				}
			})
			c := NewRemote(ts.URL) // no client tracing, no traceparent
			for i := 0; i < 5; i++ {
				if _, err := c.Select(obsQuery); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(srv.Tracer.Recent()); got != tc.want {
				t.Errorf("server collected %d traces, want %d", got, tc.want)
			}
			// A forced trace bypasses the sampler.
			if _, err := c.Explain(obsQuery); err != nil {
				t.Fatal(err)
			}
			recent := srv.Tracer.Recent()
			if len(recent) != tc.want+1 {
				t.Fatalf("after ?explain=1 the server holds %d traces, want %d", len(recent), tc.want+1)
			}
			seen := map[obs.TraceID]bool{}
			for _, tr := range recent {
				if tr.ID == "" || seen[tr.ID] {
					t.Errorf("trace ID %q missing or repeated", tr.ID)
				}
				seen[tr.ID] = true
			}
			// Sampled-or-not, every /sparql request was assigned a trace
			// ID for log joining — visible on the next slow entry, tested
			// in TestSlowLogCarriesTraceID.
		})
	}
}

// TestServerExportsTraces: a server-side exporter persists sampled
// traces as JSONL that ReadTraces parses back, IDs intact.
func TestServerExportsTraces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	exp, err := obs.NewExporter(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTracedTestServer(t, func(s *Server) { s.Exporter = exp })

	c := NewRemote(ts.URL)
	c.Tracer = obs.NewTracer(4)
	if _, err := c.Select(obsQuery); err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traces, err := obs.ReadTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("exported %d traces, want 1", len(traces))
	}
	if traces[0].ID != c.Tracer.Recent()[0].ID {
		t.Error("exported trace ID differs from the client's")
	}
	if traces[0].Root.Op != "SELECT" {
		t.Errorf("exported root op = %s", traces[0].Root.Op)
	}
}

// TestSlowLogCarriesTraceID: slow-log entries record the request's
// trace ID so they join against exported traces.
func TestSlowLogCarriesTraceID(t *testing.T) {
	srv, ts := newTracedTestServer(t, func(s *Server) {
		s.Tracer = obs.NewTracer(4)
		s.SlowQuery = time.Nanosecond // everything is slow
	})
	c := NewRemote(ts.URL)
	c.Tracer = obs.NewTracer(4)
	if _, err := c.Select(obsQuery); err != nil {
		t.Fatal(err)
	}
	entries := srv.Slow.Recent()
	if len(entries) != 1 {
		t.Fatalf("slow log has %d entries, want 1", len(entries))
	}
	if entries[0].TraceID == "" {
		t.Fatal("slow entry has no trace ID")
	}
	if entries[0].TraceID != c.Tracer.Recent()[0].ID {
		t.Errorf("slow entry trace %s != client trace %s", entries[0].TraceID, c.Tracer.Recent()[0].ID)
	}
}

// TestHealthEndpoints drives /healthz and /readyz through the full
// handler chain.
func TestHealthEndpoints(t *testing.T) {
	_, ts := newTracedTestServer(t, nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}

	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", resp2.StatusCode)
	}
	var ready struct {
		Ready bool `json:"ready"`
		Quads int  `json:"quads"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || ready.Quads != 3 {
		t.Errorf("readyz = %+v, want ready with 3 quads", ready)
	}
}

// TestMetricsContentNegotiation: the server's /metrics route serves
// Prometheus text to text/plain and JSON otherwise.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTracedTestServer(t, nil)

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Accept: text/plain Content-Type = %q", ct)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "# TYPE queries_total counter") {
		t.Errorf("prometheus body missing counter:\n%s", buf[:n])
	}

	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q", ct)
	}
}

// TestConcurrentSampledQueries hammers a tracing server+client pair
// from many goroutines at 50% sampling with a shared exporter — the
// -race run of this test is the concurrency audit of the sampler,
// tracer ring, and exporter file lock together.
func TestConcurrentSampledQueries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	exp, err := obs.NewExporter(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTracedTestServer(t, func(s *Server) {
		s.Tracer = obs.NewTracer(32)
		s.Exporter = exp
	})

	c := NewRemote(ts.URL)
	c.Tracer = obs.NewTracer(32)
	c.Sampler = obs.NewSampler(0.5)

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := c.Select(obsQuery)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != 2 {
					t.Errorf("rows = %d", res.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}

	// Client and server sampled identical subsets (the verdict rides the
	// traceparent header), and the exported archive parses cleanly.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traces, err := obs.ReadTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Written() != int64(len(traces)) {
		t.Errorf("exporter wrote %d, archive holds %d", exp.Written(), len(traces))
	}
	total := workers * perWorker
	if len(traces) == 0 || len(traces) == total {
		t.Errorf("exported %d/%d traces; 50%% sampling should land strictly between", len(traces), total)
	}
	for _, tr := range traces {
		if tr.ID == "" || tr.Root == nil {
			t.Fatalf("malformed exported trace: %+v", tr)
		}
	}
	if got := len(srv.Tracer.Recent()); got == 0 {
		t.Error("server tracer empty after sampled run")
	}
}
