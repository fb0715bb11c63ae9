package obs

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// --- sampler ---------------------------------------------------------

// TestSamplerDeterminism: the verdict is a pure function of (rate,
// trace ID), so two samplers at the same rate — e.g. a client and a
// server — always agree, and repeated calls never flip.
func TestSamplerDeterminism(t *testing.T) {
	a, b := NewSampler(0.3), NewSampler(0.3)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		va, vb := a.Sample(id), b.Sample(id)
		if va != vb {
			t.Fatalf("samplers disagree on %s: %v vs %v", id, va, vb)
		}
		if again := a.Sample(id); again != va {
			t.Fatalf("verdict for %s flipped: %v then %v", id, va, again)
		}
	}
}

// TestSamplerRate checks the sampled fraction tracks the configured
// rate over random IDs, and the 0/1 endpoints are exact.
func TestSamplerRate(t *testing.T) {
	const n = 20000
	for _, rate := range []float64{0, 0.01, 0.25, 1} {
		s := NewSampler(rate)
		hits := 0
		for i := 0; i < n; i++ {
			if s.Sample(NewTraceID()) {
				hits++
			}
		}
		got := float64(hits) / n
		switch rate {
		case 0:
			if hits != 0 {
				t.Errorf("rate 0 sampled %d traces", hits)
			}
		case 1:
			if hits != n {
				t.Errorf("rate 1 sampled %d/%d traces", hits, n)
			}
		default:
			// 5σ-ish tolerance on a binomial with n=20000.
			tol := 5 * (0.5 / 141.4)
			if got < rate-tol || got > rate+tol {
				t.Errorf("rate %g sampled fraction %g", rate, got)
			}
		}
	}
}

// TestSamplerNilAndRateLimit: a nil sampler samples everything; the
// per-second cap bounds sampled volume inside one wall-clock second and
// resets with the next.
func TestSamplerNilAndRateLimit(t *testing.T) {
	var nilSampler *Sampler
	if !nilSampler.Sample(NewTraceID()) {
		t.Error("nil sampler must sample everything")
	}
	if nilSampler.Rate() != 1 {
		t.Errorf("nil sampler rate = %g, want 1", nilSampler.Rate())
	}

	s := NewSampler(1)
	s.SetMaxPerSec(3)
	now := time.Unix(100, 0)
	s.now = func() time.Time { return now }
	hits := 0
	for i := 0; i < 10; i++ {
		if s.Sample(NewTraceID()) {
			hits++
		}
	}
	if hits != 3 {
		t.Errorf("capped sampler took %d traces in one second, want 3", hits)
	}
	now = now.Add(time.Second)
	if !s.Sample(NewTraceID()) {
		t.Error("cap did not reset with the next second")
	}
}

// --- traceparent + span wire -----------------------------------------

func TestTraceparentRoundTrip(t *testing.T) {
	id := NewTraceID()
	parent := NewSpanID()
	for _, sampled := range []bool{true, false} {
		v := FormatTraceparent(id, parent, sampled)
		tc, ok := ParseTraceparent(v)
		if !ok {
			t.Fatalf("ParseTraceparent(%q) not ok", v)
		}
		if tc.TraceID != id || tc.Parent != parent || tc.Sampled != sampled {
			t.Errorf("round trip of %q = %+v", v, tc)
		}
	}
	for _, bad := range []string{
		"",
		"00-short-span-01",
		"00-" + strings.Repeat("0", 32) + "-" + string(NewSpanID()) + "-01", // all-zero trace ID
		"00-" + string(NewTraceID()) + "-" + strings.Repeat("0", 16) + "-01",
		"zz-" + string(NewTraceID()) + "-" + NewSpanID() + "-01",
		"00_" + string(NewTraceID()) + "_" + NewSpanID() + "_01",
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed value", bad)
		}
	}
}

func TestSpanWireRoundTrip(t *testing.T) {
	root := StartSpan("SELECT", "", 1)
	child := root.StartChild("BGP", "?s p ?o", 10)
	child.SetEst(7)
	child.Finish(5)
	root.Finish(5)

	wire, ok := EncodeSpanWire(root)
	if !ok {
		t.Fatal("EncodeSpanWire failed")
	}
	back, err := DecodeSpanWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Outline() != root.Outline() {
		t.Errorf("wire round trip changed outline:\n%s\nvs\n%s", back.Outline(), root.Outline())
	}
	if !back.Children[0].Estimated() {
		t.Error("estimate flag lost on the wire")
	}

	if s, err := DecodeSpanWire(""); err != nil || s != nil {
		t.Errorf("empty wire = (%v, %v), want (nil, nil)", s, err)
	}
	if _, err := DecodeSpanWire("!!!not-base64!!!"); err == nil {
		t.Error("malformed wire decoded without error")
	}

	// A tree larger than the wire cap is dropped, not truncated.
	big := StartSpan("SELECT", strings.Repeat("x", MaxWireSpanBytes), 1)
	big.Finish(0)
	if _, ok := EncodeSpanWire(big); ok {
		t.Error("oversized span tree encoded past the cap")
	}

	// A header from a server whose spans still carried a worker count
	// ("workers":1 and "workers":2) decodes to the same tree without it.
	old, err := DecodeSpanWire(workersSpanWire)
	if err != nil {
		t.Fatalf("a header with worker counts does not decode: %v", err)
	}
	if got := old.Outline(); got != workersOutline {
		t.Errorf("a header with worker counts decodes to\n%s\nwant\n%s", got, workersOutline)
	}
}

// workersSpanWire and workersTraceLine were recorded when spans still
// carried a "workers" field: a three-span tree whose BGP and JOIN ran on
// two workers, as a span header and as a line of the JSONL archive. They
// rendered as workersOutline with " workers=2" after the BGP's and the
// JOIN's counts.
const (
	workersSpanWire  = "eyJvcCI6IlNFTEVDVCIsIndhbGxOcyI6MzAwMDAwMCwiaW4iOjEsIm91dCI6MTUwMCwid29ya2VycyI6MSwiY2hpbGRyZW4iOlt7Im9wIjoiQkdQIiwiZGV0YWlsIjoiMiBwYXR0ZXJucyIsIndhbGxOcyI6MzAwMDAwMCwiaW4iOjEsIm91dCI6MTUwMCwid29ya2VycyI6MiwiY2hpbGRyZW4iOlt7Im9wIjoiSk9JTiIsImRldGFpbCI6Ij9zIHR5cGUgSXRlbSIsIndhbGxOcyI6MzAwMDAwMCwiaW4iOjEsIm91dCI6MTUwMCwiZXN0IjoxNTAwLCJlc3RTZXQiOnRydWUsIndvcmtlcnMiOjJ9XX1dfQ=="
	workersTraceLine = `{"id":"cccc0000cccc0000cccc0000cccc0000","start":"1970-01-01T00:16:40Z","query":"SELECT ?s WHERE { ?s a ex:Item }","root":{"op":"SELECT","wallNs":3000000,"in":1,"out":1500,"workers":1,"children":[{"op":"BGP","detail":"2 patterns","wallNs":3000000,"in":1,"out":1500,"workers":2,"children":[{"op":"JOIN","detail":"?s type Item","wallNs":3000000,"in":1,"out":1500,"est":1500,"estSet":true,"workers":2}]}]}}`
	workersOutline   = "SELECT  [in=1 out=1500]\n└─ BGP 2 patterns  [in=1 out=1500]\n   └─ JOIN ?s type Item  [in=1 est=1500 act=1500]\n"
)

// --- exporter --------------------------------------------------------

func exportTrace(id TraceID, query string, wall time.Duration) *Trace {
	root := StartSpan("SELECT", "", 1)
	sp := root.StartChild("BGP", "?s p ?o", 4)
	sp.SetEst(3)
	sp.Finish(2)
	root.Finish(2)
	root.Wall = wall
	return &Trace{ID: id, Start: time.Unix(1000, 0), Query: query, Root: root}
}

// TestExporterRotation drives an exporter past its size bound and
// checks the live file plus every rotated generation stays within it,
// the oldest generation is dropped, and the surviving lines decode.
func TestExporterRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "traces.jsonl")
	const maxBytes = 2048
	e, err := NewExporter(path, maxBytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("q", 256)
	for i := 0; i < 64; i++ {
		if err := e.Export(exportTrace(NewTraceID(), pad, time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Written() != 64 || e.Dropped() != 0 {
		t.Errorf("written=%d dropped=%d, want 64/0", e.Written(), e.Dropped())
	}

	total := 0
	for _, p := range []string{path, path + ".1", path + ".2"} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("expected %s to exist after rotation: %v", p, err)
		}
		// One oversized-line grace: each file holds at most one line that
		// crossed the bound.
		if st.Size() > maxBytes+1024 {
			t.Errorf("%s is %d bytes, over the bound", p, st.Size())
		}
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		traces, err := ReadTraces(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		total += len(traces)
	}
	if total >= 64 {
		t.Errorf("retained %d traces; rotation should have dropped the oldest generation", total)
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Error("more rotated generations than keep=2")
	}

	// Export after Close fails but does not panic.
	if err := e.Export(exportTrace(NewTraceID(), "late", time.Millisecond)); err == nil {
		t.Error("export after Close succeeded")
	}
	var nilExp *Exporter
	if err := nilExp.Export(exportTrace(NewTraceID(), "x", 0)); err != nil {
		t.Errorf("nil exporter errored: %v", err)
	}
}

// TestExporterAppendsAcrossReopen: reopening an existing archive
// appends (traces survive restarts) and counts the existing bytes
// toward the rotation bound.
func TestExporterAppendsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	for i := 0; i < 2; i++ {
		e, err := NewExporter(path, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Export(exportTrace(NewTraceID(), "q", time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		e.Close()
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traces, err := ReadTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Errorf("archive holds %d traces after two sessions, want 2", len(traces))
	}
}

// --- analyzer --------------------------------------------------------

func TestAnalyzeAndRender(t *testing.T) {
	fast := exportTrace("aaaa0000aaaa0000aaaa0000aaaa0000", "PREFIX ex: <http://e/>\nSELECT ?fast WHERE { ?s ?p ?o }", 2*time.Millisecond)
	slow := exportTrace("bbbb0000bbbb0000bbbb0000bbbb0000", "SELECT ?slow WHERE { ?s ?p ?o }", 50*time.Millisecond)
	a := Analyze([]*Trace{fast, slow})

	if a.Traces != 2 || a.Spans != 4 {
		t.Fatalf("traces=%d spans=%d, want 2/4", a.Traces, a.Spans)
	}
	if a.Slowest[0] != slow {
		t.Error("slowest-first ordering wrong")
	}
	var bgp *OpBreakdown
	for i := range a.Ops {
		if a.Ops[i].Op == "BGP" {
			bgp = &a.Ops[i]
		}
	}
	if bgp == nil {
		t.Fatal("no BGP breakdown")
	}
	if bgp.Count != 2 || bgp.Estimated != 2 || bgp.In != 8 || bgp.Out != 4 {
		t.Errorf("BGP breakdown = %+v", bgp)
	}
	// est=3 act=2 → q-error 1.5 on both spans.
	if bgp.MaxQErr < 1.49 || bgp.MaxQErr > 1.51 || bgp.Within2x != 2 {
		t.Errorf("BGP q-error = %+v", bgp)
	}

	out := a.Render(1)
	for _, want := range []string{
		"traces: 2", "Top 1 slowest", "bbbb0000", "SELECT ?slow",
		"Per-operator breakdown", "BGP", "Estimate accuracy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "PREFIX") {
		t.Error("query line should skip PREFIX lines")
	}
	if strings.Contains(out, "aaaa0000") {
		t.Error("top-1 listing leaked the second trace")
	}
}

func TestReadTracesMalformed(t *testing.T) {
	_, err := ReadTraces(strings.NewReader("{\"root\":{\"op\":\"SELECT\"}}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("malformed line error = %v, want line 2", err)
	}
	_, err = ReadTraces(strings.NewReader("{\"query\":\"no root\"}\n"))
	if err == nil || !strings.Contains(err.Error(), "root") {
		t.Errorf("missing-root error = %v", err)
	}
}

// TestReadTracesWithWorkerCounts reads an archive line written when
// spans still carried a "workers" field: it decodes, and renders as the
// same trace without the field.
func TestReadTracesWithWorkerCounts(t *testing.T) {
	traces, err := ReadTraces(strings.NewReader(workersTraceLine + "\n"))
	if err != nil || len(traces) != 1 {
		t.Fatalf("ReadTraces = %d traces, %v; want the one line", len(traces), err)
	}
	tr := traces[0]
	if tr.ID != "cccc0000cccc0000cccc0000cccc0000" || tr.Query != "SELECT ?s WHERE { ?s a ex:Item }" || !tr.Start.Equal(time.Unix(1000, 0)) {
		t.Errorf("trace header = %q %q %v", tr.ID, tr.Query, tr.Start)
	}
	if got := tr.Root.Outline(); got != workersOutline {
		t.Errorf("archived tree renders as\n%s\nwant\n%s", got, workersOutline)
	}
	if !strings.Contains(tr.Root.Render(), "act=1500 time=3ms]") {
		t.Errorf("timed render lost the span times:\n%s", tr.Root.Render())
	}
}

// --- prometheus exposition -------------------------------------------

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("queries_total").Add(7)
	reg.Gauge("store.quads", func() int64 { return 42 })
	reg.Histogram("query_latency").Observe(10 * time.Millisecond)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE queries_total counter\nqueries_total 7\n",
		"# TYPE store_quads gauge\nstore_quads 42\n",
		"# TYPE query_latency_seconds summary\n",
		`query_latency_seconds{quantile="0.99"}`,
		"query_latency_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}

	// Content negotiation: text/plain gets the exposition format, the
	// default stays JSON.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	reg.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Accept: text/plain got Content-Type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE queries_total counter") {
		t.Error("negotiated response is not the exposition format")
	}

	rec = httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q, want application/json", ct)
	}
	var nilReq *http.Request
	_ = nilReq // reg.ServeHTTP with a nil request stays on the JSON path
	rec = httptest.NewRecorder()
	reg.ServeHTTP(rec, nil)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("nil-request Content-Type = %q, want application/json", ct)
	}
}
