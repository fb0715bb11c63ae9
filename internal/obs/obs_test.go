package obs

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeRender(t *testing.T) {
	root := StartSpan("SELECT", "", 1)
	bgp := root.StartChild("BGP", "2 patterns", 1)
	j1 := bgp.StartChild("JOIN", "?s <p> ?o", 1)
	j1.Finish(10)
	j2 := bgp.StartChild("JOIN", "?o <q> ?v", 10)
	j2.Finish(5)
	bgp.Finish(5)
	f := root.StartChild("FILTER", "", 5)
	f.Finish(3)
	root.Finish(3)

	outline := root.Outline()
	want := strings.Join([]string{
		"SELECT  [in=1 out=3]",
		"├─ BGP 2 patterns  [in=1 out=5]",
		"│  ├─ JOIN ?s <p> ?o  [in=1 out=10]",
		"│  └─ JOIN ?o <q> ?v  [in=10 out=5]",
		"└─ FILTER  [in=5 out=3]",
		"",
	}, "\n")
	if outline != want {
		t.Errorf("outline mismatch:\ngot:\n%s\nwant:\n%s", outline, want)
	}
	if !strings.Contains(root.Render(), "time=") {
		t.Error("Render should include wall times")
	}
}

func TestNilSpanSafe(t *testing.T) {
	var s *Span
	c := s.StartChild("X", "", 0)
	if c != nil {
		t.Fatal("child of nil span should be nil")
	}
	c.Finish(0) // must not panic
	c.Visit(func(*Span) { t.Fatal("visit of nil span must not call fn") })
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := StartSpan("UNION", "", 0)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root.StartChild("BRANCH", "", 0).Finish(1)
		}()
	}
	wg.Wait()
	if len(root.Children) != 32 {
		t.Fatalf("got %d children, want 32", len(root.Children))
	}
}

func TestTracerRing(t *testing.T) {
	var finished int
	tr := NewTracer(2)
	tr.OnFinish = func(*Trace) { finished++ }
	for i := 0; i < 5; i++ {
		sp := StartSpan("SELECT", "", 0)
		sp.Finish(i)
		tr.Collect(&Trace{Root: sp})
	}
	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("got %d recent traces, want 2", len(recent))
	}
	if recent[0].Root.Out != 4 || recent[1].Root.Out != 3 {
		t.Errorf("recent not newest-first: out=%d,%d", recent[0].Root.Out, recent[1].Root.Out)
	}
	if finished != 5 {
		t.Errorf("OnFinish called %d times, want 5", finished)
	}
	var nilTracer *Tracer
	nilTracer.Collect(&Trace{}) // must not panic
	if nilTracer.Recent() != nil {
		t.Error("nil tracer should have no traces")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := &Histogram{}
	// 90 fast observations (~0.5ms), 10 slow ones (~100ms).
	for i := 0; i < 90; i++ {
		h.Observe(500 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := 90*0.5 + 10*100
	if s.SumMs < wantSum-1 || s.SumMs > wantSum+1 {
		t.Errorf("sumMs = %v, want ~%v", s.SumMs, wantSum)
	}
	// p50 lands in the fast bucket (< ~1ms), p99 in the slow one.
	if s.P50Ms > 2 {
		t.Errorf("p50Ms = %v, want <= ~1ms upper bound", s.P50Ms)
	}
	if s.P99Ms < 64 {
		t.Errorf("p99Ms = %v, want >= slow bucket bound", s.P99Ms)
	}
	// The buckets are the octave view: 0.5ms below 2^9µs, 100ms below
	// 2^17µs.
	want := []HistogramBucket{{LeMs: 0.512, Count: 90}, {LeMs: 131.072, Count: 10}}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Errorf("buckets = %+v, want %+v", s.Buckets, want)
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := &Histogram{}
	h.Observe(-time.Second) // clamped to 0
	h.Observe(0)
	h.Observe(24 * time.Hour) // clamped to top bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("queries_total").Add(3)
	reg.Counter("queries_total").Inc() // same counter
	reg.Gauge("store_quads", func() int64 { return 42 })
	reg.Histogram("query_latency").Observe(time.Millisecond)

	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if string(got["queries_total"]) != "4" {
		t.Errorf("queries_total = %s, want 4", got["queries_total"])
	}
	if string(got["store_quads"]) != "42" {
		t.Errorf("store_quads = %s, want 42", got["store_quads"])
	}
	var hist HistogramSnapshot
	if err := json.Unmarshal(got["query_latency"], &hist); err != nil || hist.Count != 1 {
		t.Errorf("query_latency snapshot = %s (err %v)", got["query_latency"], err)
	}
}

func TestObserveTrace(t *testing.T) {
	reg := NewRegistry()
	root := StartSpan("SELECT", "", 1)
	root.StartChild("BGP", "", 1).Finish(5)
	root.StartChild("BGP", "", 5).Finish(2)
	root.Finish(2)
	reg.ObserveTrace(&Trace{Root: root})
	reg.ObserveTrace(nil) // no-op

	if n := reg.Counter("op.SELECT.count").Value(); n != 1 {
		t.Errorf("op.SELECT.count = %d, want 1", n)
	}
	if n := reg.Counter("op.BGP.count").Value(); n != 2 {
		t.Errorf("op.BGP.count = %d, want 2", n)
	}
}

func TestDebugMux(t *testing.T) {
	reg := NewRegistry()
	tracer := NewTracer(4)
	mux := DebugMux(reg, tracer, NewSlowLog(4), NewWorkload(0))
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/", "/debug/traces", "/debug/slow", "/workload"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
	sp := StartSpan("SELECT", "", 0)
	sp.Finish(1)
	tracer.Collect(&Trace{Query: "SELECT * WHERE { ?s ?p ?o }", Root: sp})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if !strings.Contains(rec.Body.String(), "SELECT * WHERE") {
		t.Errorf("/debug/traces missing query text:\n%s", rec.Body.String())
	}
}
