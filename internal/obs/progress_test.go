package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProgressPhasesAndReport(t *testing.T) {
	var events []ProgressEvent
	p := NewProgress("enrich")
	p.MinInterval = 1 // effectively unthrottled
	p.OnEvent = func(ev ProgressEvent) { events = append(events, ev) }

	ph := p.Phase("discovery")
	ph.Grow(10)
	ph.Add(4)
	time.Sleep(2 * time.Millisecond)
	ph.Add(6)
	ph.Count("candidatesScored", 3)
	ph.Done()
	p.Count("sparqlQueries", 7)

	// Re-entering a phase accumulates rather than resetting.
	ph2 := p.Phase("discovery")
	if ph2 != ph {
		t.Fatal("re-entered phase should be the same accumulator")
	}
	ph2.Add(1)
	ph2.Done()

	r := p.Report()
	if len(r.Phases) != 1 {
		t.Fatalf("got %d phases, want 1", len(r.Phases))
	}
	d := r.Phases[0]
	if d.Name != "discovery" || d.Done != 11 || d.Total != 10 {
		t.Errorf("phase = %+v, want discovery done=11 total=10", d)
	}
	if d.Counters["candidatesScored"] != 3 {
		t.Errorf("phase counters = %v", d.Counters)
	}
	if r.Counters["sparqlQueries"] != 7 {
		t.Errorf("run counters = %v", r.Counters)
	}
	if d.WallNs <= 0 || r.WallNs <= 0 {
		t.Errorf("wall times not recorded: phase=%v run=%v", d.WallNs, r.WallNs)
	}

	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	last := events[len(events)-1]
	if !last.Final || last.Phase != "discovery" {
		t.Errorf("last event = %+v, want final discovery", last)
	}
	sawRate := false
	for _, ev := range events {
		if ev.Rate > 0 {
			sawRate = true
		}
	}
	if !sawRate {
		t.Error("no event carried a rate")
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	ph := p.Phase("x")
	if ph != nil {
		t.Fatal("phase of nil progress should be nil")
	}
	ph.Grow(1)
	ph.Add(1)
	ph.Count("c", 1)
	ph.Done()
	p.Count("c", 1)
	if r := p.Report(); r != nil {
		t.Fatal("report of nil progress should be nil")
	}
	var r *RunReport
	if r.Canonical() != nil || r.JSON() != nil || r.Summary() != "" {
		t.Error("nil report methods should be no-ops")
	}
	if err := r.WriteFile("/nonexistent/should/not/be/written"); err != nil {
		t.Errorf("nil report WriteFile = %v", err)
	}
}

func TestProgressConcurrent(t *testing.T) {
	p := NewProgress("load")
	ph := p.Phase("insert")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				ph.Add(1)
				p.Count("triples", 2)
			}
		}()
	}
	wg.Wait()
	ph.Done()
	r := p.Report()
	if r.Phases[0].Done != 800 || r.Counters["triples"] != 1600 {
		t.Errorf("report = %+v", r)
	}
}

func TestRunReportCanonicalAndJSON(t *testing.T) {
	p := NewProgress("enrich")
	ph := p.Phase("generation")
	ph.Add(5)
	ph.Count("schemaTriples", 12)
	ph.Done()
	r := p.Report().Canonical()
	if r.WallNs != 0 || !r.StartedAt.IsZero() || r.Phases[0].WallNs != 0 {
		t.Errorf("canonical report kept timings: %+v", r)
	}
	if r.Phases[0].Done != 5 || r.Phases[0].Counters["schemaTriples"] != 12 {
		t.Errorf("canonical report lost data: %+v", r)
	}
	var back RunReport
	if err := json.Unmarshal(r.JSON(), &back); err != nil {
		t.Fatalf("report JSON round-trip: %v", err)
	}
	if back.Run != "enrich" || len(back.Phases) != 1 {
		t.Errorf("round-tripped report = %+v", back)
	}
}

func TestTermSink(t *testing.T) {
	var b strings.Builder
	sink := TermSink(&b)
	sink(ProgressEvent{Run: "enrich", Phase: "discovery", Done: 5, Total: 10, Rate: 50, ETA: time.Second})
	sink(ProgressEvent{Run: "enrich", Phase: "discovery", Done: 10, Total: 10, Final: true})
	out := b.String()
	for _, want := range []string{"enrich/discovery", "5/10", "50%", "50/s", "eta 1s", "done"} {
		if !strings.Contains(out, want) {
			t.Errorf("term output missing %q:\n%s", want, out)
		}
	}
}

func TestSpanEstRender(t *testing.T) {
	root := StartSpan("SELECT", "", 1)
	j := root.StartChild("JOIN", "?s <p> ?o", 1)
	j.SetEst(8)
	j.Finish(10)
	root.Finish(10)
	out := root.Outline()
	if !strings.Contains(out, "JOIN ?s <p> ?o  [in=1 est=8 act=10]") {
		t.Errorf("est span render:\n%s", out)
	}
	// A span without an estimate keeps the in/out form.
	if !strings.Contains(out, "SELECT  [in=1 out=10]") {
		t.Errorf("plain span render changed:\n%s", out)
	}
	var nilSpan *Span
	nilSpan.SetEst(3) // must not panic
	if nilSpan.Estimated() {
		t.Error("nil span cannot be estimated")
	}
}

func TestHistogramP95Interpolated(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 90; i++ {
		h.Observe(500 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	// p95 lands in the slow bucket (65.536, 131.072]ms; interpolation
	// keeps it inside the bucket instead of pinning the upper bound.
	if s.P95Ms < 64 || s.P95Ms > 131.072 {
		t.Errorf("p95Ms = %v, want within slow bucket", s.P95Ms)
	}
	if s.P50Ms <= 0 || s.P50Ms > 0.512 {
		t.Errorf("p50Ms = %v, want within fast bucket", s.P50Ms)
	}
	if s.P95Ms > s.P99Ms {
		t.Errorf("p95 (%v) > p99 (%v)", s.P95Ms, s.P99Ms)
	}
	if !strings.Contains(s.Quantiles(), "p95=") {
		t.Errorf("Quantiles() = %q", s.Quantiles())
	}
}

func TestTracerQueryBytesCap(t *testing.T) {
	tr := NewTracer(4)
	tr.MaxQueryBytes = 32
	long := strings.Repeat("x", 1000)
	sp := StartSpan("SELECT", "", 0)
	sp.Finish(0)
	tr.Collect(&Trace{Query: long, Root: sp})
	got := tr.Recent()[0].Query
	if len(got) > 32+len("… [truncated]") {
		t.Errorf("query retained %d bytes, cap is 32", len(got))
	}
	if !strings.HasSuffix(got, "[truncated]") {
		t.Errorf("truncated query missing marker: %q", got)
	}
}

// TestSlowLogOverflow overflows both caps — entry count and per-entry
// query bytes — and checks the log stays bounded.
func TestSlowLogOverflow(t *testing.T) {
	l := NewSlowLog(4)
	l.MaxQueryBytes = 64
	long := strings.Repeat("q", 10_000)
	for i := 0; i < 100; i++ {
		l.Record(SlowEntry{When: time.Now(), Duration: time.Second, Query: long, Status: 200})
	}
	recent := l.Recent()
	if len(recent) != 4 {
		t.Fatalf("retained %d entries, want 4", len(recent))
	}
	total := 0
	for _, e := range recent {
		if len(e.Query) > 64+len("… [truncated]") {
			t.Errorf("entry query holds %d bytes, cap is 64", len(e.Query))
		}
		total += len(e.Query)
	}
	if total > 4*(64+len("… [truncated]")) {
		t.Errorf("slow log retains %d query bytes total", total)
	}
	var nilLog *SlowLog
	nilLog.Record(SlowEntry{}) // must not panic
	if nilLog.Recent() != nil {
		t.Error("nil slow log should have no entries")
	}
}

func TestSlowHandler(t *testing.T) {
	l := NewSlowLog(4)
	l.Record(SlowEntry{When: time.Now(), Duration: 250 * time.Millisecond,
		Query: "SELECT * WHERE { ?s ?p ?o }", Status: 200})
	rec := httptest.NewRecorder()
	SlowHandler(l)(rec, httptest.NewRequest("GET", "/debug/slow", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "SELECT * WHERE") {
		t.Errorf("/debug/slow: status=%d body=%q", rec.Code, rec.Body.String())
	}
}
