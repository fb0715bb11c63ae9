package endpoint

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// tsClock is a deterministic clock for the sampler in endpoint tests.
type tsClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTSClock() *tsClock { return &tsClock{now: time.Unix(1_700_000_000, 0)} }

func (c *tsClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *tsClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestSeriesEndpointsMounted covers the three HTTP surfaces the
// time-series layer adds to the protocol handler: /timeseries JSON,
// /alerts JSON, and the /debug/dash HTML page.
func TestSeriesEndpointsMounted(t *testing.T) {
	st := newStoreFromTTL(t, testTTL)
	srv := NewServer(st)
	srv.Series = obs.NewTimeSeries(srv.Metrics(), obs.NewLadder(time.Second, 10*time.Minute))
	clock := newTSClock()
	srv.Series.SetNow(clock.Now)
	rules := []obs.AlertRule{{Name: "shed_rate", Kind: obs.RuleRatio,
		Num: "queries_shed_total", Den: "queries_total", Max: 0.25}}
	srv.Alerts = obs.NewAlerts(srv.Series, srv.Metrics(), rules, nil)
	srv.Series.OnTick = srv.Alerts.Eval

	h := srv.Handler()
	// Serve a few queries between ticks so the series carry real data.
	q := url.QueryEscape(obsQuery)
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?query="+q, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("query status = %d: %s", rec.Code, rec.Body.String())
		}
		srv.Series.Sample()
		clock.Advance(time.Second)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/timeseries?window=1m", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/timeseries status = %d", rec.Code)
	}
	var snap obs.TimeSeriesSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/timeseries not JSON: %v", err)
	}
	var sawQueries bool
	for _, sd := range snap.Series {
		if sd.Name == "queries_total" {
			sawQueries = true
			if len(sd.Points) != 5 || sd.Points[len(sd.Points)-1].V != 5 {
				t.Errorf("queries_total series = %+v", sd.Points)
			}
		}
	}
	if !sawQueries {
		t.Error("/timeseries has no queries_total series")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/alerts status = %d", rec.Code)
	}
	var as obs.AlertsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &as); err != nil {
		t.Fatalf("/alerts not JSON: %v", err)
	}
	if len(as.Rules) != 1 || as.Rules[0].Name != "shed_rate" {
		t.Errorf("/alerts rules = %+v", as.Rules)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/dash", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/dash status = %d", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "<svg") {
		t.Error("/debug/dash has no inline SVG")
	}
}

// TestSeriesEndpointsAbsentWithoutSampler: a server without Series
// keeps its surface unchanged — no /timeseries, /alerts, /debug/dash.
func TestSeriesEndpointsAbsentWithoutSampler(t *testing.T) {
	srv := NewServer(newStoreFromTTL(t, testTTL))
	h := srv.Handler()
	for _, path := range []string{"/timeseries", "/alerts", "/debug/dash"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404 when Series is nil", path, rec.Code)
		}
	}
}

// TestReadyzShedDrain: with a sampler and ReadyMaxShedRate set, a
// shed rate sustained over readyShedWindow flips /readyz to 503
// (draining the node at the load balancer) while /healthz stays 200,
// and recovery flips it back. Ticks are 10s apart, so each 12-tick
// phase outlasts the 1m window.
func TestReadyzShedDrain(t *testing.T) {
	srv := NewServer(newStoreFromTTL(t, testTTL))
	srv.Series = obs.NewTimeSeries(srv.Metrics(), []obs.Resolution{{Step: 10 * time.Second, Size: 120}})
	clock := newTSClock()
	srv.Series.SetNow(clock.Now)
	srv.ReadyMaxShedRate = 0.25
	h := srv.Handler()

	total := srv.Metrics().Counter("queries_total")
	shed := srv.Metrics().Counter("queries_shed_total")
	tick := func(totalN, shedN int64) {
		total.Add(totalN)
		shed.Add(shedN)
		srv.Series.Sample()
		clock.Advance(10 * time.Second)
	}
	readyz := func() (int, float64) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		var body struct {
			Ready    bool    `json:"ready"`
			ShedRate float64 `json:"shedRate"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("/readyz not JSON: %v", err)
		}
		return rec.Code, body.ShedRate
	}

	// Healthy traffic: ready.
	for i := 0; i < 12; i++ {
		tick(10, 0)
	}
	if code, rate := readyz(); code != http.StatusOK || rate != 0 {
		t.Fatalf("healthy readyz = %d shedRate=%v, want 200, 0", code, rate)
	}

	// 80% shed, sustained past the window: drain.
	for i := 0; i < 12; i++ {
		tick(10, 8)
	}
	code, rate := readyz()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded readyz = %d, want 503", code)
	}
	if rate <= 0.25 {
		t.Errorf("reported shedRate = %v, want > 0.25", rate)
	}
	// Liveness is unaffected: the process is healthy, just overloaded.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz = %d during drain, want 200", rec.Code)
	}

	// Shedding stops. Half a window later the shed ticks still hold the
	// rate over the threshold; once the window no longer contains them
	// the node readmits itself.
	for i := 0; i < 3; i++ {
		tick(10, 0)
	}
	if code, rate := readyz(); code != http.StatusServiceUnavailable || rate <= 0.25 {
		t.Fatalf("readyz 30s after shedding = %d shedRate=%v, want 503 over 0.25", code, rate)
	}
	for i := 0; i < 12; i++ {
		tick(10, 0)
	}
	if code, rate := readyz(); code != http.StatusOK || rate != 0 {
		t.Errorf("recovered readyz = %d shedRate=%v, want 200, 0", code, rate)
	}
}

// TestSlowLogShapeCrossLink: slow-log entries carry the workload shape
// hash of their query, and /debug/slow renders it, so a slow query can
// be cross-referenced against /workload aggregates.
func TestSlowLogShapeCrossLink(t *testing.T) {
	srv := NewServer(newStoreFromTTL(t, testTTL))
	srv.SlowQuery = time.Nanosecond // everything is slow
	h := srv.Handler()

	rawQuery := `PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:p ?o }`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(rawQuery), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("query status = %d: %s", rec.Code, rec.Body.String())
	}

	recent := srv.Slow.Recent()
	if len(recent) == 0 {
		t.Fatal("no slow-log entries recorded")
	}
	want := obs.ShapeHash(rawQuery)
	if recent[0].Shape != want {
		t.Errorf("slow entry shape = %q, want %q", recent[0].Shape, want)
	}

	rec = httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slow", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/slow status = %d", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "shape="+want) {
		t.Errorf("/debug/slow missing shape=%s:\n%s", want, body)
	}
}
