package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// dashFixture builds a ticked TimeSeries with the sparqld metric names
// the default dashboard config reads.
func dashFixture(t *testing.T, ladder []Resolution) (*TimeSeries, *Registry, *fakeClock) {
	t.Helper()
	reg := NewRegistry()
	q := reg.Counter("queries_total")
	lat := reg.Histogram("query_latency")
	reg.Counter("queries_failed_total")
	reg.Counter("queries_shed_total")
	reg.Gauge("queries_inflight", func() int64 { return 2 })
	ts := NewTimeSeries(reg, ladder)
	clock := newFakeClock()
	ts.SetNow(clock.Now)
	for i := 0; i < 30; i++ {
		q.Add(5)
		lat.Observe(8 * time.Millisecond)
		ts.Sample()
		clock.Advance(time.Second)
	}
	return ts, reg, clock
}

func TestDashHandlerRendersTilesAndSVG(t *testing.T) {
	ts, _, _ := dashFixture(t, []Resolution{{Step: time.Second, Size: 300}})
	h := DashHandler(ts, nil, DefaultDashConfig())
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest("GET", "/debug/dash", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	body := rr.Body.String()
	if ctype := rr.Header().Get("Content-Type"); !strings.Contains(ctype, "text/html") {
		t.Errorf("content type = %q", ctype)
	}
	for _, want := range []string{
		"<svg",       // sparklines rendered inline
		"<polyline",  // actual series geometry, not an empty frame
		"throughput", // stat tiles
		"latency",
		"error rate",
		"in flight",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	// No external assets: a single self-contained page.
	for _, banned := range []string{"<script src", "href=\"http", "src=\"http"} {
		if strings.Contains(body, banned) {
			t.Errorf("dashboard references external asset: found %q", banned)
		}
	}
}

func TestDashHandlerAlertBanner(t *testing.T) {
	// A 5s fast and a 20s slow window: the reach of the two levels.
	ts, reg, clock := dashFixture(t, []Resolution{{Step: time.Second, Size: 5}, {Step: time.Second, Size: 20}})
	rules := []AlertRule{{Name: "error_rate", Kind: RuleRatio,
		Num: "queries_failed_total", Den: "queries_total", Max: 0.01}}
	alerts := NewAlerts(ts, reg, rules, nil)
	ts.OnTick = alerts.Eval
	h := DashHandler(ts, alerts, DefaultDashConfig())

	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest("GET", "/debug/dash", nil))
	if body := rr.Body.String(); !strings.Contains(body, "alert rules quiet") {
		t.Error("healthy banner missing")
	}

	// Drive the error ratio over the threshold in both windows.
	failed := reg.Counter("queries_failed_total")
	total := reg.Counter("queries_total")
	for i := 0; i < 30; i++ {
		total.Add(2)
		failed.Add(2)
		ts.Sample()
		clock.Advance(time.Second)
	}
	rr = httptest.NewRecorder()
	h(rr, httptest.NewRequest("GET", "/debug/dash", nil))
	body := rr.Body.String()
	if !strings.Contains(body, "alert(s) firing") || !strings.Contains(body, "error_rate") {
		t.Errorf("firing banner missing rule name; body alerts section: %v",
			strings.Contains(body, "error_rate"))
	}
}

func TestSparkSVGEmptyAndShared(t *testing.T) {
	if out := sparkSVG(nil, nil, "", ""); !strings.Contains(out, "no data yet") {
		t.Errorf("empty spark = %q", out)
	}
	one := []SeriesPoint{{T: 0, V: 1}}
	if out := sparkSVG(one, nil, "", ""); !strings.Contains(out, "no data yet") {
		t.Errorf("single-point spark should render placeholder, got %q", out)
	}
	s1 := []SeriesPoint{{T: 0, V: 1}, {T: 1, V: 2}, {T: 2, V: 3}}
	s2 := []SeriesPoint{{T: 0, V: 10}, {T: 1, V: 20}, {T: 2, V: 30}}
	out := sparkSVG(s1, s2, "p50", "p99")
	if strings.Count(out, "<polyline") != 2 {
		t.Errorf("two-series spark missing polylines: %q", out)
	}
	// Two-series sparks carry direct labels so identity is not
	// color-alone.
	if !strings.Contains(out, ">p50<") || !strings.Contains(out, ">p99<") {
		t.Errorf("two-series spark missing direct labels: %q", out)
	}
}

func TestFmtVal(t *testing.T) {
	cases := map[float64]string{
		0:             "0",
		12.34:         "12.34",
		1500:          "1500",
		25_000:        "25.0k",
		2_500_000:     "2.50M",
		3_000_000_000: "3.00G",
	}
	for in, want := range cases {
		if got := fmtVal(in); got != want {
			t.Errorf("fmtVal(%v) = %q, want %q", in, got, want)
		}
	}
}
