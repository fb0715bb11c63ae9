package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// alertHarness wires a registry, sampler with fake clock, and an
// evaluator over one quantile rule and one ratio rule.
type alertHarness struct {
	reg    *Registry
	ts     *TimeSeries
	clock  *fakeClock
	alerts *Alerts
	lat    *Histogram
	total  *Counter
	failed *Counter
	logBuf *bytes.Buffer
}

func newAlertHarness(t *testing.T) *alertHarness {
	t.Helper()
	h := &alertHarness{reg: NewRegistry(), clock: newFakeClock(), logBuf: &bytes.Buffer{}}
	h.lat = h.reg.Histogram("query_latency")
	h.total = h.reg.Counter("queries_total")
	h.failed = h.reg.Counter("queries_failed_total")
	// A 10s fast and a 60s slow window: the reach of the two levels.
	h.ts = NewTimeSeries(h.reg, []Resolution{{Step: time.Second, Size: 10}, {Step: time.Second, Size: 60}})
	h.ts.SetNow(h.clock.Now)
	rules := []AlertRule{
		{Name: "p99_latency", Kind: RuleQuantile, Metric: "query_latency", Q: 0.99, Max: 100},
		{Name: "error_rate", Kind: RuleRatio, Num: "queries_failed_total", Den: "queries_total", Max: 0.05},
	}
	logger := slog.New(slog.NewTextHandler(h.logBuf, nil))
	h.alerts = NewAlerts(h.ts, h.reg, rules, logger)
	h.ts.OnTick = h.alerts.Eval
	return h
}

func (h *alertHarness) tick() {
	h.ts.Sample()
	h.clock.Advance(time.Second)
}

func (h *alertHarness) status(t *testing.T, name string) AlertStatus {
	t.Helper()
	for _, r := range h.alerts.Snapshot().Rules {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no rule %q in snapshot", name)
	return AlertStatus{}
}

func TestAlertFireAndResolve(t *testing.T) {
	h := newAlertHarness(t)

	// Healthy traffic: 10ms latencies, no errors. No rule may fire.
	for i := 0; i < 70; i++ {
		h.lat.Observe(10 * time.Millisecond)
		h.total.Inc()
		h.tick()
	}
	if s := h.status(t, "p99_latency"); s.Firing || !s.FastOK || !s.SlowOK {
		t.Fatalf("healthy p99 rule = %+v", s)
	}
	if fired := h.reg.Counter("alerts_fired_total").Value(); fired != 0 {
		t.Fatalf("alerts_fired_total = %d during healthy traffic", fired)
	}

	// Latency regression: 500ms observations. (With p99 both windows
	// violate almost immediately — a single outlier past the 1% rank
	// moves the quantile — so this covers fire mechanics; the
	// fast-vs-slow gating delay is pinned in TestAlertBurnRateGating.)
	firedAt := -1
	for i := 0; i < 90; i++ {
		h.lat.Observe(500 * time.Millisecond)
		h.total.Inc()
		h.tick()
		if firedAt < 0 && h.status(t, "p99_latency").Firing {
			firedAt = i
		}
	}
	if firedAt < 0 {
		t.Fatal("p99 rule never fired under sustained violation")
	}
	st := h.status(t, "p99_latency")
	if st.Transitions != 1 || st.SinceMs == 0 {
		t.Errorf("firing state = %+v", st)
	}
	if got := h.reg.Counter("alerts_fired_total").Value(); got != 1 {
		t.Errorf("alerts_fired_total = %d, want 1", got)
	}
	if !strings.Contains(h.logBuf.String(), "alert firing") {
		t.Error("fire transition was not logged")
	}

	// The labeled gauge surfaces per-rule state in the registry.
	snap := h.reg.Snapshot()
	if v, ok := snap[`alert_firing{rule="p99_latency"}`]; !ok || v.(int64) != 1 {
		t.Errorf(`alert_firing{rule="p99_latency"} = %v, %v`, v, ok)
	}
	if v := snap["alerts_firing"]; v.(int64) != 1 {
		t.Errorf("alerts_firing = %v, want 1", v)
	}

	// Recovery: fast observations again. The rule resolves once the
	// fast window's p99 drops under the threshold, even though the
	// slow window still remembers the incident.
	for i := 0; i < 15; i++ {
		h.lat.Observe(5 * time.Millisecond)
		h.total.Inc()
		h.tick()
	}
	st = h.status(t, "p99_latency")
	if st.Firing {
		t.Fatalf("rule still firing after fast-window recovery: %+v", st)
	}
	if st.Transitions != 2 {
		t.Errorf("transitions = %d, want 2", st.Transitions)
	}
	if got := h.reg.Counter("alerts_resolved_total").Value(); got != 1 {
		t.Errorf("alerts_resolved_total = %d, want 1", got)
	}
	if !strings.Contains(h.logBuf.String(), "alert resolved") {
		t.Error("resolve transition was not logged")
	}
}

func TestAlertRatioRuleAndInsufficientData(t *testing.T) {
	h := newAlertHarness(t)

	// No traffic at all: rules are not evaluable and must not fire.
	for i := 0; i < 70; i++ {
		h.tick()
	}
	st := h.status(t, "error_rate")
	if st.Firing || st.FastOK || st.SlowOK {
		t.Fatalf("idle ratio rule = %+v", st)
	}

	// 50% failures, sustained past the slow window.
	for i := 0; i < 70; i++ {
		h.total.Add(2)
		h.failed.Inc()
		h.tick()
	}
	if st := h.status(t, "error_rate"); !st.Firing {
		t.Fatalf("error_rate rule did not fire: %+v", st)
	}

	// Traffic stops entirely: the fast window becomes non-evaluable,
	// which must hold state (no spurious resolve), not flap.
	for i := 0; i < 30; i++ {
		h.tick()
	}
	if st := h.status(t, "error_rate"); !st.Firing {
		t.Fatalf("error_rate resolved on missing data: %+v", st)
	}

	// Healthy traffic resumes → resolve.
	for i := 0; i < 15; i++ {
		h.total.Add(10)
		h.tick()
	}
	if st := h.status(t, "error_rate"); st.Firing {
		t.Fatalf("error_rate still firing after recovery: %+v", st)
	}
}

// TestAlertBurnRateGating pins the fast/slow pairing: a violation that
// saturates the fast window must not fire until the slow window also
// crosses the threshold — the gate that keeps a brief spike from
// paging — and the exact gating delay is deterministic with a ratio
// rule (the slow window's 60 samples span 59 ticks, so its ratio after
// k bad ticks is k/59).
func TestAlertBurnRateGating(t *testing.T) {
	reg := NewRegistry()
	total := reg.Counter("queries_total")
	failed := reg.Counter("queries_failed_total")
	// A 5s fast and a 60s slow window: the reach of the two levels.
	ts := NewTimeSeries(reg, []Resolution{{Step: time.Second, Size: 5}, {Step: time.Second, Size: 60}})
	clock := newFakeClock()
	ts.SetNow(clock.Now)
	rules := []AlertRule{{Name: "error_rate", Kind: RuleRatio,
		Num: "queries_failed_total", Den: "queries_total", Max: 0.5}}
	alerts := NewAlerts(ts, reg, rules, nil)
	ts.OnTick = alerts.Eval

	// 60 healthy ticks fill the slow window with error-free traffic.
	for i := 0; i < 60; i++ {
		total.Add(10)
		ts.Sample()
		clock.Advance(time.Second)
	}
	// Total failure from here on. The fast window saturates at 1.0
	// within ~5 ticks; the slow window reaches 0.5 only once bad ticks
	// outnumber half its span (k/59 > 0.5 → k ≥ 30).
	firedAt := -1
	for k := 1; k <= 60; k++ {
		total.Add(10)
		failed.Add(10)
		ts.Sample()
		clock.Advance(time.Second)
		st := alerts.Snapshot().Rules[0]
		if firedAt < 0 && st.Firing {
			firedAt = k
		}
		if k >= 10 && k <= 25 {
			if !st.FastOK || st.FastValue <= 0.5 {
				t.Fatalf("tick %d: fast window should violate (got %v ok=%v)", k, st.FastValue, st.FastOK)
			}
			if st.Firing {
				t.Fatalf("tick %d: fired while the slow window (%v) was still under threshold", k, st.SlowValue)
			}
		}
	}
	if firedAt < 30 || firedAt > 35 {
		t.Errorf("fired at bad-tick %d, want ≈30 (slow-window crossing)", firedAt)
	}
}

func TestAlertsHandler(t *testing.T) {
	h := newAlertHarness(t)
	for i := 0; i < 3; i++ {
		h.total.Inc()
		h.tick()
	}
	rr := httptest.NewRecorder()
	AlertsHandler(h.alerts)(rr, httptest.NewRequest("GET", "/alerts", nil))
	var snap AlertsSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decoding /alerts: %v", err)
	}
	if len(snap.Rules) != 2 || snap.FastWindowMs != 10_000 || snap.SlowWindowMs != 60_000 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.Firing != 0 {
		t.Errorf("firing = %d, want 0", snap.Firing)
	}
}

// TestAlertWindowsFromLadder: the window pair is the reach of the
// ladder's first two levels, or level 0's twice on a one-level ladder.
func TestAlertWindowsFromLadder(t *testing.T) {
	for _, tc := range []struct {
		ladder     []Resolution
		fast, slow time.Duration
	}{
		{NewLadder(time.Second, 0), 5 * time.Minute, time.Hour},
		{NewLadder(100*time.Millisecond, 0), 30 * time.Second, 6 * time.Minute},
		{[]Resolution{{Step: time.Second, Size: 120}}, 2 * time.Minute, 2 * time.Minute},
	} {
		reg := NewRegistry()
		snap := NewAlerts(NewTimeSeries(reg, tc.ladder), reg, nil, nil).Snapshot()
		if snap.FastWindowMs != tc.fast.Milliseconds() || snap.SlowWindowMs != tc.slow.Milliseconds() {
			t.Errorf("ladder %v: windows = %d / %d ms, want %v / %v",
				tc.ladder, snap.FastWindowMs, snap.SlowWindowMs, tc.fast, tc.slow)
		}
	}
}
