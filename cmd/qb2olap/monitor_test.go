package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

func monitorSnapshot() *obs.TimeSeriesSnapshot {
	pts := func(vs ...float64) []obs.SeriesPoint {
		out := make([]obs.SeriesPoint, len(vs))
		for i, v := range vs {
			out[i] = obs.SeriesPoint{T: int64(i * 1000), V: v}
		}
		return out
	}
	return &obs.TimeSeriesSnapshot{
		NowMs: 5_000, TickMs: 1000, WindowMs: 300_000,
		Series: []obs.SeriesData{
			{Name: "queries_total", Kind: obs.KindCounter, Points: pts(10, 20, 30), Rate: pts(10, 10, 10)},
			{Name: "query_latency", Kind: obs.KindHistogram, Points: pts(3, 3, 3),
				Rate: pts(3, 3, 3), P50: pts(4, 5, 6), P99: pts(40, 50, 60)},
			{Name: "queries_inflight", Kind: obs.KindGauge, Points: pts(1, 2, 3)},
			{Name: "go_heap_inuse_bytes", Kind: obs.KindGauge, Points: pts(64 << 20)},
			{Name: "unknown_series", Kind: obs.KindCounter, Points: pts(1)},
		},
	}
}

func TestRenderMonitorFrame(t *testing.T) {
	alerts := &obs.AlertsSnapshot{
		FastWindowMs: 300_000, SlowWindowMs: 3_600_000, Firing: 1,
		Rules: []obs.AlertStatus{
			{Name: "p99_latency", Firing: true, FastValue: 250, SlowValue: 180, Max: 100, FastOK: true, SlowOK: true},
			{Name: "error_rate", Firing: false, FastOK: false},
		},
	}
	var b bytes.Buffer
	renderMonitor(&b, "http://localhost:8080", monitorSnapshot(), alerts)
	out := b.String()

	for _, want := range []string{
		"qb2olap monitor — http://localhost:8080",
		"queries",  // rate line
		"10.0",     // last q/s value
		"latency",  // quantile line
		"6.0/60.0", // last p50/p99 pair
		"in flight",
		"heap",
		"64.0", // MiB-scaled heap gauge
		"alerts (1 firing",
		"p99_latency",
		"FIRING",
		"error_rate",
		"no data",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// Unknown series are skipped, not rendered raw.
	if strings.Contains(out, "unknown_series") {
		t.Error("frame rendered a series outside the monitor table")
	}
	// Sparklines use the block-element ramp.
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Error("frame has no sparkline runes")
	}
}

func TestRenderMonitorWithoutAlerts(t *testing.T) {
	var b bytes.Buffer
	renderMonitor(&b, "http://localhost:8080", monitorSnapshot(), nil)
	if out := b.String(); strings.Contains(out, "alerts (") {
		t.Errorf("alerts section rendered without alert data:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 4); got != "    " {
		t.Errorf("empty sparkline = %q", got)
	}
	pts := []obs.SeriesPoint{{V: 0}, {V: 1}, {V: 2}, {V: 3}}
	got := sparkline(pts, 4)
	if len([]rune(got)) != 4 {
		t.Fatalf("sparkline width = %d, want 4", len([]rune(got)))
	}
	runes := []rune(got)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline ramp = %q", got)
	}
	// Fewer points than width left-pads with spaces.
	padded := sparkline(pts[:2], 6)
	if !strings.HasPrefix(padded, "    ") {
		t.Errorf("short sparkline not left-padded: %q", padded)
	}
}
