package loadgen

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func testReport() *Report {
	return &Report{
		Mode: "closed", Clients: 4, Seed: 1,
		Total: ClassReport{
			Class: "all", Sent: 100, OK: 90, Errors: 4, Shed: 5, Timeouts: 1,
			Latency: obs.HistogramSnapshot{Count: 100, P50Ms: 10, P99Ms: 120},
		},
		Classes: []ClassReport{
			{Class: "ql", Sent: 60, OK: 60, Latency: obs.HistogramSnapshot{Count: 60, P99Ms: 40}},
			{Class: "update", Sent: 40, OK: 30, Errors: 4, Shed: 5, Timeouts: 1,
				Latency: obs.HistogramSnapshot{Count: 40, P99Ms: 300}},
		},
	}
}

func TestCheckSLOPasses(t *testing.T) {
	slo := &SLO{Thresholds: Thresholds{MaxP99Ms: 500, MaxErrorRate: 0.10, MaxShedRate: 0.10}}
	if v := CheckSLO(testReport(), slo); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

// TestCheckSLOViolations is the negative test: every threshold kind
// must fire when deliberately set below the run's observed values.
func TestCheckSLOViolations(t *testing.T) {
	slo := &SLO{
		Thresholds: Thresholds{MaxP99Ms: 100, MaxErrorRate: 0.01, MaxShedRate: 0.01},
		Classes:    map[string]Thresholds{"update": {MaxP99Ms: 200}},
	}
	got := CheckSLO(testReport(), slo)
	want := map[string]bool{
		"all/p99_ms":      true, // 120 > 100
		"all/error_rate":  true, // 5/100 > 0.01
		"all/shed_rate":   true, // 5/100 > 0.01
		"update/p99_ms":   true, // 300 > 200 (per-class override)
		"update/sentinel": false,
	}
	seen := map[string]bool{}
	for _, v := range got {
		seen[v.Scope+"/"+v.Metric] = true
		if v.String() == "" {
			t.Errorf("violation renders empty: %+v", v)
		}
	}
	for key, expect := range want {
		if expect && !seen[key] {
			t.Errorf("missing violation %s (got %v)", key, got)
		}
	}
	if len(got) != 4 {
		t.Errorf("got %d violations, want 4: %v", len(got), got)
	}
}

func TestLoadSLO(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "slo.json")
	os.WriteFile(good, []byte(`{"max_p99_ms": 250, "classes": {"ql": {"max_error_rate": 0.05}}}`), 0o644)
	slo, err := LoadSLO(good)
	if err != nil {
		t.Fatal(err)
	}
	if slo.MaxP99Ms != 250 || slo.Classes["ql"].MaxErrorRate != 0.05 {
		t.Fatalf("LoadSLO = %+v", slo)
	}
	// A typo'd field must fail loudly, not silently skip gating.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"max_p99ms": 250}`), 0o644)
	if _, err := LoadSLO(bad); err == nil {
		t.Fatal("LoadSLO accepted an unknown field")
	}
}

// TestAlertRules pins the SLO→burn-rate-rule conversion: each set
// global threshold becomes one rule wired to the sparqld metric names,
// and unset thresholds produce no rule.
func TestAlertRules(t *testing.T) {
	full := &SLO{
		Thresholds: Thresholds{MaxP50Ms: 50, MaxP99Ms: 2000, MaxErrorRate: 0.01, MaxShedRate: 0.25},
		Classes:    map[string]Thresholds{"ql": {MaxP99Ms: 100}},
	}
	rules := AlertRules(full)
	want := []obs.AlertRule{
		{Name: "p50_latency", Kind: obs.RuleQuantile, Metric: "query_latency", Q: 0.50, Max: 50},
		{Name: "p99_latency", Kind: obs.RuleQuantile, Metric: "query_latency", Q: 0.99, Max: 2000},
		{Name: "error_rate", Kind: obs.RuleRatio, Num: "queries_failed_total", Den: "queries_total", Max: 0.01},
		{Name: "shed_rate", Kind: obs.RuleRatio, Num: "queries_shed_total", Den: "queries_total", Max: 0.25},
	}
	if len(rules) != len(want) {
		t.Fatalf("AlertRules produced %d rules, want %d: %+v", len(rules), len(want), rules)
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
	// Per-class thresholds do not become rules (the live registry has
	// no per-class latency split), and an empty SLO yields none.
	if got := AlertRules(&SLO{Classes: map[string]Thresholds{"ql": {MaxP99Ms: 1}}}); len(got) != 0 {
		t.Errorf("empty global SLO produced rules: %+v", got)
	}
}
