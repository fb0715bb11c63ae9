package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/eurostat"
	"repro/internal/rdf"
)

// build runs newServer on a fresh FlagSet that reports errors instead
// of exiting.
func build(args ...string) (*sparqld, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("sparqld", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d, err := newServer(fs, args)
	return d, fs, err
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64 // -1: an error is expected
	}{
		{"0", 0},
		{"4096", 4096},
		{" 12 ", 12},
		{"1k", 1 << 10},
		{"3K", 3 << 10},
		{"64m", 64 << 20},
		{"64M", 64 << 20},
		{"1g", 1 << 30},
		{"2G", 2 << 30},
		{"8589934591G", 8589934591 << 30}, // the largest G value that fits
		{"9223372036854775807", 1<<63 - 1},
		{"", -1},
		{"G", -1},
		{"-1", -1},
		{"-5M", -1},
		{"12x", -1},
		{"lots", -1},
		{"1.5G", -1},
		{"8589934592G", -1},  // 2^63 bytes exactly
		{"17179869185G", -1}, // wrapped to 1 GiB before the overflow check
		{"9999999999G", -1},  // wrapped negative, which disabled the limit
		{"9007199254740993K", -1},
		{"99999999999999999999", -1},
	} {
		got, err := parseSize(tc.in)
		if tc.want < 0 {
			if err == nil {
				t.Errorf("parseSize(%q) = %d, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

// TestNewServerRejects covers every validation error and every flag the
// server no longer defines.
func TestNewServerRejects(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "turtle.nq") // Turtle, which N-Quads does not parse
	if err := os.WriteFile(bad, []byte("@prefix x: <http://x/> .\nx:a x:p x:b .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-planner", "maybe"}, `invalid -planner value "maybe"`},
		{[]string{"-slo", "../../slo.json", "-tick", "0"}, "-slo requires -tick"},
		{[]string{"-profile-dir", dir}, "-profile-dir needs a trigger"},
		{[]string{"-trace-export", filepath.Join(dir, "t.jsonl")}, "-trace-export requires -trace"},
		{[]string{"-trace", "8"}, "invalid -trace 8"},
		{[]string{"-trace", "0.5"}, "-trace requires -debug-addr"},
		{[]string{"-trace", "-0.5"}, "invalid -trace"},
		{[]string{"-trace", "NaN"}, "invalid -trace"},
		{[]string{"-fault-profile", "meteor"}, `unknown -fault-profile "meteor"`},
		{[]string{"-max-query-mem", "9999999999G"}, "invalid -max-query-mem"},
		{[]string{"-max-query-mem", "lots"}, "invalid -max-query-mem"},
		// The ten flags whose values are now constants or derived.
		{[]string{"-seed", "7"}, "not defined: -seed"},
		{[]string{"-retention", "1h"}, "not defined: -retention"},
		{[]string{"-alert-fast", "1s"}, "not defined: -alert-fast"},
		{[]string{"-alert-slow", "2s"}, "not defined: -alert-slow"},
		{[]string{"-ready-max-shed", "0.5"}, "not defined: -ready-max-shed"},
		{[]string{"-ready-shed-window", "1m"}, "not defined: -ready-shed-window"},
		{[]string{"-profile-latency", "1s"}, "not defined: -profile-latency"},
		{[]string{"-profile-mem", "64M"}, "not defined: -profile-mem"},
		{[]string{"-fault-seed", "2"}, "not defined: -fault-seed"},
		{[]string{"-sample", "1"}, "not defined: -sample"},
		// Load progress and the startup run report.
		{[]string{"-progress"}, "not defined: -progress"},
		{[]string{"-report", filepath.Join(dir, "r.json")}, "not defined: -report"},
		// N-Quads files load through -data.
		{[]string{"-quads", filepath.Join(dir, "all.nq")}, "not defined: -quads"},
		// A -data file that is missing or does not parse as its name says.
		{[]string{"-data", filepath.Join(dir, "missing.ttl")}, "no such file"},
		{[]string{"-data", bad}, "parsing " + bad},
	} {
		d, _, err := build(tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("newServer(%q) = %v, %v; want error containing %q", tc.args, d, err, tc.want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "t.jsonl")); !os.IsNotExist(err) {
		t.Errorf("a rejected -trace-export still created its file (stat: %v)", err)
	}
}

// TestNewServerDerived pins the values that replaced flags: the alert
// windows are the default ladder's level reaches, readiness follows the
// SLO file's shed rate, and profiling and tracing hang off the flags
// they are derived from.
func TestNewServerDerived(t *testing.T) {
	d, _, err := build("-slo", "../../slo.json")
	if err != nil {
		t.Fatal(err)
	}
	snap := d.srv.Alerts.Snapshot()
	if snap.FastWindowMs != 300_000 || snap.SlowWindowMs != 3_600_000 {
		t.Errorf("alert windows = %d / %d ms, want 300000 / 3600000", snap.FastWindowMs, snap.SlowWindowMs)
	}
	if d.srv.ReadyMaxShedRate != 0.25 {
		t.Errorf("ReadyMaxShedRate = %v, want slo.json's max_shed_rate 0.25", d.srv.ReadyMaxShedRate)
	}

	noShed := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(noShed, []byte(`{"max_p99_ms": 100}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if d, _, err = build("-slo", noShed); err != nil {
		t.Fatal(err)
	}
	if d.srv.ReadyMaxShedRate != 0 || d.srv.Alerts == nil {
		t.Errorf("SLO without max_shed_rate: ReadyMaxShedRate = %v, alerts = %v", d.srv.ReadyMaxShedRate, d.srv.Alerts)
	}

	if d, _, err = build(); err != nil {
		t.Fatal(err)
	}
	if d.srv.Alerts != nil || d.srv.ReadyMaxShedRate != 0 || d.srv.Tracer != nil || d.srv.Profiler != nil || d.srv.Series == nil {
		t.Errorf("defaults: alerts=%v shed=%v tracer=%v profiler=%v series=%v",
			d.srv.Alerts, d.srv.ReadyMaxShedRate, d.srv.Tracer, d.srv.Profiler, d.srv.Series)
	}
	if d, _, err = build("-tick", "0"); err != nil || d.srv.Series != nil {
		t.Errorf("-tick 0: series = %v, err = %v", d.srv.Series, err)
	}

	for _, args := range [][]string{
		{"-profile-dir", t.TempDir(), "-slowlog", "250ms"},
		{"-profile-dir", t.TempDir(), "-max-query-mem", "64M"},
	} {
		if d, _, err = build(args...); err != nil || d.srv.Profiler == nil {
			t.Errorf("newServer(%q): profiler = %v, err = %v", args, d.srv.Profiler, err)
		}
	}

	export := filepath.Join(t.TempDir(), "t.jsonl")
	if d, _, err = build("-trace", "1", "-trace-export", export, "-debug-addr", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.srv.Exporter.Close()
	if d.srv.Tracer == nil || d.srv.Sampler.Rate() != 1 || d.debugAddr != "127.0.0.1:0" {
		t.Errorf("-trace 1: tracer=%v sampler=%v debug-addr=%q", d.srv.Tracer, d.srv.Sampler, d.debugAddr)
	}
}

// TestNewServerData: -data picks the parser by file name — a .nq file
// loads as N-Quads with its named graphs, any other as Turtle into the
// default graph — and is repeatable.
func TestNewServerData(t *testing.T) {
	dir := t.TempDir()
	ttl, nq := filepath.Join(dir, "cube.ttl"), filepath.Join(dir, "all.nq")
	files := map[string]string{
		ttl: "@prefix x: <http://x/> .\nx:a x:p x:b , x:c .\n",
		nq:  "<http://x/d> <http://x/p> <http://x/e> .\n<http://x/f> <http://x/p> <http://x/g> <http://x/ext> .\n",
	}
	for path, text := range files {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, _, err := build("-data", ttl, "-data", nq, "-tick", "0")
	if err != nil {
		t.Fatal(err)
	}
	st := d.srv.Engine().Store()
	ext := rdf.NewIRI("http://x/ext")
	if st.Len(rdf.Term{}) != 3 || st.Len(ext) != 1 || st.TotalLen() != 4 {
		t.Errorf("loaded default graph %d, <http://x/ext> %d, total %d triples; want 3, 1, 4",
			st.Len(rdf.Term{}), st.Len(ext), st.TotalLen())
	}
}

// TestNewServerDemoSeed: -demo always generates the cube from the
// default seed, 42.
func TestNewServerDemoSeed(t *testing.T) {
	const n = 300
	d, _, err := build("-demo", "300", "-tick", "0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.srv.Engine().QueryString(`SELECT (SUM(?v) AS ?t) WHERE {
		?o <http://purl.org/linked-data/sdmx/2009/measure#obsValue> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows[0][0].Value
	sum := func(seed int64) string {
		cfg := eurostat.DefaultConfig()
		cfg.TargetObservations, cfg.Seed = n, seed
		var total int64
		for _, o := range eurostat.Generate(cfg).Observations {
			total += o.Value
		}
		return strconv.FormatInt(total, 10)
	}
	if want := sum(42); got != want {
		t.Errorf("demo cube total = %s, want %s (seed 42)", got, want)
	}
	if other := sum(43); other == got {
		t.Fatalf("seeds 42 and 43 give the same total %s; the check cannot tell them apart", got)
	}
}

// TestREADMEFlagTables: every flag sparqld defines has a README table
// row whose Tool column names sparqld (or both tools), and every such
// row names a defined flag.
func TestREADMEFlagTables(t *testing.T) {
	_, fs, err := build("-h")
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	defined := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { defined[f.Name] = true })

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	flagName := regexp.MustCompile("`-([a-z][a-z0-9-]*)")
	documented := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(strings.ReplaceAll(line, `\|`, "/"), "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`-") {
			continue
		}
		if tool := strings.TrimSpace(cells[2]); tool != "both" && !strings.Contains(tool, "sparqld") {
			continue
		}
		for _, m := range flagName.FindAllStringSubmatch(cells[1], -1) {
			if !defined[m[1]] {
				t.Errorf("README documents sparqld flag -%s, which sparqld does not define", m[1])
			}
			documented[m[1]] = true
		}
	}
	for name := range defined {
		if !documented[name] {
			t.Errorf("sparqld flag -%s has no README table row", name)
		}
	}
}
