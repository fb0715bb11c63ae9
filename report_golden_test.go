package repro

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/demo"
	"repro/internal/endpoint"
	"repro/internal/enrich"
	"repro/internal/eurostat"
	"repro/internal/obs"
	"repro/internal/ql"
	"repro/internal/sparql"
)

// TestRunReportGoldenDemoEnrich drives the repository's demo enrichment
// script (queries/demo.enrich) with a Progress reporter attached and
// pins the canonical run report — phase names, step counts, and
// counters, with every timing zeroed — against a golden file. The demo
// generator is deterministic (seed 42), so any drift in the report
// means the enrichment pipeline did different work: a changed number of
// SPARQL queries, discovery chunks, or generated triples.
func TestRunReportGoldenDemoEnrich(t *testing.T) {
	st, _ := eurostat.NewStore(configFor(5000))
	client := endpoint.NewLocal(st)

	prog := obs.NewProgress("enrich")
	opts := enrich.DefaultOptions()
	opts.Progress = prog
	sess, err := enrich.NewSession(client, eurostat.DSDIRI, opts)
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile(filepath.Join("queries", "demo.enrich"))
	if err != nil {
		t.Fatal(err)
	}
	if err := enrich.ApplyScript(sess, string(script)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}

	got := string(prog.Report().Canonical().JSON())

	golden := filepath.Join("testdata", "runreport_demo.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run RunReportGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("run report drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestExplainEstimatesWithinOrderOfMagnitude checks the estimated-vs-
// actual EXPLAIN surface on the paper's demo query: every JOIN and STAR
// operator must carry an estimate, and wherever the operator actually
// produced rows the estimate must land within one order of magnitude. The demo
// cube's statistics are exact (they are recomputed from the loaded
// data), so only the independence assumption separates est from act.
func TestExplainEstimatesWithinOrderOfMagnitude(t *testing.T) {
	env, err := demo.Build(configFor(5000))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		t.Fatal(err)
	}
	eng := sparql.NewEngine(env.Store)
	_, tr, err := eng.QueryTracedString(p.Translation.Direct)
	if err != nil {
		t.Fatal(err)
	}

	joins, stars := 0, 0
	tr.Root.Visit(func(s *obs.Span) {
		switch s.Op {
		case "JOIN":
			joins++
		case "STAR":
			stars++
		default:
			return
		}
		if !s.Estimated() {
			t.Errorf("%s %q has no estimate", s.Op, s.Detail)
			return
		}
		if s.Out == 0 {
			return // an empty result is always "within" any bound
		}
		est, act := float64(s.Est), float64(s.Out)
		if est <= 0 {
			t.Errorf("%s %q: est=%d for act=%d", s.Op, s.Detail, s.Est, s.Out)
			return
		}
		if ratio := est / act; ratio > 10 || ratio < 0.1 {
			t.Errorf("%s %q: est=%d act=%d off by more than 10x", s.Op, s.Detail, s.Est, s.Out)
		}
	})
	if joins == 0 || stars == 0 {
		t.Fatalf("%d JOIN and %d STAR spans in the trace, want both", joins, stars)
	}
}
