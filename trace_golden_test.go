package repro

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/demo"
	"repro/internal/endpoint"
	"repro/internal/obs"
	"repro/internal/ql"
	"repro/internal/sparql"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestExplainGoldenDemoQuery pins the EXPLAIN ANALYZE output of the
// paper's demo query (Section IV, the "Mary" query) against a golden
// file, end to end through the planner: the cost-based translation
// choice (the "plan:" line with its estimated cost) plus the operator
// tree in the planned join order. The outline omits wall times, and the
// demo generator is deterministic (seed 42), so the output — chosen
// translation, estimated costs, operators, pattern details, and every
// intermediate cardinality — must be byte-identical across runs.
func TestExplainGoldenDemoQuery(t *testing.T) {
	env, err := demo.Build(configFor(5000))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		t.Fatal(err)
	}
	client := endpoint.NewLocal(env.Store)
	sel := ql.Choose(client, p.Translation)
	if sel.Heuristic {
		t.Fatalf("planner-on local client fell back to heuristic selection: %s", sel)
	}
	queryText := p.Translation.Direct
	if sel.Variant == ql.Alternative {
		queryText = p.Translation.Alternative
	}
	res, tr, err := client.Engine.QueryTracedString(queryText)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("demo query returned no rows")
	}
	tr.Plan = sel.String()
	got := tr.Outline()

	golden := filepath.Join("testdata", "explain_mary.golden")
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
		t.Fatalf("missing golden file (run go test -run ExplainGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN ANALYZE outline drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestTracingPreservesResults runs every QL program under queries/
// through both SPARQL translations twice — once untraced and once
// traced — and requires identical result tables. Tracing
// is observation only; it must never change what a query returns.
func TestTracingPreservesResults(t *testing.T) {
	env, err := demo.Build(configFor(5000))
	if err != nil {
		t.Fatal(err)
	}
	eng := sparql.NewEngine(env.Store)

	files, err := filepath.Glob("queries/*.ql")
	if err != nil || len(files) == 0 {
		t.Fatalf("no QL programs found under queries/: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ql.Prepare(string(src), env.Schema)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, q := range []struct{ variant, text string }{
			{"direct", p.Translation.Direct},
			{"alternative", p.Translation.Alternative},
		} {
			plain, err := eng.QueryString(q.text)
			if err != nil {
				t.Fatalf("%s/%s: %v", file, q.variant, err)
			}
			traced, tr, err := eng.QueryTracedString(q.text)
			if err != nil {
				t.Fatalf("%s/%s traced: %v", file, q.variant, err)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("%s/%s: traced results differ from untraced", file, q.variant)
			}
			if tr == nil || len(tr.Root.Children) == 0 {
				t.Errorf("%s/%s: empty trace", file, q.variant)
			}
			// Every span must have finished (Out set from its real row
			// flow; a span left unfinished keeps the zero start marker).
			tr.Root.Visit(func(s *obs.Span) {
				if s.Wall < 0 {
					t.Errorf("%s/%s: span %s has negative wall time", file, q.variant, s.Op)
				}
			})
		}
	}
}

// TestTraceOutlineIndependentOfChunkSize: over the whole queries/
// corpus (the Mary query in both translations included), the EXPLAIN
// ANALYZE outline of a traced run is identical at chunk sizes 1, 7 and
// 1024 — span totals accumulate per stage and est= is fixed from the
// total actual input, so chunking must not show — and every traced run
// returns the frozen reference result.
func TestTraceOutlineIndependentOfChunkSize(t *testing.T) {
	env, err := demo.Build(configFor(5000))
	if err != nil {
		t.Fatal(err)
	}
	want := corpusReference(t)
	for _, p := range corpusProbes(t, env) {
		var outline string
		for _, cs := range []int{1024, 7, 1} {
			eng := sparql.NewEngine(env.Store, sparql.WithChunkSize(cs))
			res, tr, err := eng.QueryTracedString(p.text)
			if err != nil {
				t.Fatalf("%s chunk=%d: %v", p.name, cs, err)
			}
			if line := corpusLine(t, p.name, res); line != want[p.name] {
				t.Errorf("%s chunk=%d: traced result differs from the frozen reference\ngot  %s\nwant %s",
					p.name, cs, line, want[p.name])
			}
			got := tr.Outline()
			if outline == "" {
				outline = got
			} else if got != outline {
				t.Errorf("%s: outline at chunk=%d differs from chunk=1024\n--- chunk=%d ---\n%s--- chunk=1024 ---\n%s",
					p.name, cs, cs, got, outline)
			}
		}
	}
}

// BenchmarkTracerOverhead measures the demo query untraced (Query: a
// single nil check per span hook) against a fully traced evaluation of
// the same pipeline (QueryTracedContext), on the 20k-observation cube.
// EXPERIMENTS.md records the measured gap; the off case must stay
// within noise of the seed engine.
func BenchmarkTracerOverhead(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sparql.ParseQuery(p.Translation.Direct)
	if err != nil {
		b.Fatal(err)
	}
	eng := sparql.NewEngine(env.Store)
	for _, c := range []struct {
		name string
		run  func() (*sparql.Results, error)
	}{
		{"tracer=off", func() (*sparql.Results, error) { return eng.Query(q) }},
		{"tracer=on", func() (*sparql.Results, error) {
			res, _, err := eng.QueryTracedContext(context.Background(), q)
			return res, err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := c.run()
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() == 0 {
					b.Fatal(fmt.Sprintf("no rows (%s)", c.name))
				}
			}
		})
	}
}

// TestStitchedTraceGoldenMaryHTTP pins the stitched client+server
// trace of the Mary query over real HTTP against a golden file: a
// Remote client forces tracing (SelectTraced), the server honors the
// propagated traceparent, and the returned tree must contain the
// client HTTP span with the server's full operator tree — byte-stable
// cardinalities included — nested under it. The HTTP span detail is
// path-only, so the golden file survives random listener ports.
func TestStitchedTraceGoldenMaryHTTP(t *testing.T) {
	env, err := demo.Build(configFor(5000))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		t.Fatal(err)
	}
	srv := endpoint.NewServer(env.Store)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := endpoint.NewRemote(ts.URL)
	res, tr, err := c.SelectTraced(p.Translation.Direct)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("demo query returned no rows")
	}
	if tr.ID == "" {
		t.Fatal("stitched trace has no trace ID")
	}
	if tr.Root.Op != "HTTP" {
		t.Fatalf("root span op = %s, want HTTP", tr.Root.Op)
	}
	got := tr.Outline()

	golden := filepath.Join("testdata", "trace_stitched_mary.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run StitchedTraceGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("stitched trace outline drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
