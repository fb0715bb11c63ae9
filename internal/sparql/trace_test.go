package sparql

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// traceOps flattens a span tree into "depth:op" strings for shape
// assertions that ignore details and counts.
func traceOps(s *obs.Span) []string {
	var out []string
	var walk func(sp *obs.Span, depth int)
	walk = func(sp *obs.Span, depth int) {
		out = append(out, strings.Repeat(">", depth)+sp.Op)
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return out
}

func TestQueryTracedTreeShape(t *testing.T) {
	st := loadStore(t, peopleTTL)
	e := NewEngine(st)
	res, tr, err := e.QueryTracedString(`
PREFIX ex: <http://example.org/>
SELECT ?name ?label WHERE {
  ?p a ex:Person ; ex:name ?name ; ex:city ?c .
  OPTIONAL { ?c ex:label ?label }
  FILTER (?name != "Bob")
} ORDER BY ?name LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	// The cost-based planner pushes the FILTER to the point where ?name
	// is first bound, splitting the written 3-pattern BGP and running
	// the filter before the remaining join and the OPTIONAL. The two
	// patterns before it share ?p and run as one rooted STAR.
	want := []string{
		"SELECT",
		">BGP",
		">>STAR",
		">FILTER",
		">BGP",
		">>JOIN",
		">OPTIONAL",
		">ORDER",
		">PROJECT",
		">SLICE",
	}
	if got := traceOps(tr.Root); !reflect.DeepEqual(got, want) {
		t.Errorf("trace shape mismatch:\ngot  %v\nwant %v\n\n%s", got, want, tr.Render())
	}
	if tr.Root.Out != 2 {
		t.Errorf("root out = %d, want 2", tr.Root.Out)
	}
	// The BGP's join chain must expose intermediate cardinalities: the
	// first level (a Person with a name) yields 3, and every span has
	// in/out set. The STAR's detail gives the planner's order: the root
	// pattern, then the member.
	bgp := tr.Root.Children[0]
	if bgp.Children[0].Out != 3 {
		t.Errorf("first join out = %d, want 3 persons\n%s", bgp.Children[0].Out, tr.Render())
	}
	if !strings.Contains(tr.Outline(), "STAR ?p type Person name") {
		t.Errorf("outline missing shortened pattern detail:\n%s", tr.Outline())
	}
}

func TestQueryTracedMatchesUntraced(t *testing.T) {
	st := loadStore(t, peopleTTL)
	e := NewEngine(st)
	queries := []string{
		`PREFIX ex: <http://example.org/> SELECT ?n WHERE { ?p ex:name ?n } ORDER BY ?n`,
		`PREFIX ex: <http://example.org/> SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p ex:city ?c } GROUP BY ?c ORDER BY ?c`,
		`PREFIX ex: <http://example.org/> SELECT DISTINCT ?t WHERE { { ?p a ex:Person . ?p a ?t } UNION { ?p a ex:Robot . ?p a ?t } }`,
		`PREFIX ex: <http://example.org/> ASK { ex:alice ex:knows ex:bob }`,
	}
	for _, q := range queries {
		plain, err := e.QueryString(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		traced, tr, err := e.QueryTracedString(q)
		if err != nil {
			t.Fatalf("%s: traced: %v", q, err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: traced results differ from untraced", q)
		}
		if tr == nil || len(tr.Root.Children) == 0 {
			t.Errorf("%s: empty trace", q)
		}
	}
}

func TestEngineTracerCollects(t *testing.T) {
	st := loadStore(t, peopleTTL)
	sink := obs.NewTracer(8)
	e := NewEngine(st, WithTracer(sink))
	if _, err := e.QueryString(`PREFIX ex: <http://example.org/> SELECT ?n WHERE { ?p ex:name ?n }`); err != nil {
		t.Fatal(err)
	}
	recent := sink.Recent()
	if len(recent) != 1 {
		t.Fatalf("tracer collected %d traces, want 1", len(recent))
	}
	if recent[0].Root.Op != "SELECT" || recent[0].Root.Out != 4 {
		t.Errorf("unexpected root span %s out=%d", recent[0].Root.Op, recent[0].Root.Out)
	}
}

func TestTracedSubSelectAndMinus(t *testing.T) {
	st := loadStore(t, peopleTTL)
	e := NewEngine(st)
	_, tr, err := e.QueryTracedString(`
PREFIX ex: <http://example.org/>
SELECT ?p WHERE {
  { SELECT ?p WHERE { ?p a ex:Person } }
  MINUS { ?p ex:city ex:lyon }
}`)
	if err != nil {
		t.Fatal(err)
	}
	outline := tr.Outline()
	for _, op := range []string{"SUBSELECT", "MINUS"} {
		if !strings.Contains(outline, op) {
			t.Errorf("outline missing %s:\n%s", op, outline)
		}
	}
}

// TestEngineSampledTracing: with a tracer plus a sampler, only sampled
// queries reach the tracer — rate 0 collects nothing (the untraced fast
// path), rate 1 collects everything, and QueryTraced forces a trace
// regardless of the sampler. Results are identical either way.
func TestEngineSampledTracing(t *testing.T) {
	st := loadStore(t, peopleTTL)
	const query = `PREFIX ex: <http://example.org/> SELECT ?p WHERE { ?p a ex:Person }`

	for _, tc := range []struct {
		rate float64
		want int
	}{{0, 0}, {1, 5}} {
		tracer := obs.NewTracer(16)
		e := NewEngine(st, WithTracer(tracer), WithSampler(obs.NewSampler(tc.rate)))
		var base *Results
		for i := 0; i < 5; i++ {
			res, err := e.QueryString(query)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = res
			} else if !reflect.DeepEqual(base, res) {
				t.Fatalf("rate %g: results drifted across sampled/unsampled runs", tc.rate)
			}
		}
		if got := len(tracer.Recent()); got != tc.want {
			t.Errorf("rate %g: tracer collected %d traces, want %d", tc.rate, got, tc.want)
		}
		// Sampler verdicts never apply to the forced path.
		_, tr, err := e.QueryTracedString(query)
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil || tr.ID == "" {
			t.Fatalf("rate %g: forced trace missing identity: %+v", tc.rate, tr)
		}
		if got := len(tracer.Recent()); got != tc.want+1 {
			t.Errorf("rate %g: forced trace not collected (have %d)", tc.rate, got)
		}
	}

	// Sampled traces carry distinct fresh IDs.
	tracer := obs.NewTracer(16)
	e := NewEngine(st, WithTracer(tracer))
	for i := 0; i < 3; i++ {
		if _, err := e.QueryString(query); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[obs.TraceID]bool{}
	for _, tr := range tracer.Recent() {
		if tr.ID == "" || seen[tr.ID] {
			t.Errorf("trace ID %q missing or repeated", tr.ID)
		}
		seen[tr.ID] = true
	}
}

// TestTraceOutlineIndependentOfChunkSize: a stage's span accumulates
// across its next() calls and fixes est= from the total actual input,
// so the EXPLAIN ANALYZE outline — every in/est/act of every operator,
// including the lazily opened JOIN spans and the stages nested under
// SUBSELECT, MINUS, GRAPH and GROUP — must not depend on how the rows
// were cut into chunks. (OFFSET/LIMIT shapes are excluded by design: a
// SLICE stops pulling, so how far upstream ran does depend on the chunk
// size.)
func TestTraceOutlineIndependentOfChunkSize(t *testing.T) {
	st := streamTestStore(t)
	for _, query := range []string{
		`SELECT ?name ?label WHERE { ?p a ex:Person ; ex:name ?name ; ex:city ?c . OPTIONAL { ?c ex:label ?label } FILTER (?name != "Bob") } ORDER BY ?name`,
		`SELECT ?p WHERE { { SELECT ?p WHERE { ?p a ex:Person } } MINUS { ?p ex:city ex:lyon } }`,
		`SELECT DISTINCT ?t WHERE { { ?p a ex:Person . ?p a ?t } UNION { ?p a ex:Robot . ?p a ?t } }`,
		`SELECT ?g ?who ?name WHERE { ?who ex:name ?name GRAPH ?g { ?who ex:works ?org } }`,
		`SELECT ?who ?org WHERE { GRAPH ex:g1 { ?who ex:works ?org FILTER EXISTS { ?org ex:sector ?s } } }`,
		`SELECT ?name ?other WHERE { ?p ex:name ?name OPTIONAL { ?p ex:knows ?o . ?o ex:name ?other } { ?p ex:age ?a BIND(?a * 2 AS ?twice) } VALUES ?p { ex:alice ex:bob ex:dave } }`,
		`SELECT ?city (COUNT(?p) AS ?n) WHERE { ?p ex:city ?city } GROUP BY ?city ORDER BY ?city`,
	} {
		var want string
		for _, cs := range []int{1024, 7, 1} {
			e := NewEngine(st, WithChunkSize(cs))
			_, tr, err := e.QueryTracedString("PREFIX ex: <http://example.org/>\n" + query)
			if err != nil {
				t.Fatalf("chunk=%d: %v\n%s", cs, err, query)
			}
			got := tr.Outline()
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("outline at chunk=%d differs from chunk=1024 for\n%s\n--- chunk=%d ---\n%s--- chunk=1024 ---\n%s",
					cs, query, cs, got, want)
			}
		}
	}
}
