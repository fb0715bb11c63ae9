package sparql

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// planQuery parses and plans a query against st, returning the plan.
func planQuery(t *testing.T, st *store.Store, src string) *Plan {
	t.Helper()
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return NewEngine(st).Plan(q)
}

// assertSameResults evaluates src with the planner on and off and
// requires identical result tables (including JSON byte identity).
func assertSameResults(t *testing.T, st *store.Store, src string) {
	t.Helper()
	on, err := NewEngine(st).QueryString(src)
	if err != nil {
		t.Fatalf("planner on: %v\n%s", err, src)
	}
	off, err := NewEngine(st, WithPlanner(false)).QueryString(src)
	if err != nil {
		t.Fatalf("planner off: %v\n%s", err, src)
	}
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("planner on/off results differ for\n%s\non:  %+v\noff: %+v", src, on, off)
	}
	onJSON, _ := on.MarshalJSON()
	offJSON, _ := off.MarshalJSON()
	if string(onJSON) != string(offJSON) {
		t.Fatalf("planner on/off JSON differs for\n%s", src)
	}
}

// TestPlanReordersBadWrittenOrder: a BGP written large-pattern-first is
// reordered to start from the most selective pattern, and the reordered
// plan returns exactly the written-order results.
func TestPlanReordersBadWrittenOrder(t *testing.T) {
	st := loadStore(t, peopleTTL)
	const src = `
PREFIX ex: <http://example.org/>
SELECT ?name WHERE {
  ?p ex:name ?name .
  ?p a ex:Person .
} ORDER BY ?name`
	p := planQuery(t, st, src)
	if !p.Reordered {
		t.Fatal("plan did not reorder a deliberately bad written order")
	}
	if !p.Query.Planned {
		t.Fatal("planned query not marked Planned")
	}
	// The selective pattern (3 persons) must come before the name scan
	// (4 names).
	first, ok := p.Query.Where.Elements[0].(TriplePattern)
	if !ok {
		t.Fatalf("first planned element is %T, want TriplePattern", p.Query.Where.Elements[0])
	}
	if first.O.IsVar || first.O.Term.Value != "http://example.org/Person" {
		t.Errorf("first planned pattern is %+v, want the ?p a ex:Person pattern", first)
	}
	if p.Cost <= 0 {
		t.Errorf("plan cost = %v, want > 0", p.Cost)
	}
	assertSameResults(t, st, src)
}

// TestPlanNoOpOnWellOrderedQuery: a query already written in the
// planner's preferred order (most selective pattern first, filter at
// the earliest bound point) plans as a no-op — ties keep written order,
// so Reordered stays false and the elements are untouched.
func TestPlanNoOpOnWellOrderedQuery(t *testing.T) {
	st := loadStore(t, peopleTTL)
	const src = `
PREFIX ex: <http://example.org/>
SELECT ?name WHERE {
  ?p a ex:Person .
  FILTER (?p != ex:bob)
  ?p ex:name ?name .
} ORDER BY ?name`
	p := planQuery(t, st, src)
	if p.Reordered {
		t.Fatal("well-ordered query was reordered")
	}
	if p.PushedFilters != 0 {
		t.Fatalf("PushedFilters = %d, want 0 (filter already at its earliest point)", p.PushedFilters)
	}
	if _, ok := p.Query.Where.Elements[1].(FilterElement); !ok {
		t.Fatalf("element order changed: %+v", p.Query.Where.Elements)
	}
	assertSameResults(t, st, src)
}

// TestPlanPushesFilterDown: a FILTER written after the whole BGP moves
// to the earliest join at which its variable is bound, splitting the
// BGP — and the results stay identical to the written order.
func TestPlanPushesFilterDown(t *testing.T) {
	st := loadStore(t, peopleTTL)
	const src = `
PREFIX ex: <http://example.org/>
SELECT ?name ?c WHERE {
  ?p a ex:Person .
  ?p ex:name ?name .
  ?p ex:city ?c .
  FILTER (?name != "Bob")
} ORDER BY ?name`
	p := planQuery(t, st, src)
	if p.PushedFilters != 1 {
		t.Fatalf("PushedFilters = %d, want 1", p.PushedFilters)
	}
	// The filter must appear before the last triple pattern.
	filterIdx, lastTP := -1, -1
	for i, el := range p.Query.Where.Elements {
		switch el.(type) {
		case FilterElement:
			filterIdx = i
		case TriplePattern:
			lastTP = i
		}
	}
	if filterIdx < 0 || filterIdx > lastTP {
		t.Fatalf("filter not pushed below the BGP: filter at %d, last pattern at %d\n%+v",
			filterIdx, lastTP, p.Query.Where.Elements)
	}
	assertSameResults(t, st, src)
}

// TestPlanFilterBeforeBindingRunsAfterIt: a FILTER written before the
// pattern that binds its variable applies to the whole group (SPARQL
// 1.1 §18.2.2), so the planner places it after that pattern — its
// earliest point, not its written one, which is no push.
func TestPlanFilterBeforeBindingRunsAfterIt(t *testing.T) {
	st := loadStore(t, peopleTTL)
	const src = `
PREFIX ex: <http://example.org/>
SELECT ?name WHERE {
  FILTER (?name != "Bob")
  ?p ex:name ?name .
}`
	p := planQuery(t, st, src)
	if p.PushedFilters != 0 {
		t.Fatalf("PushedFilters = %d, want 0", p.PushedFilters)
	}
	if _, ok := p.Query.Where.Elements[1].(FilterElement); !ok {
		t.Fatalf("leading filter not after the pattern: %+v", p.Query.Where.Elements)
	}
	res, err := NewEngine(st).QueryString(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("filter before its pattern kept %d rows, want the 3 names but Bob", res.Len())
	}
	assertSameResults(t, st, src)
}

// TestFilterScopesWholeGroup: a FILTER applies to the solutions of its
// whole group wherever it is written, with the planner on and off — a
// FILTER written first sees the variables the patterns after it bind,
// and so does an EXISTS in it; a FILTER written before a BIND sees the
// value the BIND writes. A FILTER inside OPTIONAL keeps its left-join
// scope: it sees the left row, and a row it rejects keeps its left side.
func TestFilterScopesWholeGroup(t *testing.T) {
	st := store.New()
	p, q := rdf.NewIRI("urn:p"), rdf.NewIRI("urn:q")
	st.InsertTriples(rdf.Term{}, []rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("urn:s1"), p, rdf.NewLiteral("x")),
		rdf.NewTriple(rdf.NewIRI("urn:s2"), p, rdf.NewLiteral("y")),
		rdf.NewTriple(rdf.NewIRI("urn:s1"), q, rdf.NewLiteral("z")),
	})
	for _, c := range []struct {
		src  string
		want int
	}{
		{`SELECT ?s WHERE { FILTER(STR(?o) = "x") ?s <urn:p> ?o }`, 1},
		{`SELECT ?s WHERE { FILTER EXISTS { ?s <urn:q> ?z } ?s <urn:p> ?o }`, 1},
		{`SELECT ?s WHERE { FILTER NOT EXISTS { ?s <urn:q> ?z } ?s <urn:p> ?o }`, 1},
		{`SELECT ?s WHERE { FILTER(!EXISTS { ?s <urn:q> ?z } || ?o = "x") ?s <urn:p> ?o }`, 2},
		{`SELECT ?s WHERE { ?s <urn:p> ?o FILTER(?w = 2) BIND(2 AS ?w) }`, 2},
		{`SELECT ?s ?z WHERE { ?s <urn:p> ?o OPTIONAL { FILTER(?o = "y") ?s <urn:q> ?z } }`, 2},
		{`SELECT ?s ?z WHERE { ?s <urn:p> ?o OPTIONAL { FILTER(?o = "x") ?s <urn:q> ?z } FILTER(BOUND(?z)) }`, 1},
	} {
		for _, planner := range []bool{true, false} {
			res, err := NewEngine(st, WithPlanner(planner)).QueryString(c.src)
			if err != nil {
				t.Fatalf("planner=%v: %v\n%s", planner, err, c.src)
			}
			if res.Len() != c.want {
				t.Errorf("planner=%v: %d rows, want %d\n%s", planner, res.Len(), c.want, c.src)
			}
		}
	}
}

// TestPlanFilterOnOptionalVarStays: a FILTER over an OPTIONAL-bound
// variable is not certainly bound, so it runs at the end of its group,
// after the OPTIONAL (where BOUND() semantics depend on the left join
// having run).
func TestPlanFilterOnOptionalVarStays(t *testing.T) {
	st := loadStore(t, peopleTTL)
	const src = `
PREFIX ex: <http://example.org/>
SELECT ?p ?age WHERE {
  ?p a ex:Person .
  OPTIONAL { ?p ex:age ?age }
  FILTER (!BOUND(?age) || ?age > 26)
} ORDER BY ?p`
	p := planQuery(t, st, src)
	if p.PushedFilters != 0 {
		t.Fatalf("PushedFilters = %d, want 0", p.PushedFilters)
	}
	els := p.Query.Where.Elements
	if _, ok := els[len(els)-1].(FilterElement); !ok {
		t.Fatalf("filter over OPTIONAL variable moved: %+v", els)
	}
	assertSameResults(t, st, src)
}

// TestPlanFilterNeverCrossesBind: a FILTER over a BIND-introduced
// variable stays after the BIND (the variable is never certainly
// bound — the bind expression may error per row).
func TestPlanFilterNeverCrossesBind(t *testing.T) {
	st := loadStore(t, peopleTTL)
	const src = `
PREFIX ex: <http://example.org/>
SELECT ?p ?m WHERE {
  ?p a ex:Person .
  ?p ex:name ?n .
  BIND (?n AS ?m)
  FILTER (?m = "Alice")
}`
	p := planQuery(t, st, src)
	if p.PushedFilters != 0 {
		t.Fatalf("PushedFilters = %d, want 0", p.PushedFilters)
	}
	bindIdx, filterIdx := -1, -1
	for i, el := range p.Query.Where.Elements {
		switch el.(type) {
		case BindElement:
			bindIdx = i
		case FilterElement:
			filterIdx = i
		}
	}
	if filterIdx < bindIdx {
		t.Fatalf("filter crossed its BIND: filter at %d, bind at %d", filterIdx, bindIdx)
	}
	assertSameResults(t, st, src)
}

// TestPlannerOffMeansWrittenOrder: with WithPlanner(false) the entry
// points leave the query untouched (no Planned mark) and the pipeline
// joins a badly written BGP exactly as written; with the planner on the
// same query joins the selective pattern first. The traced join order is
// the evidence: the two patterns share their subject, so they run as one
// rooted STAR whose detail is the root pattern, then the member.
func TestPlannerOffMeansWrittenOrder(t *testing.T) {
	st := loadStore(t, peopleTTL)
	q, err := ParseQuery(`PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?p ex:name ?name . ?p a ex:Person . }`)
	if err != nil {
		t.Fatal(err)
	}
	joinOrder := func(e *Engine) []string {
		_, tr, err := e.QueryTracedContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var joins []string
		tr.Root.Visit(func(s *obs.Span) {
			if s.Op == "JOIN" || s.Op == "STAR" {
				joins = append(joins, s.Op+" "+s.Detail)
			}
		})
		return joins
	}

	off := NewEngine(st, WithPlanner(false))
	if off.PlannerEnabled() {
		t.Fatal("WithPlanner(false) left the planner on")
	}
	if got, want := joinOrder(off), []string{"STAR ?p name ?name type"}; !reflect.DeepEqual(got, want) {
		t.Errorf("planner off joined %v, want the written order %v", got, want)
	}
	if q.Planned {
		t.Fatal("planner-off engine marked the query as planned")
	}
	if got, want := joinOrder(NewEngine(st)), []string{"STAR ?p type Person name"}; !reflect.DeepEqual(got, want) {
		t.Errorf("planner on joined %v, want %v", got, want)
	}
}

// TestStreamSelectIsPlanned: the incremental entry point plans like
// Query does. It has no trace to show the join order, so the evidence is
// the account: starting a badly written BGP from the selective pattern
// materializes fewer rows than the written order does. The selective
// pattern has a variable predicate, so neither order joins as one star
// level and the levels' rows are what the account sees.
func TestStreamSelectIsPlanned(t *testing.T) {
	st := loadStore(t, peopleTTL)
	q, err := ParseQuery(`PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?p ex:name ?name . ?p ?r ex:Robot . }`)
	if err != nil {
		t.Fatal(err)
	}
	rowsFor := func(e *Engine) int64 {
		acct := obs.NewQueryAcct(nil, 0)
		err := e.StreamSelect(WithQueryAcct(context.Background(), acct), q,
			func([]string) error { return nil }, func([][]rdf.Term) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return acct.Rows()
	}
	on, off := rowsFor(NewEngine(st)), rowsFor(NewEngine(st, WithPlanner(false)))
	if on >= off {
		t.Errorf("StreamSelect materialized %d rows planned vs %d as written; want fewer", on, off)
	}
}

// TestUpdateWhereIsPlanned: the WHERE group of a DELETE/INSERT…WHERE is
// ordered by the same planning pass as a query's — a badly written BGP
// starts from the selective pattern with the planner on and runs as
// written with it off — and both orders apply the same update.
func TestUpdateWhereIsPlanned(t *testing.T) {
	const src = `PREFIX ex: <http://example.org/>
DELETE { ?p ex:name ?name } INSERT { ?p ex:label ?name }
WHERE { ?p ex:name ?name . ?p a ex:Person . }`
	u, err := ParseUpdate(src)
	if err != nil {
		t.Fatal(err)
	}
	written := u.Operations[0].(ModifyOp).Where

	stOn, stOff := loadStore(t, peopleTTL), loadStore(t, peopleTTL)
	on, off := NewEngine(stOn), NewEngine(stOff, WithPlanner(false))

	planned, ok := on.preparedGroup(written, stOn.Snapshot())
	if !ok {
		t.Fatal("planner-on engine did not plan the update's WHERE group")
	}
	if first := planned.Elements[0].(TriplePattern); first.O.IsVar || first.O.Term.Value != "http://example.org/Person" {
		t.Errorf("planned WHERE starts with %+v, want the ?p a ex:Person pattern", first)
	}
	if asWritten, ok := off.preparedGroup(written, stOff.Snapshot()); ok || !reflect.DeepEqual(asWritten, written) {
		t.Errorf("planner-off engine rewrote the update's WHERE group: %+v", asWritten)
	}

	for _, e := range []*Engine{on, off} {
		if err := e.Execute(u); err != nil {
			t.Fatal(err)
		}
	}
	const check = `PREFIX ex: <http://example.org/>
SELECT ?p ?l WHERE { ?p a ex:Person ; ex:label ?l FILTER NOT EXISTS { ?p ex:name ?n } } ORDER BY ?p ?l`
	resOn, err := on.QueryString(check)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := off.QueryString(check)
	if err != nil {
		t.Fatal(err)
	}
	if resOn.Len() != 3 || !reflect.DeepEqual(resOn, resOff) {
		t.Errorf("planned and written-order updates disagree:\non:  %+v\noff: %+v", resOn, resOff)
	}
}

// TestPlannedQueryReusable: a cached Plan result evaluates in the
// planned order on any engine (even planner-off) and passes through the
// planning hook untouched.
func TestPlannedQueryReusable(t *testing.T) {
	st := loadStore(t, peopleTTL)
	const src = `
PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?p ex:name ?name . ?p a ex:Person . } ORDER BY ?name`
	p := planQuery(t, st, src)
	for _, e := range []*Engine{NewEngine(st), NewEngine(st, WithPlanner(false))} {
		res, err := e.Select(p.Query)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 3 {
			t.Fatalf("planned query returned %d rows, want 3", res.Len())
		}
	}
}

// TestPlannerEquivalenceSweep: planner on and off must agree on every
// construct the planner treats specially — unions, VALUES (with UNDEF),
// MINUS, subselects, nested groups, EXISTS filters, and BOUND-sensitive
// filters.
func TestPlannerEquivalenceSweep(t *testing.T) {
	st := loadStore(t, peopleTTL)
	queries := []string{
		`PREFIX ex: <http://example.org/> SELECT ?t ?n WHERE { { ?p a ex:Person . ?p ex:name ?n . ?p a ?t } UNION { ?p a ex:Robot . ?p ex:name ?n . ?p a ?t } FILTER (?n != "Dave") } ORDER BY ?n`,
		`PREFIX ex: <http://example.org/> SELECT ?p ?c WHERE { VALUES ?c { ex:paris ex:lyon } ?p ex:city ?c . FILTER (?c != ex:lyon) } ORDER BY ?p`,
		`PREFIX ex: <http://example.org/> SELECT ?p WHERE { ?p a ex:Person . MINUS { ?p ex:city ex:lyon } } ORDER BY ?p`,
		`PREFIX ex: <http://example.org/> SELECT ?p ?n WHERE { { SELECT ?p WHERE { ?p a ex:Person } } ?p ex:name ?n . FILTER (?n > "A") } ORDER BY ?n`,
		`PREFIX ex: <http://example.org/> SELECT ?p WHERE { ?p a ex:Person . FILTER EXISTS { ?p ex:knows ?q } } ORDER BY ?p`,
		`PREFIX ex: <http://example.org/> SELECT ?p ?lbl WHERE { ?p ex:city ?c . { ?c ex:label ?lbl . FILTER (?lbl != "Lyon") } } ORDER BY ?p`,
		`PREFIX ex: <http://example.org/> SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p ex:city ?c . ?p ex:name ?m . FILTER (?m != "Bob") } GROUP BY ?c ORDER BY ?c`,
		`PREFIX ex: <http://example.org/> SELECT DISTINCT ?country WHERE { ?p ex:city ?c . ?c ex:inCountry ?country . FILTER (?p != ex:dave) }`,
	}
	for _, q := range queries {
		assertSameResults(t, st, q)
	}
}
