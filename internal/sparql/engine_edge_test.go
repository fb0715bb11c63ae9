package sparql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
	"repro/internal/store"
)

func TestNestedOptional(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:p ex:b .
ex:b ex:q ex:c .
ex:c ex:r "deep" .
ex:x ex:p ex:y .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s ?deep WHERE {
  ?s ex:p ?m
  OPTIONAL { ?m ex:q ?n OPTIONAL { ?n ex:r ?deep } }
} ORDER BY ?s`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	if res.Binding(0, "deep").Value != "deep" {
		t.Errorf("a's chain should bind deep: %v", res.Rows[0])
	}
	if !res.Binding(1, "deep").IsZero() {
		t.Errorf("x's chain should leave deep unbound")
	}
}

func TestFilterInsideOptionalScope(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:v 5 .
ex:b ex:v 50 .`)
	// The filter applies inside the OPTIONAL: rows failing it keep the
	// left side with the optional part unbound.
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s ?v WHERE {
  ?s ex:v ?any
  OPTIONAL { ?s ex:v ?v FILTER(?v > 10) }
} ORDER BY ?s`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	if !res.Binding(0, "v").IsZero() {
		t.Errorf("a should have unbound v, got %v", res.Binding(0, "v"))
	}
	if res.Binding(1, "v").Value != "50" {
		t.Errorf("b should bind 50, got %v", res.Binding(1, "v"))
	}
}

func TestUnionPreservesBindings(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:t ex:L . ex:a ex:p "left" .
ex:b ex:t ex:R . ex:b ex:q "right" .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s ?val WHERE {
  ?s ex:t ?klass
  { ?s ex:p ?val } UNION { ?s ex:q ?val }
} ORDER BY ?s`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	if res.Binding(0, "val").Value != "left" || res.Binding(1, "val").Value != "right" {
		t.Fatalf("union values wrong: %v", res.Rows)
	}
}

func TestSubqueryLimitIsolation(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:v 1 . ex:b ex:v 2 . ex:c ex:v 3 .`)
	// The subquery's LIMIT applies inside, before the outer join.
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s ?v WHERE {
  { SELECT ?s WHERE { ?s ex:v ?x } ORDER BY ?s LIMIT 2 }
  ?s ex:v ?v
} ORDER BY ?s`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestConstructSkipsPartialBindings(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:name "A" .
ex:b ex:name "B" ; ex:home ex:paris .`)
	e := NewEngine(st)
	q, err := ParseQuery(`
PREFIX ex: <http://example.org/>
CONSTRUCT { ?s ex:livesIn ?h } WHERE { ?s ex:name ?n OPTIONAL { ?s ex:home ?h } }`)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := e.Construct(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 {
		t.Fatalf("triples = %d, want 1 (unbound ?h must be skipped)", len(ts))
	}
}

func TestAggregateEdgeCases(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:name "zeta" ; ex:v 1 .
ex:b ex:name "alpha" ; ex:v 2 .`)

	// MIN/MAX over strings order lexically.
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT (MIN(?n) AS ?lo) (MAX(?n) AS ?hi) WHERE { ?s ex:name ?n }`)
	if res.Binding(0, "lo").Value != "alpha" || res.Binding(0, "hi").Value != "zeta" {
		t.Fatalf("string min/max: %v", res.Rows)
	}

	// SUM over a non-numeric leaves the cell unbound (expression error).
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT (SUM(?n) AS ?s) WHERE { ?x ex:name ?n }`)
	if !res.Binding(0, "s").IsZero() {
		t.Fatalf("SUM over strings must be unbound, got %v", res.Binding(0, "s"))
	}

	// AVG stays integer when exact, decimal otherwise.
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT (AVG(?v) AS ?a) WHERE { ?s ex:v ?v }`)
	if got := res.Binding(0, "a").Value; got != "1.5" {
		t.Fatalf("AVG = %s", got)
	}
}

func TestOrderByUnboundSortsFirst(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:p "x" .
ex:b ex:p "y" ; ex:opt 1 .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s ?o WHERE { ?s ex:p ?p OPTIONAL { ?s ex:opt ?o } } ORDER BY ?o ?s`)
	if !res.Binding(0, "o").IsZero() {
		t.Fatalf("unbound must sort first: %v", res.Rows)
	}
}

func TestValuesUndefJoinsEverything(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:v 1 . ex:b ex:v 2 .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s ?tag WHERE {
  ?s ex:v ?v
  VALUES (?s ?tag) { (ex:a "first") (UNDEF "any") }
} ORDER BY ?s ?tag`)
	// ex:a matches both rows; ex:b matches only the UNDEF row.
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3: %v", res.Len(), res.Rows)
	}
}

func TestSameVariableTwiceInPattern(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:knows ex:a .
ex:b ex:knows ex:c .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE { ?x ex:knows ?x }`)
	if res.Len() != 1 || !strings.HasSuffix(res.Binding(0, "x").Value, "a") {
		t.Fatalf("self-loop match: %v", res.Rows)
	}
}

func TestLangFunctions(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:label "Haus"@de .
ex:b ex:label "house"@en .
ex:c ex:label "casa" .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:label ?l FILTER(LANGMATCHES(LANG(?l), "en")) }`)
	if res.Len() != 1 {
		t.Fatalf("langmatches rows = %d", res.Len())
	}
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:label ?l FILTER(LANG(?l) = "") }`)
	if res.Len() != 1 {
		t.Fatalf("plain-literal rows = %d", res.Len())
	}
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:label ?l FILTER(LANGMATCHES(LANG(?l), "*")) }`)
	if res.Len() != 2 {
		t.Fatalf("lang * rows = %d", res.Len())
	}
}

func TestStrdtStrlangSameterm(t *testing.T) {
	st := loadStore(t, `@prefix ex: <http://example.org/> . ex:a ex:v "5" .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT (STRDT(?v, xsd:integer) AS ?typed) (STRLANG(?v, "en") AS ?tagged) (SAMETERM(?v, "5") AS ?same)
WHERE { ex:a ex:v ?v }`)
	if res.Binding(0, "typed") != rdf.NewTypedLiteral("5", rdf.XSDInteger) {
		t.Errorf("STRDT = %v", res.Binding(0, "typed"))
	}
	if res.Binding(0, "tagged") != rdf.NewLangLiteral("5", "en") {
		t.Errorf("STRLANG = %v", res.Binding(0, "tagged"))
	}
	if res.Binding(0, "same") != rdf.NewBoolean(true) {
		t.Errorf("SAMETERM = %v", res.Binding(0, "same"))
	}
}

func TestReplaceFunction(t *testing.T) {
	st := loadStore(t, `@prefix ex: <http://example.org/> . ex:a ex:v "2014M03" .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT (REPLACE(?v, "M", "-") AS ?r) WHERE { ex:a ex:v ?v }`)
	if res.Binding(0, "r").Value != "2014-03" {
		t.Fatalf("REPLACE = %v", res.Binding(0, "r"))
	}
}

// TestExpressionArithmeticProperties checks numeric evaluation against
// Go arithmetic on random inputs via testing/quick.
func TestExpressionArithmeticProperties(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	r := &run{e: e, vt: newVarTable(), snap: st.Snapshot()}
	empty := make(solution, 0)

	f := func(a, b int16) bool {
		ea := ExprConst{rdf.NewInteger(int64(a))}
		eb := ExprConst{rdf.NewInteger(int64(b))}
		sum, err := r.evalExpr(ExprBinary{Op: OpAdd, L: ea, R: eb}, empty)
		if err != nil {
			return false
		}
		if sum != rdf.NewInteger(int64(a)+int64(b)) {
			return false
		}
		prod, err := r.evalExpr(ExprBinary{Op: OpMul, L: ea, R: eb}, empty)
		if err != nil {
			return false
		}
		if prod != rdf.NewInteger(int64(a)*int64(b)) {
			return false
		}
		// Comparison agrees with Go.
		lt, err := r.evalExpr(ExprBinary{Op: OpLt, L: ea, R: eb}, empty)
		if err != nil {
			return false
		}
		return lt == rdf.NewBoolean(a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRandomBGPAgainstOracle cross-checks multi-pattern joins against a
// naive in-memory evaluation on random data.
func TestRandomBGPAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	type edge struct{ s, o int }
	for trial := 0; trial < 25; trial++ {
		// Random graph over 8 nodes with two predicates.
		st := store.New()
		var pEdges, qEdges []edge
		node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://n/%d", i)) }
		p := rdf.NewIRI("http://x/p")
		qp := rdf.NewIRI("http://x/q")
		for i := 0; i < 12; i++ {
			e := edge{rng.Intn(8), rng.Intn(8)}
			pEdges = append(pEdges, e)
			st.Insert(rdf.NewQuad(node(e.s), p, node(e.o), rdf.Term{}))
			e2 := edge{rng.Intn(8), rng.Intn(8)}
			qEdges = append(qEdges, e2)
			st.Insert(rdf.NewQuad(node(e2.s), qp, node(e2.o), rdf.Term{}))
		}
		// Count join results ?a p ?b . ?b q ?c by brute force.
		want := 0
		seen := map[edge]bool{}
		var pUniq []edge
		for _, e := range pEdges {
			if !seen[e] {
				seen[e] = true
				pUniq = append(pUniq, e)
			}
		}
		seen = map[edge]bool{}
		var qUniq []edge
		for _, e := range qEdges {
			if !seen[e] {
				seen[e] = true
				qUniq = append(qUniq, e)
			}
		}
		for _, e1 := range pUniq {
			for _, e2 := range qUniq {
				if e1.o == e2.s {
					want++
				}
			}
		}
		res, err := NewEngine(st).QueryString(`
SELECT ?a ?b ?c WHERE { ?a <http://x/p> ?b . ?b <http://x/q> ?c }`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != want {
			t.Fatalf("trial %d: join rows = %d, oracle = %d", trial, res.Len(), want)
		}
	}
}

func TestDistinctAfterProjection(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:city ex:paris ; ex:year 2013 .
ex:b ex:city ex:paris ; ex:year 2014 .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?c WHERE { ?s ex:city ?c ; ex:year ?y }`)
	if res.Len() != 1 {
		t.Fatalf("distinct projected rows = %d", res.Len())
	}
}

func TestGraphPatternRespectsBoundVariable(t *testing.T) {
	st := store.New()
	g1, g2 := rdf.NewIRI("http://g/1"), rdf.NewIRI("http://g/2")
	s, p := rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p")
	st.Insert(rdf.NewQuad(s, p, rdf.NewLiteral("one"), g1))
	st.Insert(rdf.NewQuad(s, p, rdf.NewLiteral("two"), g2))
	res, err := NewEngine(st).QueryString(`
SELECT ?o WHERE {
  VALUES ?g { <http://g/2> }
  GRAPH ?g { ?s ?p ?o }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Binding(0, "o").Value != "two" {
		t.Fatalf("bound graph var: %v", res.Rows)
	}
}

func TestMinusNoSharedVariablesKeepsAll(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:p 1 . ex:z ex:q 2 .`)
	// MINUS with disjoint domains removes nothing (SPARQL semantics).
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:p ?v MINUS { ?x ex:q ?w } }`)
	if res.Len() != 1 {
		t.Fatalf("MINUS with disjoint vars removed rows: %d", res.Len())
	}
}

func TestAskOnEmptyStore(t *testing.T) {
	e := NewEngine(store.New())
	q, _ := ParseQuery(`ASK { ?s ?p ?o }`)
	ok, err := e.Ask(q)
	if err != nil || ok {
		t.Fatalf("ASK on empty store = %v, %v", ok, err)
	}
}

func TestQueryStringErrorPropagation(t *testing.T) {
	e := NewEngine(store.New())
	if _, err := e.QueryString("NOT SPARQL"); err == nil {
		t.Fatal("parse error must propagate")
	}
	q, _ := ParseQuery(`CONSTRUCT { <http://a> <http://b> <http://c> } WHERE {}`)
	if _, err := e.Query(q); err == nil {
		t.Fatal("Query must reject CONSTRUCT")
	}
	if _, err := e.Select(q); err == nil {
		t.Fatal("Select must reject CONSTRUCT")
	}
	sq, _ := ParseQuery(`SELECT ?s WHERE { ?s ?p ?o }`)
	if _, err := e.Construct(sq); err == nil {
		t.Fatal("Construct must reject SELECT")
	}
}

func TestDescribe(t *testing.T) {
	st := loadStore(t, peopleTTL)
	e := NewEngine(st)

	// Direct IRI target: subject and object triples.
	q, err := ParseQuery(`PREFIX ex: <http://example.org/> DESCRIBE ex:paris`)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := e.Describe(q)
	if err != nil {
		t.Fatal(err)
	}
	// paris: 2 subject triples (label, inCountry) + 2 object triples
	// (alice/carol ex:city paris).
	if len(ts) != 4 {
		t.Fatalf("describe paris = %d triples: %v", len(ts), ts)
	}

	// Variable target with WHERE.
	q, err = ParseQuery(`
PREFIX ex: <http://example.org/>
DESCRIBE ?c WHERE { ?p ex:name "Bob" ; ex:city ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	ts, err = e.Describe(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range ts {
		if tr.O.Value == "Lyon" {
			found = true
		}
	}
	if !found {
		t.Fatalf("describe of Bob's city missing Lyon label: %v", ts)
	}

	// Form checks.
	if _, err := e.Describe(&Query{Form: FormSelect}); err == nil {
		t.Error("Describe must reject SELECT")
	}
	if _, err := ParseQuery(`DESCRIBE`); err == nil {
		t.Error("empty DESCRIBE must fail")
	}
}
