package sparql

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

// loadStore builds a store from Turtle source (default graph).
func loadStore(t *testing.T, src string) *store.Store {
	t.Helper()
	triples, _, err := turtle.Parse(src)
	if err != nil {
		t.Fatalf("turtle: %v", err)
	}
	st := store.New()
	st.InsertTriples(rdf.Term{}, triples)
	return st
}

const peopleTTL = `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:alice a ex:Person ; ex:name "Alice" ; ex:age 30 ; ex:knows ex:bob ; ex:city ex:paris .
ex:bob   a ex:Person ; ex:name "Bob"   ; ex:age 25 ; ex:knows ex:carol ; ex:city ex:lyon .
ex:carol a ex:Person ; ex:name "Carol" ; ex:age 35 ; ex:city ex:paris .
ex:dave  a ex:Robot  ; ex:name "Dave" .
ex:paris ex:label "Paris" ; ex:inCountry ex:france .
ex:lyon  ex:label "Lyon"  ; ex:inCountry ex:france .
ex:france ex:label "France" ; ex:inContinent ex:europe .
ex:europe ex:label "Europe" .
`

func sel(t *testing.T, st *store.Store, q string) *Results {
	t.Helper()
	res, err := NewEngine(st).QueryString(q)
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, q)
	}
	return res
}

func TestSelectBasic(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?p a ex:Person ; ex:name ?name } ORDER BY ?name`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Len())
	}
	names := []string{}
	for i := range res.Rows {
		names = append(names, res.Binding(i, "name").Value)
	}
	if strings.Join(names, ",") != "Alice,Bob,Carol" {
		t.Fatalf("names = %v", names)
	}
}

func TestSelectStar(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT * WHERE { ?p ex:knows ?q }`)
	if res.Len() != 2 || len(res.Vars) != 2 {
		t.Fatalf("rows=%d vars=%v", res.Len(), res.Vars)
	}
}

func TestFilterComparisons(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?p ex:name ?name ; ex:age ?a FILTER(?a > 26 && ?a <= 35) } ORDER BY ?name`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (Alice, Carol)", res.Len())
	}
}

func TestFilterStringFunctions(t *testing.T) {
	st := loadStore(t, peopleTTL)
	cases := []struct {
		filter string
		want   int
	}{
		{`FILTER(STRSTARTS(?name, "A"))`, 1},
		{`FILTER(CONTAINS(?name, "o"))`, 2}, // Bob, Carol
		{`FILTER(STRENDS(?name, "e"))`, 1},  // Alice
		{`FILTER(REGEX(?name, "^[AB]"))`, 2},
		{`FILTER(STRLEN(?name) = 3)`, 1}, // Bob
		{`FILTER(UCASE(?name) = "ALICE")`, 1},
		{`FILTER(LCASE(?name) = "carol")`, 1},
		{`FILTER(SUBSTR(?name, 1, 2) = "Bo")`, 1},
		{`FILTER(?name IN ("Alice", "Bob"))`, 2},
		{`FILTER(?name NOT IN ("Alice", "Bob", "Carol"))`, 0},
	}
	for _, c := range cases {
		q := `PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?p a ex:Person ; ex:name ?name ` + c.filter + ` }`
		if got := sel(t, st, q).Len(); got != c.want {
			t.Errorf("%s: rows = %d, want %d", c.filter, got, c.want)
		}
	}
}

func TestOptional(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?name ?friend WHERE {
  ?p a ex:Person ; ex:name ?name
  OPTIONAL { ?p ex:knows ?friend }
} ORDER BY ?name`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Len())
	}
	// Carol knows nobody: friend unbound.
	if !res.Binding(2, "friend").IsZero() {
		t.Errorf("carol's friend should be unbound, got %v", res.Binding(2, "friend"))
	}
	if res.Binding(0, "friend").IsZero() {
		t.Errorf("alice's friend should be bound")
	}
}

func TestOptionalWithBound(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?name ?label WHERE {
  ?p ex:name ?name ; ex:city ?c
  OPTIONAL { ?c ex:label ?label }
} ORDER BY ?name`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	if res.Binding(0, "label").Value != "Paris" {
		t.Errorf("alice label = %v", res.Binding(0, "label"))
	}
}

func TestUnion(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE {
  { ?x a ex:Person } UNION { ?x a ex:Robot }
}`)
	if res.Len() != 4 {
		t.Fatalf("rows = %d, want 4", res.Len())
	}
}

func TestBind(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?name ?dbl WHERE {
  ?p ex:name ?name ; ex:age ?a
  BIND(?a * 2 AS ?dbl)
  FILTER(?dbl = 50)
}`)
	if res.Len() != 1 || res.Binding(0, "name").Value != "Bob" {
		t.Fatalf("rows=%d", res.Len())
	}
}

func TestValuesJoin(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?name WHERE {
  VALUES ?name { "Alice" "Carol" "Zed" }
  ?p ex:name ?name
} ORDER BY ?name`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestValuesMultiColumn(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?name ?a WHERE {
  VALUES (?name ?a) { ("Alice" 30) ("Bob" 99) ("Carol" UNDEF) }
  ?p ex:name ?name ; ex:age ?a
} ORDER BY ?name`)
	// Alice matches (30), Bob mismatches (99 vs 25), Carol matches any.
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestGroupByAggregates(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?city (COUNT(?p) AS ?n) (SUM(?a) AS ?total) (AVG(?a) AS ?avg) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi)
WHERE { ?p ex:city ?city ; ex:age ?a }
GROUP BY ?city ORDER BY DESC(?n)`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
	// paris: alice(30) + carol(35)
	if res.Binding(0, "n").Value != "2" || res.Binding(0, "total").Value != "65" {
		t.Fatalf("paris row wrong: %v", res.Rows[0])
	}
	if res.Binding(0, "lo").Value != "30" || res.Binding(0, "hi").Value != "35" {
		t.Fatalf("min/max wrong: %v", res.Rows[0])
	}
	if res.Binding(1, "n").Value != "1" {
		t.Fatalf("lyon row wrong: %v", res.Rows[1])
	}
}

func TestCountStarAndDistinct(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT (COUNT(*) AS ?n) (COUNT(DISTINCT ?city) AS ?cities)
WHERE { ?p ex:city ?city }`)
	if res.Binding(0, "n").Value != "3" {
		t.Fatalf("count(*) = %v", res.Binding(0, "n"))
	}
	if res.Binding(0, "cities").Value != "2" {
		t.Fatalf("count(distinct) = %v", res.Binding(0, "cities"))
	}
}

// TestCountDistinctStar pins COUNT(DISTINCT *): it de-duplicates whole
// solutions (it used to de-duplicate one placeholder per row and answer
// 1), and COUNT(*) counts rows without building anything per row.
func TestCountDistinctStar(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:p 1 . ex:a ex:p 2 . ex:b ex:p 1 .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT (COUNT(DISTINCT *) AS ?d) (COUNT(*) AS ?n) WHERE { ?s ex:p ?o }`)
	if d, n := res.Binding(0, "d").Value, res.Binding(0, "n").Value; d != "3" || n != "3" {
		t.Fatalf("three distinct solutions: COUNT(DISTINCT *) = %s, COUNT(*) = %s", d, n)
	}
	// The UNION yields every solution twice; per ?s group a has two
	// distinct solutions among four rows, b one among two.
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s (COUNT(DISTINCT *) AS ?d) (COUNT(*) AS ?n)
WHERE { { ?s ex:p ?o } UNION { ?s ex:p ?o } } GROUP BY ?s ORDER BY ?s`)
	if res.Len() != 2 {
		t.Fatalf("groups = %d", res.Len())
	}
	for i, want := range [][2]string{{"2", "4"}, {"1", "2"}} {
		if d, n := res.Binding(i, "d").Value, res.Binding(i, "n").Value; d != want[0] || n != want[1] {
			t.Errorf("group %d: COUNT(DISTINCT *) = %s, COUNT(*) = %s, want %v", i, d, n, want)
		}
	}

	rows := make([]solution, 10000)
	for i := range rows {
		rows[i] = solution{rdf.NewInteger(int64(i))}
	}
	r := &run{vt: newVarTable()}
	q := &Query{Projection: []SelectItem{{Var: "n", Expr: ExprAggregate{Func: "COUNT", Star: true}}}}
	f := r.newGroupFold(q)
	f.add(rows[:1]) // opens the one group
	allocs := testing.AllocsPerRun(10, func() { f.add(rows) })
	if allocs > 0 {
		t.Errorf("folding 10000 rows into COUNT(*) allocates %.0f times, want none", allocs)
	}
	if out, ok := f.finish(f.list[0]); !ok || out[0].Value != "110001" {
		t.Fatalf("COUNT(*) = %v", out)
	}
}

func TestImplicitGroupOnEmpty(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT (COUNT(*) AS ?n) WHERE { ?p a ex:Unicorn }`)
	if res.Len() != 1 || res.Binding(0, "n").Value != "0" {
		t.Fatalf("empty count = %v (%d rows)", res.Rows, res.Len())
	}
}

func TestHaving(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?city (COUNT(?p) AS ?n) WHERE { ?p ex:city ?city }
GROUP BY ?city HAVING (COUNT(?p) > 1)`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	if !strings.HasSuffix(res.Binding(0, "city").Value, "paris") {
		t.Fatalf("city = %v", res.Binding(0, "city"))
	}
}

// TestOrderByOnGroupedQuery pins ORDER BY keys of a grouped query that
// are not projected variables: an aggregate of its own, a GROUP BY
// variable left out of the projection, and an expression over a
// projected alias. Each must be evaluated per group; a key that is
// ignored leaves the groups in first-occurrence order (b, c, a here).
func TestOrderByOnGroupedQuery(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:i1 ex:g ex:b ; ex:v 5 .
ex:i2 ex:g ex:c ; ex:v 1 .
ex:i3 ex:g ex:a ; ex:v 2 .
ex:i4 ex:g ex:c ; ex:v 9 .
ex:i5 ex:g ex:a ; ex:v 1 .`)
	const where = `WHERE { ?i <http://example.org/g> ?g ; <http://example.org/v> ?v } GROUP BY ?g `
	for _, tc := range []struct{ query, col, want string }{
		{`SELECT ?g ` + where + `ORDER BY DESC(SUM(?v))`, "g", "c b a"},
		{`SELECT ?g ` + where + `ORDER BY (SUM(?v))`, "g", "a b c"},
		{`SELECT (SUM(?v) AS ?s) ` + where + `ORDER BY DESC(?g)`, "s", "10 5 3"},
		{`SELECT (SUM(?v) AS ?s) ` + where + `ORDER BY ?g`, "s", "3 5 10"},
		{`SELECT ?g (SUM(?v) AS ?s) ` + where + `ORDER BY (0 - ?s)`, "g", "c b a"},
		{`SELECT ?g (COUNT(?v) AS ?n) ` + where + `ORDER BY DESC(?n) (MAX(?v))`, "g", "a c b"},
	} {
		res := sel(t, st, tc.query)
		var got []string
		for i := 0; i < res.Len(); i++ {
			v := res.Binding(i, tc.col).Value
			got = append(got, v[strings.LastIndex(v, "/")+1:])
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("%s\n?%s = %v, want %s", tc.query, tc.col, got, tc.want)
		}
	}
}

func TestGroupConcatAndSample(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT (GROUP_CONCAT(?name ; SEPARATOR=", ") AS ?all) (SAMPLE(?name) AS ?one)
WHERE { ?p a ex:Person ; ex:name ?name } ORDER BY ?name`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	all := res.Binding(0, "all").Value
	for _, n := range []string{"Alice", "Bob", "Carol"} {
		if !strings.Contains(all, n) {
			t.Errorf("GROUP_CONCAT missing %s: %q", n, all)
		}
	}
	if res.Binding(0, "one").IsZero() {
		t.Error("SAMPLE unbound")
	}
}

func TestDistinctLimitOffset(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?city WHERE { ?p ex:city ?city } ORDER BY ?city`)
	if res.Len() != 2 {
		t.Fatalf("distinct rows = %d", res.Len())
	}
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?p ex:name ?name } ORDER BY ?name LIMIT 2 OFFSET 1`)
	if res.Len() != 2 || res.Binding(0, "name").Value != "Bob" {
		t.Fatalf("limit/offset wrong: %v", res.Rows)
	}
}

func TestAsk(t *testing.T) {
	st := loadStore(t, peopleTTL)
	e := NewEngine(st)
	q, err := ParseQuery(`PREFIX ex: <http://example.org/> ASK { ex:alice ex:knows ex:bob }`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := e.Ask(q)
	if err != nil || !ok {
		t.Fatalf("ASK = %v, %v", ok, err)
	}
	q, _ = ParseQuery(`PREFIX ex: <http://example.org/> ASK { ex:bob ex:knows ex:alice }`)
	ok, _ = e.Ask(q)
	if ok {
		t.Fatal("ASK should be false")
	}
}

func TestConstruct(t *testing.T) {
	st := loadStore(t, peopleTTL)
	e := NewEngine(st)
	q, err := ParseQuery(`
PREFIX ex: <http://example.org/>
CONSTRUCT { ?p ex:livesIn ?country } WHERE { ?p ex:city ?c . ?c ex:inCountry ?country }`)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := e.Construct(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("constructed %d triples, want 3", len(ts))
	}
}

func TestSubquery(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?name ?n WHERE {
  ?p ex:name ?name ; ex:city ?city
  { SELECT ?city (COUNT(?q) AS ?n) WHERE { ?q ex:city ?city } GROUP BY ?city }
} ORDER BY ?name`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	if res.Binding(0, "n").Value != "2" { // Alice in paris
		t.Fatalf("alice city count = %v", res.Binding(0, "n"))
	}
	if res.Binding(1, "n").Value != "1" { // Bob in lyon
		t.Fatalf("bob city count = %v", res.Binding(1, "n"))
	}
}

func TestMinusAndNotExists(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?p WHERE { ?p a ex:Person MINUS { ?p ex:knows ?x } }`)
	if res.Len() != 1 || !strings.HasSuffix(res.Binding(0, "p").Value, "carol") {
		t.Fatalf("MINUS result: %v", res.Rows)
	}
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?p WHERE { ?p a ex:Person FILTER NOT EXISTS { ?p ex:knows ?x } }`)
	if res.Len() != 1 || !strings.HasSuffix(res.Binding(0, "p").Value, "carol") {
		t.Fatalf("NOT EXISTS result: %v", res.Rows)
	}
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?p WHERE { ?p a ex:Person FILTER EXISTS { ?p ex:knows ?x } }`)
	if res.Len() != 2 {
		t.Fatalf("EXISTS rows = %d", res.Len())
	}
}

func TestPropertyPaths(t *testing.T) {
	st := loadStore(t, peopleTTL)
	// sequence
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?p WHERE { ?p ex:city/ex:inCountry ex:france }`)
	if res.Len() != 3 {
		t.Fatalf("sequence path rows = %d", res.Len())
	}
	// inverse
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?c WHERE { ex:france ^ex:inCountry ?c } ORDER BY ?c`)
	if res.Len() != 2 {
		t.Fatalf("inverse path rows = %d", res.Len())
	}
	// alternative
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE { ex:paris (ex:inCountry|ex:label) ?x }`)
	if res.Len() != 2 {
		t.Fatalf("alternative path rows = %d", res.Len())
	}
	// one-or-more closure: knows+
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE { ex:alice ex:knows+ ?x } ORDER BY ?x`)
	if res.Len() != 2 {
		t.Fatalf("knows+ rows = %d: %v", res.Len(), res.Rows)
	}
	// zero-or-more includes the start node
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE { ex:alice ex:knows* ?x }`)
	if res.Len() != 3 {
		t.Fatalf("knows* rows = %d", res.Len())
	}
	// long sequence through hierarchy
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?p WHERE { ?p ex:city/ex:inCountry/ex:inContinent ex:europe }`)
	if res.Len() != 3 {
		t.Fatalf("deep sequence rows = %d", res.Len())
	}
}

func TestNamedGraphs(t *testing.T) {
	st := store.New()
	g := rdf.NewIRI("http://example.org/g1")
	st.Insert(rdf.NewQuad(rdf.NewIRI("http://example.org/s"), rdf.NewIRI("http://example.org/p"), rdf.NewLiteral("in-named"), g))
	st.Insert(rdf.NewQuad(rdf.NewIRI("http://example.org/s"), rdf.NewIRI("http://example.org/p"), rdf.NewLiteral("in-default"), rdf.Term{}))

	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?o WHERE { ex:s ex:p ?o }`)
	if res.Len() != 1 || res.Binding(0, "o").Value != "in-default" {
		t.Fatalf("default graph query: %v", res.Rows)
	}
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?o WHERE { GRAPH ex:g1 { ex:s ex:p ?o } }`)
	if res.Len() != 1 || res.Binding(0, "o").Value != "in-named" {
		t.Fatalf("named graph query: %v", res.Rows)
	}
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?g ?o WHERE { GRAPH ?g { ?s ex:p ?o } }`)
	if res.Len() != 1 || res.Binding(0, "g").Value != "http://example.org/g1" {
		t.Fatalf("graph variable query: %v", res.Rows)
	}
}

func TestExpressionFunctions(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:o ex:date "2014-03-15"^^xsd:date ; ex:month "2014-03"^^xsd:gYearMonth ; ex:tag "hello"@en ; ex:num 2.5 .`)
	cases := []struct {
		expr string
		want string
	}{
		{`YEAR(?date)`, "2014"},
		{`MONTH(?date)`, "3"},
		{`DAY(?date)`, "15"},
		{`YEAR(?month)`, "2014"},
		{`STR(?num)`, "2.5"},
		{`LANG(?tag)`, "en"},
		{`STRLEN(?tag)`, "5"},
		{`ABS(-3)`, "3"},
		{`CEIL(?num)`, "3"},
		{`FLOOR(?num)`, "2"},
		{`ROUND(?num)`, "3"},
		{`CONCAT("a", "b", STR(5))`, "ab5"},
		{`IF(?num > 2, "big", "small")`, "big"},
		{`COALESCE(?nothere, "fallback")`, "fallback"},
	}
	for _, c := range cases {
		q := `PREFIX ex: <http://example.org/>
SELECT (` + c.expr + ` AS ?v) WHERE { ex:o ex:date ?date ; ex:month ?month ; ex:tag ?tag ; ex:num ?num }`
		res := sel(t, st, q)
		if res.Len() != 1 {
			t.Errorf("%s: no rows", c.expr)
			continue
		}
		if got := res.Binding(0, "v").Value; got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestTypePredicates(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?o WHERE { ex:alice ex:name ?o FILTER(ISLITERAL(?o) && !ISIRI(?o) && !ISBLANK(?o) && BOUND(?o)) }`)
	if res.Len() != 1 {
		t.Fatalf("type predicates failed: %d rows", res.Len())
	}
	res = sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?o WHERE { ex:alice ex:age ?o FILTER(ISNUMERIC(?o) && DATATYPE(?o) = <http://www.w3.org/2001/XMLSchema#integer>) }`)
	if res.Len() != 1 {
		t.Fatalf("numeric predicates failed: %d rows", res.Len())
	}
}

func TestUpdateInsertDeleteData(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	err := e.ExecuteString(`
PREFIX ex: <http://example.org/>
INSERT DATA {
  ex:s ex:p "v1" .
  ex:s ex:p "v2" .
  GRAPH ex:g { ex:s ex:p "v3" }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len(rdf.Term{}) != 2 || st.Len(rdf.NewIRI("http://example.org/g")) != 1 {
		t.Fatalf("insert data: default=%d named=%d", st.Len(rdf.Term{}), st.Len(rdf.NewIRI("http://example.org/g")))
	}
	err = e.ExecuteString(`
PREFIX ex: <http://example.org/>
DELETE DATA { ex:s ex:p "v1" }`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len(rdf.Term{}) != 1 {
		t.Fatalf("delete data left %d", st.Len(rdf.Term{}))
	}
}

func TestUpdateModify(t *testing.T) {
	st := loadStore(t, peopleTTL)
	e := NewEngine(st)
	err := e.ExecuteString(`
PREFIX ex: <http://example.org/>
DELETE { ?p ex:age ?a } INSERT { ?p ex:age 99 } WHERE { ?p ex:age ?a FILTER(?a > 28) }`)
	if err != nil {
		t.Fatal(err)
	}
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?p WHERE { ?p ex:age 99 }`)
	if res.Len() != 2 {
		t.Fatalf("modified rows = %d, want 2", res.Len())
	}
}

func TestUpdateDeleteWhere(t *testing.T) {
	st := loadStore(t, peopleTTL)
	e := NewEngine(st)
	if err := e.ExecuteString(`
PREFIX ex: <http://example.org/>
DELETE WHERE { ?p ex:knows ?q }`); err != nil {
		t.Fatal(err)
	}
	res := sel(t, st, `PREFIX ex: <http://example.org/> SELECT ?p WHERE { ?p ex:knows ?q }`)
	if res.Len() != 0 {
		t.Fatalf("knows triples remain: %d", res.Len())
	}
}

func TestUpdateClear(t *testing.T) {
	st := loadStore(t, peopleTTL)
	e := NewEngine(st)
	if err := e.ExecuteString(`CLEAR DEFAULT`); err != nil {
		t.Fatal(err)
	}
	if st.Len(rdf.Term{}) != 0 {
		t.Fatalf("CLEAR DEFAULT left %d triples", st.Len(rdf.Term{}))
	}

	// CLEAR GRAPH empties one named graph (also when its triples are
	// still unpublished) and nothing else; CLEAR ALL empties everything;
	// an insert in the same request after a CLEAR survives it.
	g1, g2 := rdf.NewIRI("http://example.org/g1"), rdf.NewIRI("http://example.org/g2")
	if err := e.ExecuteString(`
PREFIX ex: <http://example.org/>
INSERT DATA { ex:a ex:p 1 . GRAPH ex:g1 { ex:a ex:p 1 . ex:a ex:p 2 } GRAPH ex:g2 { ex:b ex:p 3 } } ;
CLEAR GRAPH ex:g1 ;
CLEAR GRAPH ex:unknown`); err != nil {
		t.Fatal(err)
	}
	if a, b, c := st.Len(rdf.Term{}), st.Len(g1), st.Len(g2); a != 1 || b != 0 || c != 1 {
		t.Fatalf("after CLEAR GRAPH g1: default=%d g1=%d g2=%d, want 1 0 1", a, b, c)
	}
	if err := e.ExecuteString(`
PREFIX ex: <http://example.org/>
INSERT DATA { GRAPH ex:g1 { ex:a ex:p 4 } } ; CLEAR ALL ; INSERT DATA { GRAPH ex:g2 { ex:b ex:p 5 } }`); err != nil {
		t.Fatal(err)
	}
	if n, c := st.TotalLen(), st.Len(g2); n != 1 || c != 1 {
		t.Fatalf("after CLEAR ALL and one insert: total=%d g2=%d, want 1 1", n, c)
	}
}

func TestResultsJSONRoundTrip(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?name ?age WHERE { ?p ex:name ?name OPTIONAL { ?p ex:age ?age } } ORDER BY ?name`)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ResultsFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != res.Len() || len(back.Vars) != len(res.Vars) {
		t.Fatalf("round trip changed shape")
	}
	for i := range res.Rows {
		for j := range res.Vars {
			if res.Rows[i][j] != back.Rows[i][j] {
				t.Errorf("cell (%d,%d): %v != %v", i, j, res.Rows[i][j], back.Rows[i][j])
			}
		}
	}
}

func TestResultsCSVTSV(t *testing.T) {
	st := loadStore(t, peopleTTL)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ex:alice ex:name ?name }`)
	csv := res.EncodeCSV()
	if !strings.HasPrefix(csv, "name\r\n") || !strings.Contains(csv, "Alice") {
		t.Errorf("CSV = %q", csv)
	}
	tsv := res.EncodeTSV()
	if !strings.HasPrefix(tsv, "?name\n") || !strings.Contains(tsv, `"Alice"`) {
		t.Errorf("TSV = %q", tsv)
	}
	if tbl := res.Table(); !strings.Contains(tbl, "Alice") {
		t.Errorf("Table = %q", tbl)
	}
}

// TestTextEncoderLiteral pins the CSV and TSV bytes of every term kind
// against literal expected strings, at every chunking of the rows (the
// streaming encoders and the Results collectors are one implementation).
// The blank-node row is the regression: CSV used to write a bare label,
// indistinguishable from a literal (SPARQL 1.1 CSV/TSV Results §3).
func TestTextEncoderLiteral(t *testing.T) {
	res := &Results{Vars: []string{"a", "b"}, Rows: [][]rdf.Term{
		{rdf.NewIRI("http://x/a"), rdf.NewLiteral(`say "hi", ok`)},
		{rdf.NewBlank("b0"), rdf.NewInteger(7)},
		{{}, rdf.NewLangLiteral("bon\njour", "fr")},
	}}
	const wantCSV = "a,b\r\n" +
		"http://x/a,\"say \"\"hi\"\", ok\"\r\n" +
		"_:b0,7\r\n" +
		",\"bon\njour\"\r\n"
	const wantTSV = "?a\t?b\n" +
		"<http://x/a>\t\"say \\\"hi\\\", ok\"\n" +
		"_:b0\t\"7\"^^<http://www.w3.org/2001/XMLSchema#integer>\n" +
		"\t\"bon\\njour\"@fr\n"
	if got := res.EncodeCSV(); got != wantCSV {
		t.Errorf("EncodeCSV:\nwant %q\ngot  %q", wantCSV, got)
	}
	if got := res.EncodeTSV(); got != wantTSV {
		t.Errorf("EncodeTSV:\nwant %q\ngot  %q", wantTSV, got)
	}
	for _, chunk := range []int{1, 2} {
		for name, want := range map[string]string{"csv": wantCSV, "tsv": wantTSV} {
			var b strings.Builder
			enc := NewCSVEncoder(&b)
			if name == "tsv" {
				enc = NewTSVEncoder(&b)
			}
			if err := enc.Head(res.Vars); err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(res.Rows); lo += chunk {
				if err := enc.Rows(res.Rows[lo:min(lo+chunk, len(res.Rows))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := enc.Close(); err != nil {
				t.Fatal(err)
			}
			if b.String() != want {
				t.Errorf("%s chunk=%d:\nwant %q\ngot  %q", name, chunk, want, b.String())
			}
		}
	}
	if got := (&Results{}).EncodeCSV() + (&Results{}).EncodeTSV(); got != "\r\n\n" {
		t.Errorf("empty table = %q", got)
	}
}

func TestPlannerAblationSameResults(t *testing.T) {
	st := loadStore(t, peopleTTL)
	q := `
PREFIX ex: <http://example.org/>
SELECT ?name ?country WHERE {
  ?p a ex:Person .
  ?p ex:name ?name .
  ?p ex:city ?c .
  ?c ex:inCountry ?country .
} ORDER BY ?name`
	e1 := NewEngine(st)
	e2 := NewEngine(st, WithPlanner(false)) // written order
	r1, err := e1.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != r2.Len() {
		t.Fatalf("planner changed result count: %d vs %d", r1.Len(), r2.Len())
	}
	for i := range r1.Rows {
		for j := range r1.Vars {
			if r1.Rows[i][j] != r2.Rows[i][j] {
				t.Fatalf("planner changed results at (%d,%d)", i, j)
			}
		}
	}
}

func TestParseErrorsSurface(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT ?x`,
		`SELECT ?x WHERE`,
		`SELECT ?x WHERE { ?x }`,
		`SELECT ?x WHERE { ?x <p> }`,
		`SELECT ?x WHERE { ?x <p> ?y`,
		`SELECT ?x WHERE { ?x nope:p ?y }`,
		`ASK { FILTER }`,
		`SELECT ?x WHERE { ?x <p> ?y } GROUP BY`,
		`SELECT ?x WHERE { ?x <p> ?y } LIMIT abc`,
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) succeeded, want error", src)
		}
	}
}

func TestBlankNodePatternInQuery(t *testing.T) {
	st := loadStore(t, `
@prefix qb: <http://purl.org/linked-data/cube#> .
@prefix ex: <http://example.org/> .
ex:dsd qb:component [ qb:dimension ex:dim1 ] ;
       qb:component [ qb:dimension ex:dim2 ] .`)
	res := sel(t, st, `
PREFIX qb: <http://purl.org/linked-data/cube#>
PREFIX ex: <http://example.org/>
SELECT ?d WHERE { ex:dsd qb:component [ qb:dimension ?d ] } ORDER BY ?d`)
	if res.Len() != 2 {
		t.Fatalf("blank node pattern rows = %d", res.Len())
	}
}

func TestNumericLiteralForms(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:v 10 . ex:b ex:v 2.5 . ex:c ex:v 1e2 .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:v ?v FILTER(?v >= 2.5 && ?v <= 100) } ORDER BY ?s`)
	if res.Len() != 3 {
		t.Fatalf("numeric comparison across types: %d rows", res.Len())
	}
}

func TestArithmetic(t *testing.T) {
	st := loadStore(t, `@prefix ex: <http://example.org/> . ex:a ex:v 10 .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT (?v + 5 AS ?add) (?v - 3 AS ?sub) (?v * 2 AS ?mul) (?v / 4 AS ?div) (-?v AS ?neg)
WHERE { ex:a ex:v ?v }`)
	checks := map[string]string{"add": "15", "sub": "7", "mul": "20", "div": "2.5", "neg": "-10"}
	for k, want := range checks {
		if got := res.Binding(0, k).Value; got != want {
			t.Errorf("%s = %q, want %q", k, got, want)
		}
	}
}

func TestOrderBySemantics(t *testing.T) {
	st := loadStore(t, `
@prefix ex: <http://example.org/> .
ex:a ex:v 20 . ex:b ex:v 3 . ex:c ex:v 100 .`)
	res := sel(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?s ?v WHERE { ?s ex:v ?v } ORDER BY DESC(?v)`)
	if res.Binding(0, "v").Value != "100" || res.Binding(2, "v").Value != "3" {
		t.Fatalf("numeric DESC order wrong: %v", res.Rows)
	}
}
