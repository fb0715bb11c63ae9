package sparql

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// aliasFixture builds a random store big enough for chunks to reach
// minBatchRows: 500–700 subjects with one ex:a (a pool of eight
// members), an ex:b on most (the same pool plus three more), zero to
// three integer ex:v, an ex:self pointing at themselves or at a
// neighbour on a third; members carry zero, one or two ex:label; ex:once
// holds exactly one triple, whose ends differ; and two named graphs
// restate part of it with other values.
func aliasFixture(rng *rand.Rand) *store.Store {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	var members []rdf.Term
	for i := 0; i < 11; i++ {
		members = append(members, ex(fmt.Sprintf("M%d", i)))
	}
	n := 500 + rng.Intn(200)
	subj := func(i int) rdf.Term { return ex(fmt.Sprintf("s/%04d", i)) }
	facts := func(every int, pool []rdf.Term) []rdf.Triple {
		var ts []rdf.Triple
		for i := 0; i < n; i++ {
			if rng.Intn(every) != 0 {
				continue
			}
			s := subj(i)
			ts = append(ts, rdf.NewTriple(s, ex("a"), pool[rng.Intn(8)]))
			if rng.Intn(10) < 6 {
				ts = append(ts, rdf.NewTriple(s, ex("b"), pool[rng.Intn(len(pool))]))
			}
			for k := rng.Intn(4); k > 0; k-- {
				ts = append(ts, rdf.NewTriple(s, ex("v"), rdf.NewInteger(int64(rng.Intn(7)))))
			}
			switch rng.Intn(6) {
			case 0:
				ts = append(ts, rdf.NewTriple(s, ex("self"), s))
			case 1:
				ts = append(ts, rdf.NewTriple(s, ex("self"), subj(rng.Intn(n))))
			}
		}
		for i, m := range pool {
			labels := i % 3 // members with none, one and two
			if i >= 3 {
				labels = rng.Intn(3)
			}
			for k := 0; k < labels; k++ {
				ts = append(ts, rdf.NewTriple(m, ex("label"), rdf.NewLiteral(fmt.Sprintf("m%d-%d", i, k))))
			}
		}
		return ts
	}
	st := store.New()
	st.InsertTriples(rdf.Term{}, append(facts(1, members), rdf.NewTriple(members[0], ex("once"), members[1])))
	st.InsertTriples(ex("g1"), facts(3, members))
	st.InsertTriples(ex("g2"), facts(4, members[:9]))
	return st
}

// aliasGen draws the queries of the battery. Its patterns share a small
// variable pool on purpose — ?l is a label in one place and an ex:b
// value in another, ?w is bound by several BINDs — so that a row
// extended in place while somebody else still holds it changes what a
// later or replayed stage computes, rather than rewriting the value it
// already had.
type aliasGen struct{ rng *rand.Rand }

func (g *aliasGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g *aliasGen) triple() string {
	return g.pick("?s ex:a ?a .", "?s ex:b ?b .", "?s ex:v ?v .", "?a ex:label ?l .", "?b ex:label ?l .",
		"?s ex:b ?l .", "?s ex:self ?x .", "?s ex:b ?a .")
}

// filter draws a FILTER that lets the rows it cannot judge through (an
// unbound operand would otherwise empty most generated queries).
func (g *aliasGen) filter() string {
	return "FILTER(" + g.pick("!BOUND(?v) || ?v > 2", "!BOUND(?v) || ?v < 5", "?a != ex:M1", "BOUND(?l) || BOUND(?b)", "!BOUND(?b)",
		"!BOUND(?w)", "BOUND(?x) || ?v > 1", "!BOUND(?w) || ?w > 3", "!BOUND(?b) || ?a != ?b", "BOUND(?l)") + ")"
}

func (g *aliasGen) bind() string {
	return "BIND(" + g.pick("?v + 1", "STR(?a)", "COALESCE(?l, ?b, ?a)", "?v * 2", "?b") + " AS " + g.pick("?w", "?w", "?l", "?x") + ")"
}

// optional draws an OPTIONAL: a single pattern (the in-place kernel;
// ?x ex:once ?x and ?s ex:self ?s repeat a variable), several patterns,
// or a group opening with a stage that would write in place if it owned
// the row it is seeded with.
func (g *aliasGen) optional() string {
	switch g.rng.Intn(8) {
	case 0:
		return "OPTIONAL { ?x ex:once ?x }"
	case 1:
		return "OPTIONAL { ?s ex:self ?s }"
	case 2:
		return "OPTIONAL { " + g.triple() + " " + g.triple() + " }"
	case 3:
		return "OPTIONAL { " + g.bind() + " " + g.triple() + " }"
	case 4:
		return "OPTIONAL { " + g.triple() + " " + g.filter() + " }"
	}
	return "OPTIONAL { " + g.triple() + " }"
}

// branch draws one UNION branch: empty (the replayed chunk itself leaves
// the UNION), opening with a stage that writes in place when it owns its
// input, reading a variable the stages after the UNION bind (so a row
// they extended while the UNION still held it for the next branch
// changes that branch's result), or any small group.
func (g *aliasGen) branch(depth int) string {
	switch g.rng.Intn(8) {
	case 0, 1:
		return ""
	case 2:
		return g.pick("FILTER(!BOUND(?w))", "FILTER(!BOUND(?l))", "FILTER(!BOUND(?x))")
	case 3:
		return g.pick("OPTIONAL { ?s ex:b ?l . }", "OPTIONAL { ?s ex:self ?x . }", "?s ex:b ?l .")
	case 4:
		return g.bind()
	}
	return g.group(1+g.rng.Intn(2), depth+1)
}

// follower draws a stage that writes in place when it owns its input and
// whose result depends on what the row held before: put after the
// elements that must drop ownership.
func (g *aliasGen) follower() string {
	return g.pick("", g.bind(), "BIND(1 AS ?w)", "OPTIONAL { ?a ex:label ?l . }", "OPTIONAL { ?s ex:self ?x . }",
		"FILTER(!BOUND(?l))", "FILTER(BOUND(?x) || BOUND(?l))", "FILTER(!BOUND(?w) || ?w > 3)")
}

// semiJoin draws a FILTER over an EXISTS that shares one variable with
// the query — ?a, ?b or ?s; ?e and ?f occur nowhere else — on its own,
// as a conjunct, under || and under !. The planner makes a semi-join set
// of each (DESIGN §12) except the last EXISTS, whose FILTER reads ?a but
// whose patterns do not bind it.
func (g *aliasGen) semiJoin() string {
	ex := g.pick("EXISTS { ?a ex:label ?e }", `EXISTS { ?b ex:label ?e . FILTER(?e != "m1-0") }`, "EXISTS { ?s ex:v ?e . FILTER(?e > 2) }",
		"EXISTS { ?e ex:b ?a . ?e ex:v ?f }", "EXISTS { ?e ex:label ?f . FILTER(?a != ex:M1) }")
	return "FILTER(" + g.pick(ex, ex+" && BOUND(?s)", ex+" || !BOUND(?v) || ?v > 3", "!"+ex, "!("+ex+" && ?a != ex:M2)") + ")"
}

// element draws one group element; nesting stops at depth 2.
func (g *aliasGen) element(depth int) string {
	k := g.rng.Intn(23)
	if depth >= 2 && k >= 12 {
		k -= 12
	}
	switch {
	case k < 2:
		return g.triple()
	case k < 5:
		return g.filter()
	case k < 8:
		return g.bind()
	case k < 10:
		return g.optional()
	case k < 12:
		return g.optional() + " " + g.follower()
	case k < 15:
		return "{ " + g.branch(depth) + " } UNION { " + g.branch(depth) + " } " + g.follower()
	case k == 15:
		return g.pick("MINUS { ?s ex:b ex:M2 . }", "MINUS { ?s ex:v ?v . FILTER(?v > 3) }", "MINUS { ?a ex:label \"m4-0\" . }",
			"VALUES ?a { ex:M0 ex:M1 ex:M2 ex:M5 }", "VALUES (?a ?w) { (ex:M0 1) (UNDEF 2) (ex:M3 UNDEF) }", "VALUES ?v { 1 2 3 }")
	case k == 16:
		return "FILTER " + g.pick("", "NOT ") + "EXISTS { " + g.group(1+g.rng.Intn(2), depth+1) + " }"
	case k == 17:
		return g.pick("{ SELECT ?s ?b WHERE { ?s ex:b ?b } }",
			"{ SELECT ?a (COUNT(*) AS ?w) WHERE { ?s ex:a ?a } GROUP BY ?a }",
			"{ SELECT ?s ?l WHERE { ?s ex:a ?a OPTIONAL { ?a ex:label ?l } } }")
	case k == 18:
		return "GRAPH " + g.pick("?g", "?g", "?g", "ex:g1", "ex:g1", "ex:nowhere") + " { " + g.group(1+g.rng.Intn(2), 2) + " } " + g.follower()
	case k == 19:
		return g.semiJoin()
	case k == 20:
		// A semi-join beside an aggregating sub-select grouped by its
		// variable copies into it — but not through a LIMIT.
		return g.pick("{ SELECT ?a (COUNT(*) AS ?n2) WHERE { ?s ex:a ?a } GROUP BY ?a } FILTER EXISTS { ?a ex:label ?e }",
			"{ SELECT ?a (COUNT(*) AS ?n2) WHERE { ?s ex:a ?a } GROUP BY ?a ORDER BY ?a LIMIT 3 } FILTER EXISTS { ?a ex:label ?e }",
			"{ ?s ex:b ?b { SELECT ?b (SUM(?v) AS ?n2) WHERE { ?s ex:b ?b . ?s ex:v ?v } GROUP BY ?b } FILTER(EXISTS { ?b ex:label ?e } || ?n2 > 20) }")
	case k == 21:
		// A set inside GRAPH ?g, and one the pattern that binds ?b
		// checks: seeded with ?s, it is cheaper than any set.
		return g.pick("GRAPH ?g { ?s ex:a ?a . ", "{ ?s ex:b ?b . ") + g.semiJoin() + " }"
	}
	return "{ " + g.group(1+g.rng.Intn(2), depth+1) + " } " + g.follower()
}

func (g *aliasGen) group(n, depth int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = g.element(depth)
	}
	return strings.Join(parts, " ")
}

// query draws a whole SELECT: an anchor pattern every subject matches, a
// few elements, and one of the consumers that retain what they are
// handed — an ungrouped ORDER BY (drainStream keeps every chunk), GROUP
// BY (the fold keeps each group's first row), DISTINCT — or none.
func (g *aliasGen) query() string {
	where := "{ ?s ex:a ?a . " + g.pick("", "", "?s ex:v ?v . ") + g.group(2+g.rng.Intn(4), 0) + " }"
	switch g.rng.Intn(6) {
	case 0:
		return "SELECT * WHERE " + where + " ORDER BY ?s ?v ?l"
	case 1:
		return "SELECT ?a (COUNT(*) AS ?n) (COUNT(?l) AS ?nl) (SUM(?v) AS ?sv) WHERE " + where + " GROUP BY ?a"
	case 2:
		return "SELECT ?a ?l ?w (COUNT(*) AS ?n) (MAX(?v) AS ?mv) WHERE " + where + " GROUP BY ?a ?l ?w"
	case 3:
		return "SELECT DISTINCT ?a ?l ?w ?x WHERE " + where
	}
	return "SELECT * WHERE " + where
}

// sortedKeys renders a result table as a sorted multiset of row keys.
func sortedKeys(res *Results) []string {
	keys := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		keys[i] = solutionKey(row)
	}
	slices.Sort(keys)
	return keys
}

// TestAliasingAgainstReference is the query-level net under chunk
// ownership (DESIGN §16) and semi-join sets (§12): seeded random groups
// of BGP / FILTER / BIND / OPTIONAL (single, multi-pattern,
// repeated-variable) / UNION / MINUS / VALUES / FILTER EXISTS — one that
// shares one variable, too, beside an aggregating sub-select grouped by
// it, with and without LIMIT — / sub-select / GRAPH over random stores large
// enough for the batch kernels to run, with
// the stages that write in place put where a wrong ownership bit shows —
// first in a UNION branch or an EXISTS group, after a replayed input,
// before an ORDER BY that retains every chunk and a GROUP BY that retains
// first rows — and then the fixed operator queries of
// operatorQueries over operatorFixture and the star shapes of
// starQueries. Every result must be the multiset
// the nested-loop reference of refeval_test.go computes, and the very
// same table — order included — at every chunk size, with the rows a
// pipeline's consumer returns left as they are and poisoned (withPoison):
// whoever reads a row after it went back — a chunk returned that was not
// owned — then answers with the sentinel instead of needing the next
// chunk to overwrite it.
func TestAliasingAgainstReference(t *testing.T) {
	check := func(st *store.Store, name, src string) int {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatalf("%s: query does not parse: %v\n%s", name, err, src)
		}
		want := sortedKeys(newRefEval(st.Snapshot(), NewEngine(st), q).query(q))
		var first *Results
		for _, poison := range []bool{false, true} {
			for _, chunk := range []int{1 << 30, 1024, 128, 3, 1} {
				var res *Results
				withPoison(poison, func() {
					res, err = NewEngine(st, WithChunkSize(chunk)).Select(q)
				})
				at := fmt.Sprintf("%s chunk=%d poison=%v", name, chunk, poison)
				if err != nil {
					t.Fatalf("%s: %v\n%s", at, err, src)
				}
				if got := sortedKeys(res); !slices.Equal(got, want) {
					t.Fatalf("%s: %d rows, the reference has %d%s\n%s", at, len(got), len(want), firstDifference(got, want), src)
				}
				if first == nil {
					first = res
				} else if !slices.EqualFunc(res.Rows, first.Rows, func(a, b []rdf.Term) bool { return slices.Equal(a, b) }) {
					t.Fatalf("%s: same rows as at chunk=1<<30, in another order\n%s", at, src)
				}
			}
		}
		return len(want)
	}
	rng := rand.New(rand.NewSource(21))
	stores, perStore := 10, 8
	if testing.Short() {
		stores = 3
	}
	gen := &aliasGen{rng: rng}
	var st *store.Store
	large := 0
	for trial := 0; trial < stores*perStore; trial++ {
		if trial%perStore == 0 {
			st = aliasFixture(rng)
		}
		if check(st, fmt.Sprintf("trial %d", trial), "PREFIX ex: <http://ex/> "+gen.query()) >= minBatchRows {
			large++
		}
	}
	if trials := stores * perStore; large < trials/4 {
		t.Fatalf("only %d of %d queries return a batch-sized result: the generator no longer reaches the batch kernels", large, trials)
	}
	st = operatorFixture(1500)
	for i, src := range operatorQueries {
		check(st, fmt.Sprintf("operator query %d", i), src)
	}
	st = aliasFixture(rand.New(rand.NewSource(31)))
	for i, src := range starQueries {
		check(st, fmt.Sprintf("star query %d", i), src)
	}
}

// operatorFixture builds a store large enough that every operator's
// input reaches minBatchRows, so the BGP takes its batch kernel: n items with
// type, value, group, and (for even items) a label; a third of the
// items are "flagged" in a separate pattern used by MINUS and UNION.
func operatorFixture(n int) *store.Store {
	st := store.New()
	typ := rdf.NewIRI("http://ex/type")
	item := rdf.NewIRI("http://ex/Item")
	val := rdf.NewIRI("http://ex/value")
	grp := rdf.NewIRI("http://ex/group")
	lbl := rdf.NewIRI("http://ex/label")
	flag := rdf.NewIRI("http://ex/flagged")
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/item/%04d", i))
		ts = append(ts,
			rdf.NewTriple(s, typ, item),
			rdf.NewTriple(s, val, rdf.NewInteger(int64(i%97))),
			rdf.NewTriple(s, grp, rdf.NewIRI(fmt.Sprintf("http://ex/g/%d", i%13))),
		)
		if i%2 == 0 {
			ts = append(ts, rdf.NewTriple(s, lbl, rdf.NewLiteral(fmt.Sprintf("label %d", i))))
		}
		if i%3 == 0 {
			ts = append(ts, rdf.NewTriple(s, flag, rdf.NewBoolean(true)))
		}
	}
	st.InsertTriples(rdf.Term{}, ts)
	return st
}

// operatorQueries exercise each operator over operatorFixture: BGP join
// chains, FILTER, single-pattern and general OPTIONAL, UNION, MINUS,
// FILTER EXISTS, DISTINCT, and hash GROUP BY with HAVING and aggregate
// projections. TestAliasingAgainstReference checks them against the
// reference evaluator.
var operatorQueries = []string{
	// BGP join + FILTER.
	`SELECT ?s ?v WHERE {
		?s <http://ex/type> <http://ex/Item> ; <http://ex/value> ?v .
		FILTER(?v > 40)
	} ORDER BY ?s`,
	// Single-pattern OPTIONAL (fast path).
	`SELECT ?s ?l WHERE {
		?s <http://ex/type> <http://ex/Item> .
		OPTIONAL { ?s <http://ex/label> ?l }
	} ORDER BY ?s`,
	// General OPTIONAL (two patterns inside).
	`SELECT ?s ?l ?v WHERE {
		?s <http://ex/type> <http://ex/Item> .
		OPTIONAL { ?s <http://ex/label> ?l . ?s <http://ex/value> ?v }
	} ORDER BY ?s`,
	// UNION over two branches.
	`SELECT ?s WHERE {
		{ ?s <http://ex/flagged> true } UNION { ?s <http://ex/label> ?l }
	} ORDER BY ?s`,
	// MINUS exclusion.
	`SELECT ?s WHERE {
		?s <http://ex/type> <http://ex/Item> .
		MINUS { ?s <http://ex/flagged> true }
	} ORDER BY ?s`,
	// Hash GROUP BY with aggregates and HAVING.
	`SELECT ?g (SUM(?v) AS ?total) (COUNT(?s) AS ?n) WHERE {
		?s <http://ex/group> ?g ; <http://ex/value> ?v .
	} GROUP BY ?g HAVING(SUM(?v) > 100) ORDER BY ?g`,
	// Grouping without ORDER BY: group order must match exactly.
	`SELECT ?g (AVG(?v) AS ?avg) WHERE {
		?s <http://ex/group> ?g ; <http://ex/value> ?v .
	} GROUP BY ?g`,
	// FILTER with EXISTS (a nested pipeline per row).
	`SELECT ?s WHERE {
		?s <http://ex/value> ?v .
		FILTER EXISTS { ?s <http://ex/label> ?l }
	} ORDER BY ?s`,
	// DISTINCT projection over a join.
	`SELECT DISTINCT ?g WHERE {
		?s <http://ex/group> ?g ; <http://ex/flagged> true .
	}`,
}

// starQueries put star levels (DESIGN §16 "The star walk", "The rooted
// star") over an aliasFixture where they can go wrong: multi-valued
// members (ex:v twice in one star), a constant object, an object an
// earlier member (?l) or the root (?b) binds, a star under input rows
// VALUES binds to value twins, a star in a nested OPTIONAL group, a named
// graph, and a subject that only an OPTIONAL above the BGP binds, which a
// root must bind again. Most of them run as rooted stars; the rest root a
// star at ?s's object (ex:self), at a ?s the input binds (VALUES) or an
// earlier star binds, at ?s ex:self ?s, and follow one with an unrooted
// star on the root's subject. The planner joins a pattern that matches
// nothing, or whose object the input binds, first, so members the
// dictionary lacks and value twins inside a star are
// TestProbeAgainstNaiveScan's. The last checks a semi-join set at a star
// member: the set is dearer than the root, so the root enters and the
// ex:b member checks ?b.
var starQueries = []string{
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:a ?a . ?s ex:v ?v . ?s ex:b ?b . ?s ex:v ?w }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:self ?x . ?s ex:a ex:M1 . ?s ex:v ?v . ?s ex:b ?b }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:self ?x . ?s ex:b ?l . ?s ex:a ?l . ?s ex:v ?v }`,
	`PREFIX ex: <http://ex/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
	 SELECT * WHERE { VALUES ?w { 3 "3" "03"^^xsd:integer } ?s ex:a ex:M1 . ?s ex:v ?w . ?s ex:b ?b }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:a ?a OPTIONAL { ?s ex:self ?x . ?x ex:v ?v . ?x ex:b ?b } }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { GRAPH ex:g1 { ?s ex:a ?a . ?s ex:b ?b . ?s ex:v ?v } }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:a ex:M0 . OPTIONAL { ?s ex:self ?x } ?x ex:self ?y . ?x ex:b ?b }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?y ex:self ?s . ?s ex:v ?v . ?s ex:b ?b }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { VALUES ?s { <http://ex/s/0001> <http://ex/s/0002> <http://ex/s/0400> ex:M1 } ?s ex:v ?v . ?s ex:a ?a . ?s ex:b ?b }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:self ?s . ?s ex:v ?v . ?s ex:a ?a }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:b ?b . ?s ex:v ?v . ?s ex:a ?b }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:self ?x . ?x ex:a ?a . ?s ex:v ?v . ?s ex:b ?b }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:a ex:M1 . ?x ex:self ?s . ?s ex:v ?v . ?s ex:b ?b }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:a ex:M1 . ?s ex:b ?b . ?s ex:v ?v FILTER EXISTS { ?b ex:label ?e . ?f ex:b ?b } }`,
}

// withPoison runs fn with the rows that go back to a pipeline's free list
// overwritten by the sentinel (rowList.putRow) when on is set. The tests
// of this package run one after another, so the switch is theirs alone.
func withPoison(on bool, fn func()) {
	poisonReturned = on
	defer func() { poisonReturned = false }()
	fn()
}

// firstDifference names the first key two sorted multisets disagree on.
func firstDifference(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("; missing %q", want[i])
		case i >= len(want) || got[i] < want[i]:
			return fmt.Sprintf("; unexpected %q", got[i])
		case got[i] > want[i]:
			return fmt.Sprintf("; missing %q", want[i])
		}
	}
	return ""
}
