package sparql

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/rdf"
	"repro/internal/store"
)

// streamTestStore is peopleTTL plus a named graph, so the operator
// equivalence battery can exercise GRAPH (fixed and variable) and
// EXISTS filters evaluated inside a graph context.
func streamTestStore(t *testing.T) *store.Store {
	t.Helper()
	st := loadStore(t, peopleTTL)
	g1 := rdf.NewIRI("http://example.org/g1")
	g2 := rdf.NewIRI("http://example.org/g2")
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
	st.Insert(rdf.NewQuad(ex("alice"), ex("works"), ex("acme"), g1))
	st.Insert(rdf.NewQuad(ex("bob"), ex("works"), ex("initech"), g1))
	st.Insert(rdf.NewQuad(ex("acme"), ex("sector"), rdf.NewLiteral("tech"), g1))
	st.Insert(rdf.NewQuad(ex("carol"), ex("works"), ex("acme"), g2))
	return st
}

// compactTable renders a result table on one line for literal
// expectations: the header, then one ";"-separated row per solution
// with IRIs cut to their local name, literals quoted, and "-" for an
// unbound cell.
func compactTable(res *Results) string {
	var b strings.Builder
	fmt.Fprint(&b, res.Vars)
	for _, row := range res.Rows {
		b.WriteByte(';')
		for i, c := range row {
			if i > 0 {
				b.WriteByte(' ')
			}
			if c.IsZero() {
				b.WriteByte('-')
			} else {
				b.WriteString(shortTerm(c))
			}
		}
	}
	return b.String()
}

// streamEquivCases covers every pipeline operator: BGP joins, FILTER,
// BIND, OPTIONAL (single and group), UNION, MINUS, VALUES, GRAPH
// fixed/variable/missing, subselects, property paths, DISTINCT,
// OFFSET/LIMIT, and the pipeline breakers (ORDER BY, aggregation). The
// expected tables (compactTable form) were recorded from the fully
// materialized evaluator before it was deleted (PR 13).
var streamEquivCases = []struct{ query, want string }{
	{`SELECT ?name WHERE { ?p a ex:Person ; ex:name ?name }`,
		`[name];"Alice";"Bob";"Carol"`},
	{`SELECT * WHERE { ?p ex:knows ?q . ?q ex:name ?name }`,
		`[name p q];"Bob" alice bob;"Carol" bob carol`},
	{`SELECT ?name ?a WHERE { ?p ex:name ?name ; ex:age ?a FILTER(?a > 26) }`,
		`[name a];"Alice" "30";"Carol" "35"`},
	{`SELECT ?name ?twice WHERE { ?p ex:name ?name ; ex:age ?a BIND(?a * 2 AS ?twice) }`,
		`[name twice];"Alice" "60";"Bob" "50";"Carol" "70"`},
	{`SELECT ?name ?other WHERE { ?p a ex:Person ; ex:name ?name OPTIONAL { ?p ex:knows ?o . ?o ex:name ?other } }`,
		`[name other];"Alice" "Bob";"Bob" "Carol";"Carol" -`},
	{`SELECT ?name ?city WHERE { ?p ex:name ?name OPTIONAL { ?p ex:city ?city } }`,
		`[name city];"Alice" paris;"Bob" lyon;"Carol" paris;"Dave" -`},
	{`SELECT ?name WHERE { { ?p a ex:Person ; ex:name ?name } UNION { ?p a ex:Robot ; ex:name ?name } }`,
		`[name];"Alice";"Bob";"Carol";"Dave"`},
	{`SELECT ?name WHERE { ?p ex:name ?name MINUS { ?p ex:age ?a FILTER(?a < 31) } }`,
		`[name];"Carol";"Dave"`},
	{`SELECT ?p ?name WHERE { ?p ex:name ?name VALUES ?p { ex:alice ex:dave } }`,
		`[p name];alice "Alice";dave "Dave"`},
	{`SELECT ?who ?org WHERE { GRAPH ex:g1 { ?who ex:works ?org } }`,
		`[who org];alice acme;bob initech`},
	{`SELECT ?g ?who WHERE { GRAPH ?g { ?who ex:works ?org } }`,
		`[g who];g1 alice;g1 bob;g2 carol`},
	{`SELECT ?who WHERE { GRAPH ex:nosuch { ?who ex:works ?org } }`,
		`[who]`},
	{`SELECT ?who ?org WHERE { GRAPH ex:g1 { ?who ex:works ?org FILTER EXISTS { ?org ex:sector ?s } } }`,
		`[who org];alice acme`},
	{`SELECT ?name ?max WHERE { ?p ex:name ?name { SELECT (MAX(?a) AS ?max) WHERE { ?x ex:age ?a } } }`,
		`[name max];"Alice" "35";"Bob" "35";"Carol" "35";"Dave" "35"`},
	{`SELECT ?name WHERE { ?p ex:city/ex:inCountry/ex:label ?c ; ex:name ?name }`,
		`[name];"Alice";"Carol";"Bob"`},
	{`SELECT DISTINCT ?country WHERE { ?p ex:city ?c . ?c ex:inCountry ?country }`,
		`[country];france`},
	{`SELECT ?name WHERE { ?p a ex:Person ; ex:name ?name } OFFSET 1 LIMIT 1`,
		`[name];"Bob"`},
	{`SELECT ?name WHERE { ?p ex:name ?name } ORDER BY DESC(?name) LIMIT 2`,
		`[name];"Dave";"Carol"`},
	{`SELECT ?city (COUNT(?p) AS ?n) WHERE { ?p ex:city ?city } GROUP BY ?city ORDER BY ?city`,
		`[city n];lyon "1";paris "2"`},
	{`SELECT ?s ?o WHERE { ?s ex:p ?o }`,
		`[s o]`},
}

// TestStreamingEquivalenceOperators is the package-level half of the
// pipeline's acceptance gate: for every operator the pipeline
// implements, the result must equal the recorded table at chunk sizes
// that force the per-row cursor path (1), mid-chunk boundaries (3), the
// default, and one chunk holding everything (1<<30) — and again with the
// rows the projection and the fold return to the pipeline poisoned
// (withPoison).
func TestStreamingEquivalenceOperators(t *testing.T) {
	st := streamTestStore(t)
	for _, prefix := range []string{"", "poisoned/"} {
		for _, cs := range []int{1, 3, 1024, 1 << 30} {
			eng := NewEngine(st, WithChunkSize(cs))
			for i, c := range streamEquivCases {
				t.Run(fmt.Sprintf("%schunk=%d/q%02d", prefix, cs, i), func(t *testing.T) {
					var got *Results
					var err error
					withPoison(prefix != "", func() {
						got, err = eng.QueryString("PREFIX ex: <http://example.org/>\n" + c.query)
					})
					if err != nil {
						t.Fatalf("%v\n%s", err, c.query)
					}
					if table := compactTable(got); table != c.want {
						t.Errorf("%s\nwant %s\ngot  %s", c.query, c.want, table)
					}
				})
			}
		}
	}
}

// TestStreamAsk checks ASK short-circuits through the pipeline with
// the right verdicts.
func TestStreamAsk(t *testing.T) {
	st := streamTestStore(t)
	for _, c := range []struct {
		query string
		want  bool
	}{
		{`PREFIX ex: <http://example.org/> ASK { ?p ex:age ?a FILTER(?a > 34) }`, true},
		{`PREFIX ex: <http://example.org/> ASK { ?p ex:age ?a FILTER(?a > 99) }`, false},
		{`PREFIX ex: <http://example.org/> ASK { GRAPH ex:g1 { ?s ex:works ?o } }`, true},
	} {
		q, err := ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewEngine(st, WithChunkSize(1)).Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("ASK = %v, want %v\n%s", got, c.want, c.query)
		}
	}
}

// TestStreamSelectDelivery checks the incremental delivery contract:
// head exactly once, every chunk within the configured size, and the
// concatenation equal to the whole result table.
func TestStreamSelectDelivery(t *testing.T) {
	st := streamTestStore(t)
	qs := `PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?p ex:name ?name }`
	q, err := ParseQuery(qs)
	if err != nil {
		t.Fatal(err)
	}
	const want = `[name];"Alice";"Bob";"Carol";"Dave"`

	eng := NewEngine(st, WithChunkSize(2))
	var vars []string
	heads := 0
	var rows [][]rdf.Term
	err = eng.StreamSelect(context.Background(), q,
		func(v []string) error { heads++; vars = append([]string(nil), v...); return nil },
		func(c [][]rdf.Term) error {
			if len(c) == 0 || len(c) > 2 {
				t.Errorf("chunk of %d rows with chunk size 2", len(c))
			}
			rows = append(rows, c...)
			return nil
		})
	if err != nil {
		t.Fatalf("StreamSelect: %v", err)
	}
	if heads != 1 {
		t.Fatalf("head called %d times, want 1", heads)
	}
	if got := compactTable(&Results{Vars: vars, Rows: rows}); got != want {
		t.Fatalf("streamed delivery differs\nwant %s\ngot  %s", want, got)
	}
}

// TestStreamSelectBreakerDelivery checks that a pipeline-breaker query
// (ORDER BY) still arrives via the chunk callback in bounded blocks.
func TestStreamSelectBreakerDelivery(t *testing.T) {
	st := streamTestStore(t)
	q, err := ParseQuery(`PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?p ex:name ?name } ORDER BY ?name`)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st, WithChunkSize(2))
	var names []string
	err = eng.StreamSelect(context.Background(), q,
		func([]string) error { return nil },
		func(c [][]rdf.Term) error {
			if len(c) > 2 {
				t.Errorf("breaker chunk of %d rows with chunk size 2", len(c))
			}
			for _, row := range c {
				names = append(names, row[0].Value)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 || names[0] != "Alice" || names[3] != "Dave" {
		t.Fatalf("ordered names = %v", names)
	}
}

// TestStreamSelectSinkError checks a failing consumer aborts the
// pipeline and the error comes back as-is.
func TestStreamSelectSinkError(t *testing.T) {
	st := streamTestStore(t)
	q, err := ParseQuery(`PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?p ex:name ?name }`)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("sink full")
	calls := 0
	err = NewEngine(st, WithChunkSize(1)).StreamSelect(context.Background(), q,
		func([]string) error { return nil },
		func([][]rdf.Term) error { calls++; return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sink's own error", err)
	}
	if calls != 1 {
		t.Fatalf("chunk delivered %d times after sink error, want 1", calls)
	}
}

// TestStreamSelectCancelMidStream cancels between chunks and expects
// the cooperative cancellation contract at the next chunk boundary.
func TestStreamSelectCancelMidStream(t *testing.T) {
	st := streamTestStore(t)
	q, err := ParseQuery(`PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?p ex:name ?name }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = NewEngine(st, WithChunkSize(1)).StreamSelect(ctx, q,
		func([]string) error { return nil },
		func([][]rdf.Term) error { cancel(); return nil })
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not unwrap to context.Canceled", err)
	}
}

// TestStreamMemLimit checks -max-query-mem is enforced wherever a query
// retains something: at the chunk boundaries of a plain scan, and in
// every breaker — ORDER BY's and GROUP BY's drained input, DISTINCT's
// seen set, CONSTRUCT's and DESCRIBE's dedup graph, the WHERE rows an
// update drains before it writes.
func TestStreamMemLimit(t *testing.T) {
	st := store.New()
	var ts []rdf.Triple
	for i := 0; i < 400; i++ {
		ts = append(ts, rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://example.org/s%03d", i)),
			rdf.NewIRI("http://example.org/p"), rdf.NewInteger(int64(i))))
	}
	st.InsertTriples(rdf.Term{}, ts)
	// One 16-row chunk of these 3-term rows is charged ~4.5 KB, so the
	// pipeline's few boundaries fit in 24 KB; each retained structure
	// grows with the 400 rows, well past it. The graph budgets sit above
	// what the WHERE rows alone would cost as a drained table (~115 KB,
	// all the parent commit charged) and below the graph (~900 KB for
	// the six-triple template, ~225 KB of descriptions).
	engine := func(budget int64) *Engine { return NewEngine(st, WithChunkSize(16), WithMaxQueryMem(budget)) }
	eng := engine(24 << 10)
	for _, c := range []struct {
		name, query string
		budget      int64
	}{
		{"order-by", `SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o`, 24 << 10},
		{"group-by", `SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s`, 24 << 10},
		{"distinct", `SELECT DISTINCT ?s WHERE { ?s ?p ?o }`, 24 << 10},
		{"construct", `PREFIX ex: <http://example.org/> CONSTRUCT {
			?s ex:q1 ?o . ?s ex:q2 ?o . ?s ex:q3 ?o . ?s ex:q4 ?o . ?o ex:q5 ?s . ?o ex:q6 ?s
		} WHERE { ?s ?p ?o }`, 400 << 10},
		{"describe", `DESCRIBE ?s WHERE { ?s ?p ?o }`, 160 << 10},
		{"delete-where", `DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }`, 24 << 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			var me *MemLimitError
			if c.name == "delete-where" {
				// The read phase trips, so the write phase never runs.
				if err := engine(c.budget).ExecuteString(c.query); !errors.As(err, &me) {
					t.Fatalf("err = %v, want *MemLimitError", err)
				}
				if n := st.Len(rdf.Term{}); n != 400 {
					t.Fatalf("%d triples left after an update that failed, want all 400", n)
				}
				return
			}
			q, err := ParseQuery(c.query)
			if err != nil {
				t.Fatal(err)
			}
			switch q.Form {
			case FormConstruct:
				_, err = engine(c.budget).Construct(q)
			case FormDescribe:
				_, err = engine(c.budget).Describe(q)
			default:
				err = engine(c.budget).StreamSelect(context.Background(), q,
					func([]string) error { return nil }, func([][]rdf.Term) error { return nil })
			}
			if !errors.As(err, &me) {
				t.Fatalf("err = %v, want *MemLimitError", err)
			}
		})
	}
	// The same scan without a retained structure streams within budget.
	q, _ := ParseQuery(`SELECT ?s ?o WHERE { ?s ?p ?o }`)
	if err := eng.StreamSelect(context.Background(), q,
		func([]string) error { return nil }, func([][]rdf.Term) error { return nil }); err != nil {
		t.Fatalf("plain streamed scan under the same budget: %v", err)
	}
	// And a budget below one chunk trips at the first boundary.
	_, err := NewEngine(st, WithChunkSize(1), WithMaxQueryMem(64)).QueryString(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	var me *MemLimitError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MemLimitError", err)
	}
}

// TestChunkSizeOption pins the option semantics: n <= 0 selects the
// default.
func TestChunkSizeOption(t *testing.T) {
	st := streamTestStore(t)
	if got := NewEngine(st).ChunkSize(); got != defaultChunkSize {
		t.Errorf("default chunk size = %d, want %d", got, defaultChunkSize)
	}
	for _, n := range []int{0, -5} {
		if got := NewEngine(st, WithChunkSize(n)).ChunkSize(); got != defaultChunkSize {
			t.Errorf("WithChunkSize(%d) = %d, want %d", n, got, defaultChunkSize)
		}
	}
	e := NewEngine(st)
	e.SetChunkSize(7)
	if got := e.ChunkSize(); got != 7 {
		t.Errorf("SetChunkSize(7) = %d", got)
	}
}

// TestResultsEncoderByteIdentity checks the incremental encoder writes
// exactly the bytes Results.MarshalJSON would, for every chunking of
// the rows, including the boundary shapes (no rows, nil vars, unbound
// cells).
func TestResultsEncoderByteIdentity(t *testing.T) {
	iri := rdf.NewIRI("http://x/a")
	lit := rdf.NewLiteral("hi")
	cases := []*Results{
		{Vars: []string{"s", "o"}, Rows: [][]rdf.Term{
			{iri, lit},
			{iri, {}}, // unbound cell must be omitted
			{{}, lit},
		}},
		{Vars: []string{"s"}, Rows: [][]rdf.Term{}},
		{Vars: nil, Rows: nil},
		{Vars: []string{"l"}, Rows: [][]rdf.Term{{rdf.NewLangLiteral("bonjour", "fr")}}},
	}
	for i, res := range cases {
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunkRows := range []int{1, 2, 1 << 20} {
			if got := encodeInChunks(t, res, chunkRows); !bytes.Equal(got, want) {
				t.Errorf("case %d chunk %d: encoder bytes differ\nwant %s\ngot  %s", i, chunkRows, want, got)
			}
		}
	}
}

// encodeInChunks streams res through a ResultsEncoder, chunkRows rows
// per Rows call.
func encodeInChunks(t *testing.T, res *Results, chunkRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewResultsEncoder(&buf)
	err := enc.Head(res.Vars)
	for lo := 0; lo < len(res.Rows) && err == nil; lo += chunkRows {
		err = enc.Rows(res.Rows[lo:min(lo+chunkRows, len(res.Rows))])
	}
	if err == nil {
		err = enc.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeResultsRoundTrip checks the incremental decoder on the
// encoder's own output and on every truncated prefix, which must fail
// with a typed, Truncated-classified error — never a panic or a silent
// partial result.
func TestDecodeResultsRoundTrip(t *testing.T) {
	res := &Results{Vars: []string{"s", "n"}, Rows: [][]rdf.Term{
		{rdf.NewIRI("http://x/a"), rdf.NewInteger(1)},
		{rdf.NewIRI("http://x/b"), {}},
	}}
	doc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResults(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("decoding a well-formed document: %v", err)
	}
	gj, _ := json.Marshal(got)
	if !bytes.Equal(gj, doc) {
		t.Fatalf("round trip drifted\nwant %s\ngot  %s", doc, gj)
	}

	// Every prefix, however the reader hands it over: whole, a byte or
	// half a request at a time (an escape, a surrogate pair or a
	// multi-byte rune then straddles two reads), or with the final bytes
	// and io.EOF in one call.
	escaped := []byte(`{"head":{"vars":["s","n"]},"results":{"bindings":[{"s":{"type":"literal",` +
		`"value":"a\u003cb \ud83d\ude00 \"é\" 😀\n","xml:lang":"fr"},"n":{"type":"bnode","value":"b\\0"}}]},"x":[1.5e3,{"k":"\u00e9"}]}`)
	if _, err := ResultsFromJSON(escaped); err != nil {
		t.Fatal(err)
	}
	readers := map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"byte":    iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"dataErr": iotest.DataErrReader,
	}
	for _, doc := range [][]byte{doc, escaped} {
		// Cut in two reads at every byte, the second one long: whatever
		// the scanner holds a view of across a refill is overwritten.
		want, _ := ResultsFromJSON(doc)
		for k := range doc {
			got, err := DecodeResults(io.MultiReader(bytes.NewReader(doc[:k]), bytes.NewReader(doc[k:])))
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("cut at byte %d: decoded %v (%v), the reference %v", k, got, err, want)
			}
		}
		for name, wrap := range readers {
			got, err := DecodeResults(wrap(bytes.NewReader(doc)))
			if err != nil {
				t.Fatalf("%s reader: decoding a well-formed document: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s reader: decoded %v, the reference %v", name, got, want)
			}
			for n := 0; n < len(doc); n++ {
				_, err := DecodeResults(wrap(bytes.NewReader(doc[:n])))
				if err == nil {
					t.Fatalf("%s reader: prefix of %d/%d bytes decoded without error", name, n, len(doc))
				}
				var de *ResultsDecodeError
				if !errors.As(err, &de) {
					t.Fatalf("%s reader: prefix %d: error %T is not *ResultsDecodeError: %v", name, n, err, err)
				}
				if !de.Truncated {
					t.Errorf("%s reader: prefix %d: truncation not classified as Truncated: %v", name, n, err)
				}
			}
		}
	}

	// A traced stream ends with the "trace" member: the traced decoder
	// surfaces it, and to every other reader — DecodeResults, the
	// reference ResultsFromJSON — the document is the same table.
	var buf bytes.Buffer
	enc := NewResultsEncoder(&buf)
	enc.Head(res.Vars)
	enc.Rows(res.Rows)
	enc.SetTrace("c3Bhbg==")
	enc.Close()
	if want := string(doc[:len(doc)-1]) + `,"trace":"c3Bhbg=="}`; buf.String() != want {
		t.Fatalf("traced document\nwant %s\ngot  %s", want, buf.String())
	}
	traced, wire, err := DecodeTracedResults(bytes.NewReader(buf.Bytes()))
	if err != nil || wire != "c3Bhbg==" {
		t.Fatalf("DecodeTracedResults: trace %q, err %v", wire, err)
	}
	ref, err := ResultsFromJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("reference decoder rejects the traced document: %v", err)
	}
	for _, r := range []*Results{traced, ref} {
		if rj, _ := json.Marshal(r); !bytes.Equal(rj, doc) {
			t.Errorf("traced document decoded to a different table: %s", rj)
		}
	}

	for _, garbage := range []string{"xyz", `{"head":1}tail`, `[1,2,3]`} {
		_, err := DecodeResults(bytes.NewReader([]byte(garbage)))
		var de *ResultsDecodeError
		if !errors.As(err, &de) {
			t.Fatalf("garbage %q: error %T is not *ResultsDecodeError: %v", garbage, err, err)
		}
		if de.Truncated {
			t.Errorf("garbage %q misclassified as truncation", garbage)
		}
	}
}

// TestResultsCodecFootprint pins what the codec allocates on a large
// result of the shape an observation extract has — five variables: one
// IRI unique per row, three that repeat down their columns, an integer
// literal. Decoding builds the table in place: everything it allocates
// is within half of what the table keeps, in at most three allocations
// a row (its unique IRI, its literal, a share of the slab and of the
// read buffer). Encoding a chunk into the warm encoder allocates
// nothing that grows with the rows.
func TestResultsCodecFootprint(t *testing.T) {
	const n = 5000
	res := &Results{Vars: []string{"o", "c", "g", "t", "v"}}
	for i := 0; i < n; i++ {
		res.Rows = append(res.Rows, []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("http://example.org/data/observation/%06d", i)),
			rdf.NewIRI(fmt.Sprintf("http://example.org/dic/citizen#C%02d", i%97)),
			rdf.NewIRI(fmt.Sprintf("http://example.org/dic/geo#G%02d", i%31)),
			rdf.NewIRI(fmt.Sprintf("http://example.org/dic/time#2013M%02d", i%6+1)),
			rdf.NewInteger(int64(100 + i%900)),
		})
	}
	doc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	rd := bytes.NewReader(doc)
	var table *Results
	decode := func() {
		rd.Reset(doc)
		if table, err = DecodeResults(rd); err != nil || table.Len() != n {
			t.Fatalf("decoding: %v", err)
		}
	}
	perRow := testing.AllocsPerRun(3, decode) / n
	if perRow > 3 {
		t.Errorf("decoding allocates %.1f times per row, want at most 3", perRow)
	}
	// What the table keeps is the heap a collection gives back once it
	// is dropped; what decoding it allocated, the allocation counter.
	var before, after, kept, dropped runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	runtime.KeepAlive(table)
	table = nil
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	total, retained := after.TotalAlloc-before.TotalAlloc, kept.HeapAlloc-dropped.HeapAlloc
	if float64(total) > 1.5*float64(retained) {
		t.Errorf("decoding allocated %d bytes for a table of %d, want at most 1.5 times it", total, retained)
	}
	t.Logf("decoding allocated %d bytes, %.1f times per row, for a table of %d", total, perRow, retained)

	enc := NewResultsEncoder(io.Discard)
	enc.Head(res.Vars)
	if allocs := testing.AllocsPerRun(10, func() { enc.Rows(res.Rows[:1024]) }); allocs > 1 {
		t.Errorf("encoding 1024 rows into a warm encoder allocates %.0f times, want none that grow with the rows", allocs)
	}
}

// capWatch sits between a WHERE stream and the fold consuming it and
// checks, on every pull — the fold has just returned the chunk before —
// what the pipeline's free list holds.
type capWatch struct {
	chunkIter
	t            *testing.T
	list         *rowList
	peak, widest int
}

func (c *capWatch) next() ([]solution, error) {
	if n := len(c.list.rows); n > c.list.max {
		c.t.Errorf("the free list holds %d rows, its cap is %d", n, c.list.max)
	} else if n > c.peak {
		c.peak = n
	}
	chunk, err := c.chunkIter.next()
	if len(chunk) > c.widest {
		c.widest = len(chunk)
	}
	return chunk, err
}

// TestFreeListHoldsAtMostOneChunk drives a fan-out the list never fed
// into a GROUP BY: 300 subjects leave the first level in chunks of 128,
// the second level's batch join clones each three times with
// solution.clone — rows that never came from the list — and the fold is
// handed, and returns, owned chunks of 384. The second pattern holds ?s
// at O, so the two stay two levels, not one star. The list must fill to
// chunkSize rows and never beyond, whatever it is offered: what waits in
// it is at most the one chunk the account has just released.
func TestFreeListHoldsAtMostOneChunk(t *testing.T) {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	var ts []rdf.Triple
	for i := 0; i < 300; i++ {
		s := ex(fmt.Sprintf("s/%03d", i))
		ts = append(ts, rdf.NewTriple(s, ex("a"), ex(fmt.Sprintf("M%d", i%5))))
		for v := 0; v < 3; v++ {
			ts = append(ts, rdf.NewTriple(ex(fmt.Sprintf("w/%03d/%d", i, v)), ex("v"), s))
		}
	}
	st := store.New()
	st.InsertTriples(rdf.Term{}, ts)
	q, err := ParseQuery(`PREFIX ex: <http://ex/> SELECT ?a (COUNT(*) AS ?n) WHERE { ?s ex:a ?a . ?w ex:v ?s } GROUP BY ?a`)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st, WithChunkSize(minBatchRows), WithPlanner(false))
	r, pq := eng.newRun(context.Background(), q, nil)
	free := &rowList{max: eng.chunkSize}
	body, owned := r.streamGroup(pq.Where, &sliceSource{rows: r.seed(), chunk: eng.chunkSize}, graphCtx{}, nil, free)
	if !owned {
		t.Fatal("the chunks of a WHERE that ends in a BGP are not the consumer's own")
	}
	w := &capWatch{chunkIter: body, t: t, list: free}
	_, rows, err := r.foldGroups(pq, w, free)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0][1] != rdf.NewInteger(180) {
		t.Fatalf("fold = %v, want five groups of 180", rows)
	}
	if w.widest != 3*eng.chunkSize || w.peak != eng.chunkSize {
		t.Errorf("widest chunk %d, fullest list %d; want a %d-row fan-out offered and exactly %d rows kept",
			w.widest, w.peak, 3*eng.chunkSize, eng.chunkSize)
	}
}

// TestStarFanOutStreams drives two 90 000-row fan-outs of star levels.
// In the first one input row's star has two 300-valued members — 90 000
// combinations from one subject's SPO run; in the second a rooted star's
// root run holds 300 subjects with 300 values each. The product must
// arrive in chunks no wider than the chunk size, in the level-by-level
// join's order (the root and then the first member varying slowest), and
// hold no more of the query account at its peak than a single pattern's
// fan-out of one row to as many matches. A scan cancelled mid-product
// must return context.Canceled within rowScan's cadence, and so must a
// scan of a root run of 90 000 triples none of whose subjects the members
// match: every root triple the scan visits counts.
func TestStarFanOutStreams(t *testing.T) {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	const n, chunk = 300, 256
	star, wide := ex("star"), ex("wide")
	ts := []rdf.Triple{rdf.NewTriple(star, ex("type"), ex("T")), rdf.NewTriple(wide, ex("tag"), ex("b/000"))}
	for i := 0; i < n; i++ {
		ts = append(ts, rdf.NewTriple(star, ex("a"), rdf.NewInteger(int64(i))),
			rdf.NewTriple(star, ex("b"), ex(fmt.Sprintf("b/%03d", i))))
	}
	for i := 0; i < n; i++ {
		s := ex(fmt.Sprintf("r/%03d", i))
		ts = append(ts, rdf.NewTriple(s, ex("type"), ex("R")))
		for v := 0; v < n; v++ {
			ts = append(ts, rdf.NewTriple(s, ex("a"), rdf.NewInteger(int64(v))))
		}
	}
	for i := 0; i < n*n; i++ {
		ts = append(ts, rdf.NewTriple(wide, ex("c"), rdf.NewInteger(int64(i))))
	}
	st := store.New()
	st.InsertTriples(rdf.Term{}, ts)
	eng := NewEngine(st, WithChunkSize(chunk), WithPlanner(false))

	// fanOut streams src traced, checks that its BGP ends in level, and
	// returns its rows and its account peak.
	fanOut := func(src, level string) ([][]rdf.Term, int64) {
		q, err := ParseQuery("PREFIX ex: <http://ex/> " + src)
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]rdf.Term
		tr, err := eng.Stream(context.Background(), q, "fan-out", func([]string) error { return nil },
			func(c [][]rdf.Term) error {
				if len(c) > chunk {
					t.Errorf("%s: a chunk of %d rows at chunk size %d", src, len(c), chunk)
				}
				rows = append(rows, c...)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if out := tr.Outline(); !strings.Contains(out, "─ "+level+"  [") || strings.Count(out, "STAR") != strings.Count(level, "STAR") {
			t.Fatalf("%s ran as\n%s\nwant its last level %s", src, out, level)
		}
		if len(rows) != n*n {
			t.Fatalf("%s: the fan-out has %d rows, want %d", src, len(rows), n*n)
		}
		return rows, tr.PeakBytes
	}
	// The one-row level between binds ?x, so the level that binds ?s does
	// not root the star.
	rows, peak := fanOut("SELECT ?s ?a ?b WHERE { ?s ex:type ex:T . ?x ex:tag <http://ex/b/000> . ?s ex:a ?a . ?s ex:b ?b }", "STAR ?s a b")
	for k, row := range rows {
		if row[1] != rdf.NewInteger(int64(k/n)) || row[2] != ex(fmt.Sprintf("b/%03d", k%n)) {
			t.Fatalf("row %d of the star's fan-out is %v, want ?a %d and ?b b/%03d", k, row, k/n, k%n)
		}
	}
	rooted, rootedPeak := fanOut("SELECT ?s ?a WHERE { ?s ex:type ex:R . ?s ex:a ?a }", "STAR ?s type R a")
	for k, row := range rooted {
		if row[0] != ex(fmt.Sprintf("r/%03d", k/n)) || row[1] != rdf.NewInteger(int64(k%n)) {
			t.Fatalf("row %d of the rooted star's fan-out is %v, want ?s r/%03d and ?a %d", k, row, k/n, k%n)
		}
	}
	// Each against a single pattern's fan-out with as many levels before
	// it and as many variables.
	_, singlePeak := fanOut("SELECT ?s ?a ?b WHERE { ?s ex:tag ?b . ?x ex:tag <http://ex/b/000> . ex:wide ex:c ?a }", "JOIN wide c ?a")
	if peak > singlePeak {
		t.Errorf("the star's fan-out peaks at %d bytes of the account, a single pattern's of as many rows at %d", peak, singlePeak)
	}
	if _, singlePeak = fanOut("SELECT ?s ?a WHERE { ?s ex:c ?a }", "JOIN ?s c ?a"); rootedPeak > singlePeak {
		t.Errorf("the rooted star's fan-out peaks at %d bytes of the account, a single pattern's of as many rows at %d", rootedPeak, singlePeak)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &run{e: eng, vt: newVarTable(), snap: st.Snapshot()}
	r.bindContext(ctx)
	row := make(solution, 4)
	ab := []TriplePattern{
		{S: VarTerm("s"), P: ConstTerm(ex("a")), O: VarTerm("a")},
		{S: VarTerm("s"), P: ConstTerm(ex("b")), O: VarTerm("b")},
	}
	for _, c := range []struct {
		name string
		p    *probe
		s    rdf.Term // what the row binds ?s to
	}{
		{"star", r.compileStar(nil, ab, graphCtx{}), star},
		{"rooted star", r.compileStar(&TriplePattern{S: VarTerm("s"), P: ConstTerm(ex("type")), O: VarTerm("x")}, ab[:1], graphCtx{}), rdf.Term{}},
		{"rooted star that never matches", r.compileStar(&TriplePattern{S: VarTerm("x"), P: ConstTerm(ex("c")), O: VarTerm("s")}, ab, graphCtx{}), rdf.Term{}},
	} {
		row[r.vt.slot("s")] = c.s
		scan := r.newRowScan(c.p, row, false, nil, new(lastMatch))
		if c.name == "rooted star that never matches" && len(scan.m.run) < n*n {
			t.Fatalf("the root run has %d triples, want %d", len(scan.m.run), n*n)
		}
		var out []solution
		if _, err := scan.emit(&out, n*n); !errors.Is(err, context.Canceled) || len(out) >= cancelCheckRows*4 || scan.tick > cancelCheckRows*4 {
			t.Errorf("a cancelled scan of the %s emitted %d rows after %d steps and returned %v, want context.Canceled within %d steps", c.name, len(out), scan.tick, err, cancelCheckRows*4)
		}
	}
}
