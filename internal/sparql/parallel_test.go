package sparql

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// parallelFixture builds a store large enough that every operator's
// input exceeds minParallelRows, so the BGP join fans out: n items with
// type, value, group, and (for even items) a label; a third of the
// items are "flagged" in a separate pattern used by MINUS and UNION.
func parallelFixture(n int) *store.Store {
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

// operatorQueries exercise each operator over parallelFixture: BGP join
// chains, FILTER, single-pattern and general OPTIONAL, UNION, MINUS,
// FILTER EXISTS, DISTINCT, and hash GROUP BY with HAVING and aggregate
// projections. TestAliasingAgainstReference checks them against the
// reference evaluator, TestParallelMatchesSequential at every join width.
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

// TestParallelMatchesSequential runs operatorQueries over
// parallelFixture with the batch join fanned out over several workers
// and checks every result against the same engine at joinWidth 1: the
// table, order included, must be identical at every width and chunk
// size (DESIGN §7).
func TestParallelMatchesSequential(t *testing.T) {
	st := parallelFixture(1500)
	for i, src := range operatorQueries {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatalf("operator query %d does not parse: %v", i, err)
		}
		for _, chunk := range []int{defaultChunkSize, 128} {
			seq := NewEngine(st, WithChunkSize(chunk))
			seq.joinWidth = 1
			want, err := seq.Select(q)
			if err != nil {
				t.Fatalf("operator query %d chunk=%d width=1: %v", i, chunk, err)
			}
			if len(want.Rows) == 0 {
				t.Fatalf("operator query %d returns no rows: the fixture no longer exercises it", i)
			}
			for _, width := range []int{2, 4, 8} {
				par := NewEngine(st, WithChunkSize(chunk))
				par.joinWidth = width
				got, err := par.Select(q)
				if err != nil {
					t.Fatalf("operator query %d chunk=%d width=%d: %v", i, chunk, width, err)
				}
				if !slices.Equal(got.Vars, want.Vars) ||
					!slices.EqualFunc(got.Rows, want.Rows, func(a, b []rdf.Term) bool { return slices.Equal(a, b) }) {
					t.Fatalf("operator query %d chunk=%d width=%d: %d rows differ from the %d at width 1\n%s",
						i, chunk, width, len(got.Rows), len(want.Rows), src)
				}
			}
		}
	}
}

// TestChunkBounds pins the deterministic partitioning.
func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{10, 3}, {128, 4}, {129, 4}, {7, 7}, {1000, 8}} {
		bounds := chunkBounds(tc.n, tc.w)
		if len(bounds) != tc.w {
			t.Fatalf("chunkBounds(%d,%d): %d chunks", tc.n, tc.w, len(bounds))
		}
		prev := 0
		for _, b := range bounds {
			if b[0] != prev || b[1] < b[0] {
				t.Fatalf("chunkBounds(%d,%d): bad bounds %v", tc.n, tc.w, bounds)
			}
			prev = b[1]
		}
		if prev != tc.n {
			t.Fatalf("chunkBounds(%d,%d): covers %d items", tc.n, tc.w, prev)
		}
	}
}

// TestMergeChunks pins the merge of an owned chunk's worker outputs: the
// parts are copied down into the chunk only when no copy can overwrite a
// part still waiting in its own rows[lo:hi].
func TestMergeChunks(t *testing.T) {
	row := func(i int) solution { return solution{rdf.NewInteger(int64(i))} }
	fresh := func(ids ...int) []solution {
		out := make([]solution, len(ids))
		for i, id := range ids {
			out[i] = row(id)
		}
		return out
	}
	bounds := [][2]int{{0, 4}, {4, 8}}
	for _, tc := range []struct {
		name    string
		first   []solution // worker 0 spilled into a fresh slice
		keep    int        // worker 1 compacted rows[4:4+keep] in place
		inPlace bool
	}{
		{"both fit", fresh(10, 11), 3, true},
		{"first part would overwrite the second", fresh(10, 11, 12, 13, 14, 15), 1, false},
		{"more rows than the chunk holds", fresh(10, 11, 12, 13, 14, 15), 4, false},
	} {
		rows := fresh(0, 1, 2, 3, 4, 5, 6, 7)
		want := append(cloneRows(tc.first), cloneRows(rows[4:4+tc.keep])...)
		got := mergeChunks(rows, bounds, [][]solution{tc.first, rows[4 : 4+tc.keep : 8]}, true)
		if !sameRows(got, want) {
			t.Errorf("%s: merged %v, want %v", tc.name, got, want)
		}
		if (&got[0] == &rows[0]) != tc.inPlace {
			t.Errorf("%s: merged in place = %v, want %v", tc.name, !tc.inPlace, tc.inPlace)
		}
	}
}
