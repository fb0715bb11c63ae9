package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestNormalizeShapeInvariants pins the core fingerprinting property:
// queries differing only in literals, numbers, whitespace, comments, or
// keyword casing normalize to the same shape; queries differing in
// structure (different predicate IRIs, different operators) do not.
func TestNormalizeShapeInvariants(t *testing.T) {
	same := [][2]string{
		{
			`SELECT ?s WHERE { ?s <http://ex/p> "alpha" } LIMIT 10`,
			`SELECT ?s WHERE { ?s <http://ex/p> "omega" } LIMIT 500`,
		},
		{
			`select ?s where { ?s <http://ex/p> ?o filter(?o > 100) }`,
			`SELECT ?s WHERE { ?s <http://ex/p> ?o FILTER(?o > 7) }`,
		},
		{
			"SELECT ?s WHERE {\n  # find them all\n  ?s <http://ex/p> 'x'\n}",
			`SELECT ?s WHERE { ?s <http://ex/p> 'y' }`,
		},
		{
			`SELECT ?s WHERE { ?s <http://ex/p> "1999"^^<http://www.w3.org/2001/XMLSchema#gYear> }`,
			`SELECT ?s WHERE { ?s <http://ex/p> "2013"^^<http://www.w3.org/2001/XMLSchema#gYear> }`,
		},
		{
			`SELECT ?s   WHERE	{ ?s <http://ex/p> ?o }`,
			`SELECT ?s WHERE { ?s <http://ex/p> ?o }`,
		},
	}
	for i, pair := range same {
		if a, b := ShapeHash(pair[0]), ShapeHash(pair[1]); a != b {
			t.Errorf("pair %d: want same hash, got %s vs %s\n  %s\n  %s\n  norm a: %s\n  norm b: %s",
				i, a, b, pair[0], pair[1], NormalizeShape(pair[0]), NormalizeShape(pair[1]))
		}
	}
	diff := [][2]string{
		{
			`SELECT ?s WHERE { ?s <http://ex/p> ?o }`,
			`SELECT ?s WHERE { ?s <http://ex/q> ?o }`,
		},
		{
			`SELECT ?s WHERE { ?s <http://ex/p> ?o }`,
			`SELECT ?s WHERE { ?s <http://ex/p> ?o } LIMIT 10`,
		},
		{
			`SELECT ?s WHERE { ?s <http://ex/p> ?o }`,
			`SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://ex/p> ?o }`,
		},
	}
	for i, pair := range diff {
		if a, b := ShapeHash(pair[0]), ShapeHash(pair[1]); a == b {
			t.Errorf("pair %d: want different hashes, both %s\n  %s\n  %s", i, a, pair[0], pair[1])
		}
	}
}

// TestNormalizeShapePreservesIRIs checks that numbers inside IRIs and
// prefixed names are not abstracted: ex:obs12 and year-bearing IRIs
// are structure, not literals.
func TestNormalizeShapePreservesIRIs(t *testing.T) {
	q := `SELECT ?s WHERE { ?s <http://ex/year/1999> ex:obs12 }`
	norm := NormalizeShape(q)
	if !strings.Contains(norm, "<http://ex/year/1999>") {
		t.Errorf("IRI digits were abstracted: %s", norm)
	}
	if !strings.Contains(norm, "ex:obs12") {
		t.Errorf("prefixed-name digits were abstracted: %s", norm)
	}
	if ShapeHash(`SELECT ?s WHERE { ?s <http://ex/year/1999> ?o }`) ==
		ShapeHash(`SELECT ?s WHERE { ?s <http://ex/year/2013> ?o }`) {
		t.Error("different IRIs hashed to the same shape")
	}
}

// TestWorkloadBounds verifies the registry folds shapes beyond its
// bound into the overflow bucket instead of growing.
func TestWorkloadBounds(t *testing.T) {
	w := NewWorkload()
	for i := 0; i < MaxShapes+6; i++ {
		// Distinct predicates give distinct shapes.
		q := fmt.Sprintf(`SELECT ?s WHERE { ?s <http://ex/p%x> ?o }`, i)
		w.Record(queryRec(q, time.Millisecond, 1, 100, OutcomeOK))
	}
	snap := w.Snapshot()
	if snap.Shapes != MaxShapes+1 { // MaxShapes distinct + overflow
		t.Fatalf("shapes = %d, want %d (%d + overflow)", snap.Shapes, MaxShapes+1, MaxShapes)
	}
	if snap.Queries != MaxShapes+6 {
		t.Fatalf("queries = %d, want %d", snap.Queries, MaxShapes+6)
	}
	var over *ShapeStat
	for i := range snap.Top {
		if snap.Top[i].Hash == "overflow" {
			over = &snap.Top[i]
		}
	}
	if over == nil || over.Count != 6 {
		t.Fatalf("overflow bucket = %+v, want count 6", over)
	}
}

// TestWorkloadRecordAggregates checks per-shape accumulation: repeated
// queries of the same shape fold into one entry with summed rows/bytes
// and the error flag counted.
func TestWorkloadRecordAggregates(t *testing.T) {
	w := NewWorkload()
	w.Record(queryRec(`SELECT ?s WHERE { ?s <http://ex/p> "a" }`, time.Millisecond, 5, 500, OutcomeOK))
	w.Record(queryRec(`SELECT ?s WHERE { ?s <http://ex/p> "b" }`, 2*time.Millisecond, 3, 300, OutcomeError))
	snap := w.Snapshot()
	if snap.Shapes != 1 {
		t.Fatalf("shapes = %d, want 1", snap.Shapes)
	}
	top := snap.Top[0]
	if top.Count != 2 || top.Errors != 1 || top.Rows != 8 || top.Bytes != 800 {
		t.Fatalf("aggregation wrong: %+v", top)
	}
	if top.AvgRows != 4 {
		t.Fatalf("avgRows = %v, want 4", top.AvgRows)
	}

	// A record fingerprinted by its producer joins the same row, under
	// the hash the slow log prints.
	r := queryRec(`SELECT ?s WHERE { ?s <http://ex/p> "c" }`, time.Millisecond, 1, 100, OutcomeOK)
	r.Fingerprint()
	w.Record(r)
	if top := w.Snapshot().Top[0]; r.Shape != ShapeHash(r.Query) || top.Hash != r.Shape || top.Count != 3 {
		t.Fatalf("fingerprinted record: shape %s, row %+v", r.Shape, top)
	}
}

// TestWorkloadHandler exercises the /workload content negotiation: JSON
// by default, the text table for Accept: text/plain or ?text=1.
func TestWorkloadHandler(t *testing.T) {
	w := NewWorkload()
	w.Record(queryRec(`SELECT ?s WHERE { ?s ?p ?o }`, time.Millisecond, 2, 64, OutcomeOK))
	h := WorkloadHandler(w)

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/workload", nil))
	var snap WorkloadSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON view: %v", err)
	}
	if snap.Queries != 1 || snap.Shapes != 1 {
		t.Fatalf("JSON snapshot = %+v", snap)
	}

	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/workload", nil)
	req.Header.Set("Accept", "text/plain")
	h(rec, req)
	if !strings.HasPrefix(rec.Body.String(), "workload: 1 shapes, 1 queries") {
		t.Fatalf("text view: %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/workload?text=1", nil))
	if !strings.Contains(rec.Body.String(), "SHAPE") {
		t.Fatalf("?text=1 view missing table header: %q", rec.Body.String())
	}
}

// TestWorkloadFromTraces checks the offline mode folds a trace archive
// by query shape, falling back to root-span cardinality for rows.
func TestWorkloadFromTraces(t *testing.T) {
	mk := func(q string, rows int64, out int) *Trace {
		return &Trace{Query: q, Rows: rows, Root: &Span{Op: "SELECT", Out: out, Wall: time.Millisecond}}
	}
	traces := []*Trace{
		mk(`SELECT ?s WHERE { ?s <http://ex/p> "a" }`, 4, 4),
		mk(`SELECT ?s WHERE { ?s <http://ex/p> "b" }`, 0, 7), // pre-accounting trace: rows from root span
		mk(`SELECT ?s WHERE { ?s <http://ex/q> ?o }`, 1, 1),
		nil,
	}
	snap := WorkloadFromTraces(traces).Snapshot()
	if snap.Shapes != 2 || snap.Queries != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Top[0].Count != 2 || snap.Top[0].Rows != 11 {
		t.Fatalf("top shape = %+v, want count 2 rows 11", snap.Top[0])
	}
}

// TestWorkloadCanonical checks that Canonical zeroes only the
// timing-dependent fields.
func TestWorkloadCanonical(t *testing.T) {
	w := NewWorkload()
	w.Record(queryRec(`SELECT ?s WHERE { ?s ?p ?o }`, 5*time.Millisecond, 2, 64, OutcomeOK))
	c := w.Snapshot().Canonical()
	top := c.Top[0]
	if top.P50Ms != 0 || top.P95Ms != 0 || top.P99Ms != 0 || top.AvgMs != 0 {
		t.Fatalf("quantiles not zeroed: %+v", top)
	}
	if top.Count != 1 || top.Rows != 2 || top.Bytes != 64 {
		t.Fatalf("deterministic fields lost: %+v", top)
	}
}

// TestWorkloadOutcomeCounters checks shed/timeout/canceled outcomes
// count separately from plain errors on the same shape, and over-mem
// counts as an error.
func TestWorkloadOutcomeCounters(t *testing.T) {
	w := NewWorkload()
	q := `SELECT ?s WHERE { ?s <http://ex/p> ?o }`
	for _, oc := range []QueryOutcome{OutcomeOK, OutcomeError, OutcomeOverMem, OutcomeShed, OutcomeShed, OutcomeTimeout, OutcomeCanceled} {
		w.Record(queryRec(q, time.Millisecond, 0, 0, oc))
	}
	top := w.Snapshot().Top[0]
	if top.Count != 7 || top.Errors != 2 || top.Sheds != 2 || top.Timeouts != 1 || top.Canceled != 1 {
		t.Fatalf("outcome counters wrong: %+v", top)
	}
	text := w.Snapshot().RenderText()
	if !strings.Contains(text, "TMOUT") || !strings.Contains(text, "SHED") {
		t.Fatalf("text view missing outcome columns:\n%s", text)
	}
}

// queryRec is the record of one finished query.
func queryRec(q string, d time.Duration, rows, bytes int64, oc QueryOutcome) QueryRecord {
	return QueryRecord{Query: q, Duration: d, Rows: rows, MemBytes: bytes, Outcome: oc}
}
